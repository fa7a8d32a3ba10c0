"""Monte Carlo engines for the destruction process.

Two engines with very different trust models:

* ``size_process`` draws only component sizes from the splitting law
  p_{n,k}.  Because cutting a random tree of the family leaves both
  components random trees of the same family, this is exact in law and
  it is the fast path (no trees are ever built).  The cumulative split
  rows of every size 2..n sit back to back in one uint32 array, each
  entry rounded down to a multiple of 2^-31, next to a guide index (Chen
  & Asau 1974) over the draws' own integer buckets, so a level's draws
  walk up the few steps left.  Only a uniform in the same 2^-31 cell as
  the entry it last passed is searched again, on the float64 row, so
  the draws equal a binary search of that row, draw for draw.  Sizes
  stay in the narrowest unsigned type, which sorts by radix, two-sided
  sample ids in 16 bits (a shard holds at most SHARD_SIZE samples), and
  row offsets in int32 while the table holds fewer than 2^31 entries
  (n <= 65536).  Table positions stay intp, the one index type numpy
  gathers at without a converted copy.  A level draws only the
  uniforms it uses into an array and frees the sort's indices before
  the draw, so one two-sided shard at n = 2000 peaks at 2.9 MB traced.
  ``take`` and ``compress`` select from the level arrays two to four
  times faster than fancy and boolean indexing.  The table costs
  4 B + 2 B per (m, k) entry: about 12 MB at n = 2000 and 0.3 GB at
  n = 10^4.
* ``explicit`` builds actual trees and literally cuts them, a shard at
  a time; it exists to *test* the size-process assumption, for every
  family, at any n.  Each tree starts as an offspring vector c with sum
  n - 1 drawn from the family's law given that sum (Multinomial for kind
  A, a uniform subset of the d*n child slots for kind B,
  Dirichlet-multinomial for kind C).  One stack pass reads each vector
  in place from its cycle-lemma start (Devroye 2012) as the preorder
  offspring counts of a tree and writes its parent array.  Destruction
  draws a uniform order of the n - 1 edges and adds the edges back from
  the last cut to the first with a union-find (Tarjan 1975): each
  edge's merged size is the size of the component it was cut in.
  Two-sided cost is the sum of their tolls plus n * t1; one-sided
  counts only the records, the edges whose merged component holds the
  root (Janson 2006), plus t1.  The first cut's root sides are counted
  by size, per shard, into ``SampleStats.first_cut``: the histogram
  that tests the splitting law.  Offspring counts, vertex ids and sizes
  are int32, and each edge's two ends are formed as it is added back,
  so a sub-batch holds about 20 B per vertex.  Sub-batches of
  2^22 // n trees bound the memory: 84 MB traced and 118 MB peak RSS
  at n = 10^4, the tree stage 50 MB of it besides its offspring vectors.

Both engines read every toll, the size-1 cost t1 included, from one
array, ``TollSpec.float_values(n)``, whose entry 1 is t1.

Reproducibility contract: an experiment is deterministic given
(config, seed) regardless of worker count.  Samples are processed in
fixed shards of SHARD_SIZE; shard i uses a Philox generator seeded with
SeedSequence(entropy=seed, spawn_key=(i,)), and per-shard partial sums
are combined in shard order.
"""

from __future__ import annotations

import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple, TypeVar

import numpy as np

from .counts import WeightedCounts, _split_row, compute_counts
from .errors import ConfigError
from .family import FamilySpec
from .moments import ONE_SIDED, TWO_SIDED, TollSpec

SHARD_SIZE = 4096
_EXPLICIT_CELLS = 1 << 22  # vertices (trees * n) an explicit sub-batch holds
# so a vertex id times the trees of a sub-batch is below max(2^22, n) and fits int32 for any n < 2^31

SIZE_PROCESS = "size_process"
EXPLICIT = "explicit"

T = TypeVar("T")


@dataclass(frozen=True)
class SampleStats:
    """Aggregated raw-moment estimates from one experiment."""

    count: int
    moment_estimates: List[float]
    standard_errors: List[Optional[float]]  # None from one sample, which has no spread
    # explicit engine: first_cut[k] samples, k = 0..n-1, had a first cut that left a root side of size k
    # (all of them at k = 0 when n = 1, which is never cut); None from the size process
    first_cut: Optional[Tuple[int, ...]] = None


@dataclass(frozen=True)
class ExperimentConfig:
    family: FamilySpec
    variant: str
    alpha: float
    n: int
    samples: int
    seed: int
    engine: str = SIZE_PROCESS
    workers: int = 1
    s_max: int = 2
    size_one_cost: Optional[float] = None  # None -> the default boundary cost 1


def _shard_rng(seed: int, shard: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(shard,))))


# ---------------------------------------------------------------------------
# Size-process engine
# ---------------------------------------------------------------------------


def _split_cdf(counts: WeightedCounts, m: int) -> np.ndarray:
    """Cumulative splitting law for size m, its last entry exactly 1.

    A plain cumsum may end a few ulps below 1; a uniform in that gap
    would draw K = m and leave an empty side.
    """
    cum = np.cumsum(_split_row(counts, m, exact=False))
    cum[-1] = 1.0
    return cum


class _SplitTable(NamedTuple):
    """Cumulative splitting laws of every size 2..n, back to back.

    Row m (its m - 1 entries) starts at ``offsets[m]``.  ``cdf`` holds
    each entry c of the float64 row ``_split_cdf(counts, m)`` as
    floor(c * 2^31), so c lies in [cdf, cdf + 1) * 2^-31; the last
    entry, exactly 1, is 2^31.  A cell's bucket is floor(cdf * (m-1) /
    2^31), the rule ``_draw_splits`` applies to a uniform's cell, and
    ``guide[offsets[m] + b]``, for b = 0..m-2, counts the row-m cells
    whose bucket is below b: the start of a search in bucket b.
    ``counts`` rebuilds a float64 row where 31 bits cannot decide.
    """

    cdf: np.ndarray
    offsets: np.ndarray
    guide: np.ndarray
    counts: WeightedCounts


def _cumulative_rows(counts: WeightedCounts, n: int) -> _SplitTable:
    """The split table for all sizes 2 <= m <= n, filled row by row in place."""
    narrow = n <= 1 << 16  # row positions are < n, and the table holds < 2^31 entries
    sizes = np.arange(n + 1, dtype=np.int64)
    offsets = (sizes - 1) * (sizes - 2) // 2  # rows 2..m-1 hold 1 + ... + (m-2) entries
    offsets = offsets.astype(np.int32 if narrow else np.int64)
    total = int(offsets[n]) + n - 1
    cdf = np.empty(total, dtype=np.uint32)
    guide = np.empty(total, dtype=np.uint16 if narrow else np.uint32)
    for m in range(2, n + 1):
        row = slice(offsets[m], offsets[m] + m - 1)
        cdf[row] = _split_cdf(counts, m) * 2.0**31  # exact products, truncated to their floor
        guide[row] = np.searchsorted(np.multiply(cdf[row], m - 1, dtype=np.int64) >> 31, np.arange(m - 1))
    return _SplitTable(cdf, offsets, guide, counts)


def _draw_splits(table: _SplitTable, sizes: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Root-side sizes K for each (size, uniform) pair; ``sizes`` in any order.

    Equal to ``np.searchsorted(row_m, u, side="right") + 1`` for every u
    in [0, 1), in the dtype of ``sizes``, where row_m is the float64 row
    ``_split_cdf(counts, m)``.  With uq = floor(u * 2^31), u's bucket
    b = floor(uq * (m-1) / 2^31) <= m - 2 starts the walk past the cells
    with cdf * (m-1) < b * 2^31 <= uq * (m-1), so cdf < uq: no start
    passes the answer.  The walk moves on while cdf <= uq.  A stop is
    always sure: cdf > uq gives c >= (uq + 1) * 2^-31 > u.  A pass with
    cdf < uq is sure too, since c < (cdf + 1) * 2^-31 <= u.  Only an
    entry in u's own cell, cdf == uq, may be passed although c > u, and
    rows never decrease, so only a draw that walked and whose last
    passed entry lies in that cell is searched again, on its float64 row
    rebuilt once per size.  The last entry of a row is 2^31 > uq, so no
    walk leaves its row.  The answers are kept as row positions in the
    guide's type, which is the sizes' own for 256 <= n <= 65536, so
    there they are returned with no cast.
    """
    cdf, offsets, guide, counts = table
    off = offsets.take(sizes)
    uq = (u * 2.0**31).astype(np.uint32)  # exact products, truncated to their floor
    pos = np.multiply(uq, sizes - 1, dtype=np.intp)  # < 2^47
    pos >>= 31
    pos += off
    rel = guide.take(pos)
    np.add(off, rel, out=pos)
    walked = moving = np.flatnonzero(cdf.take(pos) <= uq)
    while moving.size:
        pos[moving] += 1
        moving = moving[cdf[pos[moving]] <= uq[moving]]
    stop = pos[walked]  # on these short index arrays plain indexing is quicker than take
    rel[walked] = stop - off[walked]
    tie = walked[cdf[stop - 1] == uq[walked]]
    if tie.size:
        tie_sizes = sizes[tie]
        for m in np.unique(tie_sizes):
            at = tie[tie_sizes == m]
            rel[at] = np.searchsorted(_split_cdf(counts, int(m)), u[at], side="right")
    rel += 1
    return rel.astype(sizes.dtype, copy=False)


def _size_process_one_sided(table, tolls, n, batch, rng) -> np.ndarray:
    costs = np.zeros(batch)
    sizes = np.full(batch, n, dtype=np.min_scalar_type(n))  # 8- and 16-bit keys sort stably by radix
    alive = np.arange(batch)  # intp: it indexes the level arrays, which would convert narrower ids each time
    while alive.size:
        sz = sizes[alive]
        costs[alive] += tolls.take(sz)
        order = np.argsort(sz, kind="stable")
        sizes[alive[order]] = _draw_splits(table, sz[order], rng.random(alive.size))
        alive = alive.compress(sizes[alive] > 1)
    return costs + tolls[1]


def _size_process_two_sided(table, tolls, n, batch, rng) -> np.ndarray:
    """Costs of ``batch`` destructions of size n >= 2, a level of components at a time.

    A level adds its tolls in array order, then deals one uniform per
    component in stable size order.  Size 2 sorts first and always splits
    1 + 1; the rest keep their children of size > 1, root sides first.
    A sample with c components at one level and c' at the next has made
    2c - c' pieces of size 1, each paying ``tolls[1]``.
    """
    t1 = tolls[1]
    costs = np.zeros(batch)
    sid = np.arange(batch, dtype=np.uint16)  # a shard holds at most SHARD_SIZE samples
    sz = np.full(batch, n, dtype=np.min_scalar_type(n))  # 8- and 16-bit keys sort stably by radix
    count = np.ones(batch, dtype=np.int64)
    while sid.size:
        costs += np.bincount(sid, weights=tolls.take(sz), minlength=batch)
        order = np.flatnonzero(sz > 2)
        rng.random(sid.size - order.size)  # the uniforms dealt to size 2, which needs none
        u = rng.random(order.size)
        order = order.take(np.argsort(sz.take(order), kind="stable"))
        sid, sz = sid.take(order), sz.take(order)
        del order
        left = _draw_splits(table, sz, u)
        del u
        right = sz - left
        keep_left, keep_right = left > 1, right > 1
        sid = np.concatenate([sid.compress(keep_left), sid.compress(keep_right)])
        sz = np.concatenate([left.compress(keep_left), right.compress(keep_right)])
        if t1 != 0.0:
            count, last = np.bincount(sid, minlength=batch), count
            costs += t1 * (2 * last - count)
    return costs


# ---------------------------------------------------------------------------
# Explicit engine: a batch of real trees, cut as records
# ---------------------------------------------------------------------------


def _offspring(spec: FamilySpec, n: int, batch: int, rng: np.random.Generator) -> np.ndarray:
    """``batch`` offspring vectors c in N^n with sum n - 1, one per row, as int32.

    A tree weighs the product of phi_{c_v} over its vertices, so given
    sum(c) = n - 1 the vector has a law proportional to that product
    (alpha0 and beta scale every size-n tree alike):

        A  prod 1/c_i!                Multinomial(n - 1; 1/n, ..., 1/n)
        B  prod C(d, c_i)             a uniform (n-1)-subset of the d*n child slots
        C  prod (gamma)_{c_i} / c_i!  Dirichlet-multinomial(n - 1; gamma, ..., gamma),
                                      a uniform composition at gamma = 1 (ordered trees)
    """
    if spec.kind == "A":  # each of the n - 1 children picks one of n parents
        picks = rng.integers(0, n, size=(batch, n - 1))
        picks += n * np.arange(batch)[:, None]
        c = np.bincount(picks.ravel(), minlength=batch * n).reshape(batch, n)
    elif spec.kind == "B":
        c = rng.multivariate_hypergeometric(np.full(n, spec.d), n - 1, size=batch, method="count")
    else:
        c = rng.multinomial(n - 1, rng.dirichlet(np.full(n, float(spec.gamma)), size=batch))
    return c.astype(np.int32)


def _parents(c: np.ndarray) -> np.ndarray:
    """Preorder parent arrays (n, batch) of a batch of offspring vectors (batch, n).

    The walk sum_{j<=i} (c_j - 1) of a row ends at -1, so exactly one
    rotation stays >= 0 until its last step (the cycle lemma; Devroye
    2012): read from just past the walk's first minimum, the row is the
    preorder offspring counts of a tree, each tree reached by n equally
    likely vectors.  One pass over the positions with a stack per tree
    of the vertices that still have open child slots: vertex i hangs
    below the top one, and its count is read from its row in place.
    Row 0 (the root) is left 0.
    """
    batch, n = c.shape
    cols = np.arange(batch)
    row = cols * n
    start = np.argmin(np.cumsum(c - 1, axis=1, dtype=c.dtype), axis=1) + 1
    parent = np.zeros((n, batch), dtype=np.int32)
    stack = np.zeros(n * batch, dtype=np.int32)  # level h of tree b at h * batch + b; the root at level 0
    open_slots = np.empty(n * batch, dtype=np.int32)  # vertex i's row written when the pass reaches it
    open_slots[:batch] = c.take(row + start % n)
    height = np.ones(batch, dtype=np.intp)
    for i in range(1, n):
        top = stack[(height - 1) * batch + cols]
        parent[i] = top
        at = top * batch + cols
        open_slots[at] -= 1
        height -= open_slots[at] == 0
        kids = open_slots[i * batch : (i + 1) * batch] = c.take(row + (start + i) % n)
        stack[height * batch + cols] = i  # kept only when i has children of its own
        height += kids > 0
    return parent


def _cut_records(parent: np.ndarray, order: np.ndarray, tolls: np.ndarray, one_sided: bool):
    """Cut costs and first-cut root sizes of a batch of trees cut in ``order``.

    ``parent`` is (n, batch) and ``order[j]`` the lower vertices of the
    j-th edges cut.  Adding the edges back from the last cut to the
    first, each edge joins the two components it split, so the merged
    size is the size of the component it was cut in.  A union-find over
    the vertex-major flattening (Tarjan 1975) tracks the components:
    ``link[x] == x`` marks a top, which holds its component's size.
    Two-sided destruction pays toll(merged) for every edge; one-sided
    pays it only for the records, the edges whose merged component holds
    the root: its top is vertex 0, index < batch.  The size-1 charges
    are left to the caller.  The first cut's root side is the tree less
    the lower vertex's subtree, the last merge's other half.

    Sizes stay in int32 and each edge's two ends are formed when it is
    added back, so the batch holds 20 B per vertex; ``link`` and the
    indices it is gathered at stay intp, which the finds index fastest.
    """
    n, batch = parent.shape
    cols = np.arange(batch)
    up = parent.reshape(-1)
    link = np.arange(n * batch)
    size = np.ones(n * batch, dtype=np.int32)
    cost = np.zeros(batch)
    root_side = np.zeros(batch, dtype=np.int32)
    for j in range(n - 2, -1, -1):
        lower = order[j] * batch + cols  # int32 products: see _EXPLICIT_CELLS
        at = up.take(lower) * batch + cols  # find by path halving: each visited vertex skips to its grandparent
        moving = np.flatnonzero(link[at] != at)
        while moving.size:
            grand = link[link[at[moving]]]
            link[at[moving]] = grand
            at[moving] = grand
            moving = moving[link[grand] != grand]
        root_side = size[at]
        merged = root_side + size[lower]
        size[at] = merged
        link[lower] = at  # the lower vertex tops its own component while its edge is missing
        cost += np.where(at < batch, tolls[merged], 0.0) if one_sided else tolls[merged]
    return cost, root_side


def _explicit_shard(spec: FamilySpec, tolls: np.ndarray, n: int, one_sided: bool, batch: int, rng: np.random.Generator):
    """Total costs and first-cut root sizes of ``batch`` explicit destructions.

    ``tolls`` is ``TollSpec.float_values(n)``: t[1] is the size-1 cost,
    paid once one-sided (the root) and n times two-sided.  The cut order
    is a uniform permutation of each tree's n - 1 edges.
    """
    step = max(1, _EXPLICIT_CELLS // n)
    parts = []
    for sub in (min(step, batch - start) for start in range(0, batch, step)):
        parent = _parents(_offspring(spec, n, sub, rng))
        order = rng.permuted(np.repeat(np.arange(1, n, dtype=np.int32), sub).reshape(n - 1, sub), axis=0)
        parts.append(_cut_records(parent, order, tolls, one_sided))
    cost, root_side = (np.concatenate(part) for part in zip(*parts))
    return cost + (1 if one_sided else n) * tolls[1], root_side


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def _map_shards(
    shard_fn: Callable[[np.random.Generator, int], T], seed: int, samples: int, workers: int = 1
) -> List[T]:
    """``shard_fn(rng, batch)`` of every shard, in shard order.

    The shards are SHARD_SIZE samples each, then the rest; shard i draws
    from its own Philox stream, so the results do not depend on
    ``workers``.  The pool starts at most one thread per shard and per
    CPU, however many ``workers`` are asked for.
    """
    shards = [(i, min(SHARD_SIZE, samples - i * SHARD_SIZE)) for i in range((samples + SHARD_SIZE - 1) // SHARD_SIZE)]

    def run(item: Tuple[int, int]) -> T:
        shard, batch = item
        return shard_fn(_shard_rng(seed, shard), batch)

    with ThreadPoolExecutor(max_workers=min(workers, len(shards), os.cpu_count() or 1)) as pool:
        return list(pool.map(run, shards))


def _power_sums(costs: np.ndarray, powers: int) -> np.ndarray:
    with np.errstate(over="ignore"):  # an overflow is reported once, by _means_and_errors
        return np.array([np.sum(costs**j) for j in range(1, powers + 1)])


def _means_and_errors(
    partials: Sequence[np.ndarray], count: int, s_max: int
) -> Tuple[List[float], List[Optional[float]]]:
    """Means of the powers 1..s_max of the cost and their standard errors.

    ``partials`` are per-shard sums of the powers 1..2*s_max, added in
    shard order.  Raises ConfigError if a sum is not finite, naming the
    first power that overflows and the largest s_max that needs none of
    them, if there is one.
    """
    with np.errstate(over="ignore"):
        totals = sum(partials, np.zeros(2 * s_max))
    if not np.isfinite(totals).all():
        power = int(np.flatnonzero(~np.isfinite(totals))[0]) + 1
        overflow = f"the sum of the cost to the power {power} over the samples overflows float64"
        if power <= 2:
            raise ConfigError(
                f"s_max = {s_max} is not the cause: {overflow}, and every s_max needs powers 1 and 2; "
                "use a smaller toll or n"
            )
        raise ConfigError(f"s_max = {s_max} is too large: {overflow}; s_max <= {(power - 1) // 2} avoids it")
    means = totals / count
    errors = []
    for j in range(1, s_max + 1):
        if count < 2:
            errors.append(None)
            continue
        var = max(0.0, (totals[2 * j - 1] - count * means[j - 1] ** 2) / (count - 1))
        errors.append(math.sqrt(var / count))
    return [float(m) for m in means[:s_max]], errors


def run_experiment(config: ExperimentConfig) -> SampleStats:
    """Run a full experiment; deterministic given (config, seed).

    An explicit run also counts the first cut's root sides, summed over
    the shards in shard order.
    """
    if config.variant not in (ONE_SIDED, TWO_SIDED):
        raise ConfigError(f"unknown variant {config.variant!r}")
    if config.engine not in (SIZE_PROCESS, EXPLICIT):
        raise ConfigError(f"unknown engine {config.engine!r}")
    fields = {}
    for name, low in (("samples", 1), ("n", 1), ("seed", 0), ("workers", 1), ("s_max", 1)):
        value = getattr(config, name)
        try:
            fields[name] = operator.index(value)
        except TypeError:
            raise ConfigError(f"{name} must be an integer, got {value!r}") from None
        if value < low:
            raise ConfigError(f"{name} must be >= {low}, got {value}")
    config = replace(config, **fields)
    tolls = TollSpec(alpha=config.alpha, size_one_cost=config.size_one_cost).float_values(config.n)
    powers = 2 * config.s_max

    shard: Callable[[np.random.Generator, int], Tuple[np.ndarray, Optional[np.ndarray]]]
    if config.engine == SIZE_PROCESS:
        table = _cumulative_rows(compute_counts(config.family, config.n, exact_cutoff=1), config.n)
        engine = _size_process_one_sided if config.variant == ONE_SIDED else _size_process_two_sided

        def shard(rng: np.random.Generator, batch: int):
            if config.n == 1:  # a lone vertex is never cut
                return _power_sums(np.zeros(batch) + tolls[1], powers), None
            return _power_sums(engine(table, tolls, config.n, batch, rng), powers), None

    else:
        one_sided = config.variant == ONE_SIDED

        def shard(rng: np.random.Generator, batch: int):
            cost, root_side = _explicit_shard(config.family, tolls, config.n, one_sided, batch, rng)
            return _power_sums(cost, powers), np.bincount(root_side, minlength=config.n)

    partials, first_cuts = zip(*_map_shards(shard, config.seed, config.samples, config.workers))
    estimates, errors = _means_and_errors(partials, config.samples, config.s_max)
    first_cut = None if config.engine == SIZE_PROCESS else tuple(sum(first_cuts).tolist())
    return SampleStats(count=config.samples, moment_estimates=estimates, standard_errors=errors, first_cut=first_cut)
