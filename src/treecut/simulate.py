"""Monte Carlo engines for the destruction process.

Two engines with very different trust models:

* ``size_process`` draws only component sizes from the splitting law
  p_{n,k}.  Because cutting a random tree of the family leaves both
  components random trees of the same family, this is exact in law and
  it is the fast path (no trees are ever built).  The cumulative split
  rows of every size 2..n sit back to back in one float64 array, next
  to a guide index (Chen & Asau 1974): for bucket b of row m, how many
  entries are <= b/(m-1).  A level of draws starts each search at its
  bucket's guide entry and walks the few steps left, all sizes at once;
  the result equals a binary search of the row, draw for draw.  The
  table costs 8 B + 2 B per (m, k) entry: about 20 MB at n = 2000 and
  0.5 GB at n = 10^4.
* ``explicit`` builds actual trees and literally cuts them, a shard at
  a time; it exists to *test* the size-process assumption, for every
  family, and is capped at EXPLICIT_N_MAX vertices.  Each tree starts
  as an offspring vector c with sum n - 1 drawn from the family's law
  given that sum (Multinomial for kind A, a uniform subset of the d*n
  child slots for kind B, Dirichlet-multinomial for kind C), rotated by
  the cycle lemma into its preorder Lukasiewicz word (Devroye 2012);
  one stack pass over the n positions turns the batch's words into
  parent arrays.  Destruction draws a uniform order of the n - 1 edges
  and adds the edges back from the last cut to the first with a
  component label per vertex: each edge's merged size is the size of
  the component it was cut in.  Two-sided cost is the sum of their
  tolls plus n * t1; one-sided counts only the records, the edges whose
  merged component holds the root (Janson 2006), plus t1.

Reproducibility contract: an experiment is deterministic given
(config, seed) regardless of worker count.  Samples are processed in
fixed shards of SHARD_SIZE; shard i uses a Philox generator seeded with
SeedSequence(entropy=seed, spawn_key=(i,)), and per-shard partial sums
are combined in shard order.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple, Optional, Tuple, TypeVar

import numpy as np

from .counts import WeightedCounts, compute_counts, _prob_row_float
from .errors import ConfigError
from .family import FamilySpec
from .moments import ONE_SIDED, TWO_SIDED, TollSpec

SHARD_SIZE = 4096
EXPLICIT_N_MAX = 64

SIZE_PROCESS = "size_process"
EXPLICIT = "explicit"

T = TypeVar("T")


@dataclass(frozen=True)
class SampleStats:
    """Aggregated raw-moment estimates from one experiment."""

    count: int
    moment_estimates: List[float]
    standard_errors: List[float]
    seed: int


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
    cum = np.cumsum(_prob_row_float(counts, m))
    cum[-1] = 1.0
    return cum


class _SplitTable(NamedTuple):
    """Cumulative splitting laws of every size 2..n, back to back.

    Row m (its m - 1 entries) starts at ``offsets[m]`` of ``flat``.
    ``guide[offsets[m] + b]`` is the number of row-m entries <= b/(m-1),
    for b = 0..m-2: where in the row a search for u in
    [b/(m-1), (b+1)/(m-1)) can start.
    """

    flat: np.ndarray
    offsets: np.ndarray
    guide: np.ndarray


def _cumulative_rows(counts: WeightedCounts, n: int) -> _SplitTable:
    """The split table for all sizes 2 <= m <= n, filled row by row in place."""
    sizes = np.arange(n + 1, dtype=np.int64)
    offsets = (sizes - 1) * (sizes - 2) // 2  # rows 2..m-1 hold 1 + ... + (m-2) entries
    total = offsets[n] + n - 1
    flat = np.empty(total)
    # within-row positions run up to m - 1 <= n - 1
    guide = np.empty(total, dtype=np.uint16 if n <= 1 << 16 else np.uint32)
    for m in range(2, n + 1):
        row = flat[offsets[m] : offsets[m] + m - 1]
        row[:] = _split_cdf(counts, m)
        guide[offsets[m] : offsets[m] + m - 1] = np.searchsorted(row, np.arange(m - 1) / (m - 1), side="right")
    return _SplitTable(flat, offsets, guide)


def _draw_splits(table: _SplitTable, sizes: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Root-side sizes K for each (size, uniform) pair; ``sizes`` in any order.

    Equal to ``np.searchsorted(row_m, u, side="right") + 1`` for every u
    in [0, 1): the guide gives a start near the answer, and a walk up
    and down the row corrects it whatever the start, so the result does
    not depend on how u * (m - 1) rounds.  The last entry of a row is 1,
    so no walk up leaves its row; the walk down stops at the row start.
    """
    flat, offsets, guide = table
    off = offsets[sizes]
    bucket = np.minimum((u * (sizes - 1)).astype(np.int64), sizes - 2)
    pos = off + guide[off + bucket]
    moving = np.flatnonzero(flat[pos] <= u)
    while moving.size:
        pos[moving] += 1
        moving = moving[flat[pos[moving]] <= u[moving]]
    moving = np.flatnonzero((pos > off) & (flat[pos - 1] > u))
    while moving.size:
        pos[moving] -= 1
        at = pos[moving]
        moving = moving[(at > off[moving]) & (flat[at - 1] > u[moving])]
    return pos - off + 1


def _size_process_one_sided(table, tolls, t1, n, batch, rng) -> np.ndarray:
    costs = np.zeros(batch)
    if n == 1:
        return costs + t1
    key = np.min_scalar_type(n)  # 8- and 16-bit keys sort stably by radix
    sizes = np.full(batch, n, dtype=np.int64)
    alive = np.arange(batch)
    while alive.size:
        sz = sizes[alive]
        costs[alive] += tolls[sz]
        order = np.argsort(sz.astype(key), kind="stable")
        drawn = _draw_splits(table, sz[order], rng.random(alive.size))
        sizes[alive[order]] = drawn
        alive = alive[sizes[alive] > 1]
    return costs + t1


def _size_process_two_sided(table, tolls, t1, n, batch, rng) -> np.ndarray:
    costs = np.zeros(batch)
    if n == 1:
        return costs + t1
    key = np.min_scalar_type(n)
    sid = np.arange(batch, dtype=np.int64)
    sz = np.full(batch, n, dtype=np.int64)
    while sid.size:
        costs += np.bincount(sid, weights=tolls[sz], minlength=batch)
        order = np.argsort(sz.astype(key), kind="stable")
        sid = sid[order]
        sz = sz[order]
        left = _draw_splits(table, sz, rng.random(sid.size))
        new_sid = np.concatenate([sid, sid])
        new_sz = np.concatenate([left, sz - left])
        ones = new_sz == 1
        if t1 != 0.0:
            costs += t1 * np.bincount(new_sid[ones], minlength=batch)
        keep = ~ones
        sid = new_sid[keep]
        sz = new_sz[keep]
    return costs


# ---------------------------------------------------------------------------
# Explicit engine: a batch of real trees, cut as records
# ---------------------------------------------------------------------------


def _offspring(spec: FamilySpec, n: int, batch: int, rng: np.random.Generator) -> np.ndarray:
    """``batch`` offspring vectors c in N^n with sum n - 1, one per row.

    A tree weighs the product of phi_{c_v} over its vertices, so given
    sum(c) = n - 1 the vector has a law proportional to that product
    (alpha0 and beta scale every size-n tree alike):

        A  prod 1/c_i!                Multinomial(n - 1; 1/n, ..., 1/n)
        B  prod C(d, c_i)             a uniform (n-1)-subset of the d*n child slots
        C  prod (gamma)_{c_i} / c_i!  Dirichlet-multinomial(n - 1; gamma, ..., gamma),
                                      a uniform composition at gamma = 1 (ordered trees)
    """
    if spec.kind == "A":  # each of the n - 1 children picks one of n parents
        picks = rng.integers(0, n, size=(batch, n - 1)) + n * np.arange(batch)[:, None]
        return np.bincount(picks.ravel(), minlength=batch * n).reshape(batch, n)
    if spec.kind == "B":
        return rng.multivariate_hypergeometric(np.full(n, spec.d), n - 1, size=batch, method="count")
    return rng.multinomial(n - 1, rng.dirichlet(np.full(n, float(spec.gamma)), size=batch))


def _lukasiewicz(c: np.ndarray) -> np.ndarray:
    """Rotate each row to start just past the first minimum of its walk.

    The walk sum_{j<=i} (c_j - 1) ends at -1, so exactly one rotation
    stays >= 0 until its last step (the cycle lemma): the preorder
    offspring counts of a tree, each tree reached by n equally likely
    vectors.  Returned vertex-major: column b is row b's word.
    """
    n = c.shape[1]
    start = np.argmin(np.cumsum(c - 1, axis=1), axis=1) + 1
    return np.ascontiguousarray(np.take_along_axis(c, (start[:, None] + np.arange(n)) % n, axis=1).T)


def _parents(word: np.ndarray) -> np.ndarray:
    """Preorder parent arrays (n, batch) of a batch of Lukasiewicz words.

    One pass over the positions with a stack per column of the vertices
    that still have open child slots: vertex i hangs below the top one.
    Row 0 (the root) is left 0.
    """
    n, batch = word.shape
    cols = np.arange(batch)
    parent = np.zeros((n, batch), dtype=np.intp)
    stack = np.zeros(n * batch, dtype=np.intp)  # level h of column b at h * batch + b; the root at level 0
    open_slots = word.ravel().copy()
    height = np.ones(batch, dtype=np.intp)
    for i in range(1, n):
        top = stack[(height - 1) * batch + cols]
        parent[i] = top
        at = top * batch + cols
        open_slots[at] -= 1
        height -= open_slots[at] == 0
        stack[height * batch + cols] = i  # kept only when i has children of its own
        height += word[i] > 0
    return parent


def _cut_records(parent: np.ndarray, order: np.ndarray, tolls: np.ndarray, one_sided: bool):
    """Cut costs and first-cut root sizes of a batch of trees cut in ``order``.

    ``parent`` is (n, batch) and ``order[j]`` the lower vertices of the
    j-th edges cut.  Adding the edges back from the last cut to the
    first, each edge joins the two components it split, so the merged
    size is the size of the component it was cut in.  Two-sided
    destruction pays toll(merged) for every edge; one-sided pays it only
    for the records, the edges whose merged component holds the root.
    The size-1 charges are left to the caller.  The first cut's root side
    is the tree less the lower vertex's subtree, the last merge's other
    half.
    """
    n, batch = parent.shape
    cols = np.arange(batch)
    lower = order * batch + cols
    upper = np.take_along_axis(parent, order, axis=0) * batch + cols
    # each vertex's component, named by its top vertex; int8 holds n <= EXPLICIT_N_MAX
    top = np.repeat(np.arange(n, dtype=np.int8), batch).reshape(n, batch)
    size = np.ones(n * batch, dtype=np.intp)  # component sizes, kept at their top vertex
    cost = np.zeros(batch)
    root_side = np.zeros(batch, dtype=np.intp)
    for j in range(n - 2, -1, -1):
        v = order[j]  # the top of its own component while its edge is missing
        up = top.ravel()[upper[j]].astype(np.intp)
        at = up * batch + cols
        root_side = size[at]
        merged = root_side + size[lower[j]]
        size[at] = merged
        top += (top == v.astype(np.int8)).view(np.int8) * (up - v).astype(np.int8)
        cost += np.where(up == 0, tolls[merged], 0.0) if one_sided else tolls[merged]
    return cost, root_side


def _explicit_shard(spec: FamilySpec, tolls: np.ndarray, n: int, one_sided: bool, batch: int, rng: np.random.Generator):
    """Total costs and first-cut root sizes of ``batch`` explicit destructions.

    ``tolls`` is ``TollSpec.float_values(n)``: t[1] is the size-1 cost,
    paid once one-sided (the root) and n times two-sided.  The cut order
    is a uniform permutation of each tree's n - 1 edges.
    """
    parent = _parents(_lukasiewicz(_offspring(spec, n, batch, rng)))
    order = rng.permuted(np.repeat(np.arange(1, n), batch).reshape(n - 1, batch), axis=0)
    cost, root_side = _cut_records(parent, order, tolls, one_sided)
    return cost + (1 if one_sided else n) * tolls[1], root_side


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def _check_run(variant: str, engine: str, n: int, samples: int, seed: int) -> None:
    if variant not in (ONE_SIDED, TWO_SIDED):
        raise ConfigError(f"unknown variant {variant!r}")
    if engine not in (SIZE_PROCESS, EXPLICIT):
        raise ConfigError(f"unknown engine {engine!r}")
    if samples < 1:
        raise ConfigError(f"samples must be >= 1, got {samples}")
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if engine == EXPLICIT and n > EXPLICIT_N_MAX:
        raise ConfigError(f"explicit engine is capped at n = {EXPLICIT_N_MAX}")


def _map_shards(
    shard_fn: Callable[[np.random.Generator, int], T], seed: int, samples: int, workers: int = 1
) -> List[T]:
    """``shard_fn(rng, batch)`` of every shard, in shard order.

    The shards are SHARD_SIZE samples each, then the rest; shard i draws
    from its own Philox stream, so the results do not depend on
    ``workers``.
    """
    shards = [(i, min(SHARD_SIZE, samples - i * SHARD_SIZE)) for i in range((samples + SHARD_SIZE - 1) // SHARD_SIZE)]

    def run(item: Tuple[int, int]) -> T:
        shard, batch = item
        return shard_fn(_shard_rng(seed, shard), batch)

    if workers == 1:
        return [run(item) for item in shards]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, shards))


def _power_sums(costs: np.ndarray, powers: int) -> np.ndarray:
    return np.array([np.sum(costs**j) for j in range(1, powers + 1)])


def _means_and_errors(partials: List[np.ndarray], count: int, s_max: int) -> Tuple[List[float], List[float]]:
    """Means of the powers 1..s_max of the cost and their standard errors.

    ``partials`` are per-shard sums of the powers 1..2*s_max, added in
    shard order.
    """
    totals = np.zeros(2 * s_max)
    for part in partials:
        totals += part
    means = totals / count
    errors = []
    for j in range(1, s_max + 1):
        if count < 2:
            errors.append(float("nan"))
            continue
        var = max(0.0, (totals[2 * j - 1] - count * means[j - 1] ** 2) / (count - 1))
        errors.append(math.sqrt(var / count))
    return [float(m) for m in means[:s_max]], errors


def run_experiment(config: ExperimentConfig, counts: Optional[WeightedCounts] = None) -> SampleStats:
    """Run a full experiment; deterministic given (config, seed).

    ``counts`` may be supplied to reuse a table across experiments (only
    the size-process engine needs one).
    """
    _check_run(config.variant, config.engine, config.n, config.samples, config.seed)
    if config.workers < 1:
        raise ConfigError(f"workers must be >= 1, got {config.workers}")
    if config.s_max < 1:
        raise ConfigError(f"s_max must be >= 1, got {config.s_max}")
    toll = TollSpec(alpha=config.alpha, size_one_cost=config.size_one_cost)
    tolls = toll.float_values(config.n)

    costs: Callable[[np.random.Generator, int], np.ndarray]
    if config.engine == SIZE_PROCESS:
        if counts is None:
            counts = compute_counts(config.family, config.n, exact_cutoff=1)
        if counts.family != config.family:
            raise ConfigError(f"counts table is for {counts.family.label()}, the config for {config.family.label()}")
        if counts.n_max < config.n:
            raise ConfigError(f"counts table reaches n={counts.n_max}, need {config.n}")
        table = _cumulative_rows(counts, config.n)
        engine = _size_process_one_sided if config.variant == ONE_SIDED else _size_process_two_sided
        t1 = float(toll.t1)

        def costs(rng: np.random.Generator, batch: int) -> np.ndarray:
            return engine(table, tolls, t1, config.n, batch, rng)

    else:
        one_sided = config.variant == ONE_SIDED

        def costs(rng: np.random.Generator, batch: int) -> np.ndarray:
            return _explicit_shard(config.family, tolls, config.n, one_sided, batch, rng)[0]

    powers = 2 * config.s_max
    partials = _map_shards(
        lambda rng, batch: _power_sums(costs(rng, batch), powers), config.seed, config.samples, config.workers
    )
    estimates, errors = _means_and_errors(partials, config.samples, config.s_max)
    return SampleStats(count=config.samples, moment_estimates=estimates, standard_errors=errors, seed=config.seed)


@dataclass(frozen=True)
class CutSurvey:
    """First-cut histogram plus cost statistics from explicit destruction."""

    n: int
    variant: str
    count: int
    histogram: np.ndarray = field(repr=False)  # histogram[k] = #{first cut left root side of size k}
    cost_mean: float
    cost_se: float


def explicit_cut_survey(
    spec: FamilySpec,
    toll: TollSpec,
    n: int,
    variant: str,
    samples: int,
    seed: int,
) -> CutSurvey:
    """Destroy ``samples`` explicit trees, recording first-cut root sizes.

    The trees and cuts are those of ``run_experiment`` with the explicit
    engine and the same seed, and so are the cost mean and its standard
    error.
    """
    _check_run(variant, EXPLICIT, n, samples, seed)
    tolls = toll.float_values(n)

    def survey_shard(rng: np.random.Generator, batch: int):
        cost, root_side = _explicit_shard(spec, tolls, n, variant == ONE_SIDED, batch, rng)
        return _power_sums(cost, 2), np.bincount(root_side, minlength=n)

    sums, hists = zip(*_map_shards(survey_shard, seed, samples))
    (mean,), (se,) = _means_and_errors(sums, samples, 1)
    return CutSurvey(n=n, variant=variant, count=samples, histogram=sum(hists), cost_mean=mean, cost_se=se)
