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
* ``explicit`` samples an actual tree (uniform ordered tree by cycle
  lemma, uniform labeled rooted tree for the exponential family,
  conditioned branching-process rejection for d-ary) and literally cuts
  uniformly random edges.  It exists to *test* the size-process
  assumption, and is capped at EXPLICIT_N_MAX vertices.

Reproducibility contract: an experiment is deterministic given
(config, seed) regardless of worker count.  Samples are processed in
fixed shards of SHARD_SIZE; shard i uses a Philox generator seeded with
SeedSequence(entropy=seed, spawn_key=(i,)), and per-shard partial sums
are combined in shard order.
"""

from __future__ import annotations

import heapq
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple, Optional, Sequence

import numpy as np

from .counts import WeightedCounts, compute_counts, _prob_row_float
from .errors import ConfigError, UnsupportedFamily
from .family import FamilySpec
from .moments import ONE_SIDED, TWO_SIDED, TollSpec

SHARD_SIZE = 4096
EXPLICIT_N_MAX = 64

SIZE_PROCESS = "size_process"
EXPLICIT = "explicit"


@dataclass(frozen=True)
class DestructionSample:
    """One destruction run: its total cost and the first-cut split."""

    n: int
    variant: str
    total_cost: float
    first_cut_root_size: int  # 0 when n == 1 (nothing was cut)


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
# Explicit trees
# ---------------------------------------------------------------------------


def sample_tree_explicit(spec: FamilySpec, n: int, rng: np.random.Generator) -> List[List[int]]:
    """A random size-n tree of the family, as child lists rooted at node 0.

    Supported: kind A (uniform labeled rooted tree; the shape law does
    not depend on alpha0), kind C with alpha0 == alpha1 (uniform ordered
    tree), kind B (branching process conditioned on total size).
    """
    if not 1 <= n <= EXPLICIT_N_MAX:
        raise ConfigError(f"explicit sampling supports 1 <= n <= {EXPLICIT_N_MAX}, got {n}")
    if spec.kind == "A":
        return _sample_labeled_rooted(n, rng)
    if spec.kind == "C":
        if spec.alpha0 != spec.alpha1:
            raise UnsupportedFamily(
                "explicit sampling for kind C is implemented only for "
                "unweighted ordered trees (alpha0 == alpha1)"
            )
        return _sample_ordered(n, rng)
    return _sample_dary(spec.d, n, rng)


def _sample_ordered(n: int, rng: np.random.Generator) -> List[List[int]]:
    """Uniform ordered tree by the cycle lemma.

    A uniform arrangement of n-1 up-steps and n down-steps has exactly
    one rotation that stays nonnegative until the final step; starting
    just past the first minimum of the prefix sums finds it.  Dropping
    that final down-step leaves a uniform Dyck word, read as a DFS.
    """
    children: List[List[int]] = [[] for _ in range(n)]
    if n == 1:
        return children
    steps = np.full(2 * n - 1, -1, dtype=np.int8)
    steps[: n - 1] = 1
    steps = rng.permutation(steps)
    cut = int(np.argmin(np.cumsum(steps))) + 1
    word = np.concatenate([steps[cut:], steps[:cut]])[:-1]
    stack = [0]
    nxt = 1
    for step in word:
        if step == 1:
            children[stack[-1]].append(nxt)
            stack.append(nxt)
            nxt += 1
        else:
            stack.pop()
    return children


def _sample_labeled_rooted(n: int, rng: np.random.Generator) -> List[List[int]]:
    """Uniform random labeled rooted tree on n vertices (Pruefer decode)."""
    children: List[List[int]] = [[] for _ in range(n)]
    if n == 1:
        return children
    adj: List[List[int]] = [[] for _ in range(n)]
    if n == 2:
        adj[0].append(1)
        adj[1].append(0)
    else:
        seq = [int(v) for v in rng.integers(0, n, size=n - 2)]
        degree = [1] * n
        for v in seq:
            degree[v] += 1
        leaves = [i for i in range(n) if degree[i] == 1]
        heapq.heapify(leaves)
        for v in seq:
            leaf = heapq.heappop(leaves)
            adj[leaf].append(v)
            adj[v].append(leaf)
            degree[v] -= 1
            if degree[v] == 1:
                heapq.heappush(leaves, v)
        u, w = heapq.heappop(leaves), heapq.heappop(leaves)
        adj[u].append(w)
        adj[w].append(u)
    root = int(rng.integers(n))
    seen = [False] * n
    seen[root] = True
    stack = [root]
    for u in stack:  # grows while iterating: preorder sweep
        for w in adj[u]:
            if not seen[w]:
                seen[w] = True
                stack.append(w)
                children[u].append(w)
    return _relabel(children, root)


def _relabel(children: List[List[int]], root: int) -> List[List[int]]:
    """Renumber nodes so the root is 0 (preorder); shape is unchanged."""
    n = len(children)
    new_id = [-1] * n
    out: List[List[int]] = [[] for _ in range(n)]
    stack = [root]
    new_id[root] = 0
    count = 1
    while stack:
        u = stack.pop()
        for w in children[u]:
            new_id[w] = count
            count += 1
            out[new_id[u]].append(new_id[w])
            stack.append(w)
    return out


def _sample_dary(d: int, n: int, rng: np.random.Generator) -> List[List[int]]:
    """d-ary tree by rejection from Binomial(d, 1/d) branching.

    The size-tilted offspring law of the d-ary family is exactly
    Binomial(d, 1/d) (critical), independent of alpha0; conditioning on
    total size n by rejection is exact.
    """
    p = 1.0 / d
    while True:
        counts: List[int] = []
        total = 0  # offspring counts assigned so far
        pending = 1  # nodes still awaiting an offspring count
        while pending:
            c = int(rng.binomial(d, p))
            counts.append(c)
            total += 1
            pending += c - 1
            if total + pending > n:
                break
        if pending or total != n:
            continue
        children: List[List[int]] = [[] for _ in range(n)]
        queue = [0]
        nxt = 1
        for idx, u in enumerate(queue):
            for _ in range(counts[idx]):
                children[u].append(nxt)
                queue.append(nxt)
                nxt += 1
        return children


def destroy_tree(
    children: Sequence[Sequence[int]],
    variant: str,
    toll: TollSpec,
    rng: np.random.Generator,
) -> DestructionSample:
    """Literal destruction of a fixed tree by uniform random edge cuts."""
    if variant not in (ONE_SIDED, TWO_SIDED):
        raise ConfigError(f"unknown variant {variant!r}")
    n = len(children)
    t1 = float(toll.t1)
    toll_of = lambda m: float(m) ** toll.alpha if toll.override is None else float(toll.override[m - 1])
    if n == 1:
        return DestructionSample(n=1, variant=variant, total_cost=t1, first_cut_root_size=0)

    kids = [list(c) for c in children]
    if variant == ONE_SIDED:
        alive = [True] * n
        pool = list(range(1, n))  # an edge <-> its lower endpoint
        m = n
        cost = 0.0
        first = 0
        while m > 1:
            cost += toll_of(m)
            while True:
                idx = int(rng.integers(len(pool)))
                v = pool[idx]
                if alive[v]:
                    break
                pool[idx] = pool[-1]
                pool.pop()
            removed = 0
            stack = [v]
            while stack:
                u = stack.pop()
                alive[u] = False
                removed += 1
                stack.extend(w for w in kids[u] if alive[w])
            m -= removed
            if first == 0:
                first = m
        return DestructionSample(n=n, variant=variant, total_cost=cost + t1, first_cut_root_size=first)

    parent = [-1] * n
    for u, cs in enumerate(kids):
        for w in cs:
            parent[w] = u
    cost = 0.0
    first = 0
    work = [(0, _preorder(kids, 0, n))]
    while work:
        root, members = work.pop()
        m = len(members)
        if m == 1:
            cost += t1
            continue
        cost += toll_of(m)
        v = members[int(rng.integers(1, m))]  # members[0] is the component root
        kids[parent[v]].remove(v)
        sub = _preorder(kids, v, m)
        in_sub = set(sub)
        rest = [u for u in members if u not in in_sub]
        if first == 0:
            first = len(rest)
        work.append((root, rest))
        work.append((v, sub))
    return DestructionSample(n=n, variant=variant, total_cost=cost, first_cut_root_size=first)


def _preorder(kids: Sequence[Sequence[int]], root: int, cap: int) -> List[int]:
    out = [root]
    for u in out:
        out.extend(kids[u])
        if len(out) > cap:  # pragma: no cover - defensive
            raise RuntimeError("component larger than its bound")
    return out


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def _validate_config(config: ExperimentConfig) -> None:
    if config.variant not in (ONE_SIDED, TWO_SIDED):
        raise ConfigError(f"unknown variant {config.variant!r}")
    if config.engine not in (SIZE_PROCESS, EXPLICIT):
        raise ConfigError(f"unknown engine {config.engine!r}")
    if config.samples < 1:
        raise ConfigError(f"samples must be >= 1, got {config.samples}")
    if config.n < 1:
        raise ConfigError(f"n must be >= 1, got {config.n}")
    if config.workers < 1:
        raise ConfigError(f"workers must be >= 1, got {config.workers}")
    if config.s_max < 1:
        raise ConfigError(f"s_max must be >= 1, got {config.s_max}")
    if not config.alpha >= 0:
        raise ConfigError(f"alpha must be >= 0, got {config.alpha}")
    if config.engine == EXPLICIT and config.n > EXPLICIT_N_MAX:
        raise ConfigError(f"explicit engine is capped at n = {EXPLICIT_N_MAX}")


def _toll_for(config: ExperimentConfig) -> TollSpec:
    return TollSpec(alpha=config.alpha, size_one_cost=config.size_one_cost)


def run_experiment(config: ExperimentConfig, counts: Optional[WeightedCounts] = None) -> SampleStats:
    """Run a full experiment; deterministic given (config, seed).

    ``counts`` may be supplied to reuse a table across experiments (only
    the size-process engine needs one).
    """
    _validate_config(config)
    toll = _toll_for(config)
    t1 = float(toll.t1)

    shard_fn: Callable[[int, int], np.ndarray]
    if config.engine == SIZE_PROCESS:
        if counts is None:
            counts = compute_counts(config.family, config.n, exact_cutoff=1)
        if counts.family != config.family:
            raise ConfigError(f"counts table is for {counts.family.label()}, the config for {config.family.label()}")
        if counts.n_max < config.n:
            raise ConfigError(f"counts table reaches n={counts.n_max}, need {config.n}")
        table = _cumulative_rows(counts, config.n)
        tolls = toll.float_values(config.n)
        engine = _size_process_one_sided if config.variant == ONE_SIDED else _size_process_two_sided

        def shard_fn(shard: int, batch: int) -> np.ndarray:
            rng = _shard_rng(config.seed, shard)
            return engine(table, tolls, t1, config.n, batch, rng)

    else:
        spec = config.family
        # fail fast on unsupported parameterizations, before spawning work
        sample_tree_explicit(spec, min(config.n, 2), _shard_rng(config.seed, 0))

        def shard_fn(shard: int, batch: int) -> np.ndarray:
            rng = _shard_rng(config.seed, shard)
            out = np.empty(batch)
            for i in range(batch):
                tree = sample_tree_explicit(spec, config.n, rng)
                out[i] = destroy_tree(tree, config.variant, toll, rng).total_cost
            return out

    shards = [(i, min(SHARD_SIZE, config.samples - i * SHARD_SIZE)) for i in range((config.samples + SHARD_SIZE - 1) // SHARD_SIZE)]
    n_pows = 2 * config.s_max

    def shard_sums(args) -> np.ndarray:
        shard, batch = args
        costs = shard_fn(shard, batch)
        return np.array([np.sum(costs**j) for j in range(1, n_pows + 1)])

    if config.workers == 1:
        partials = [shard_sums(item) for item in shards]
    else:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            partials = list(pool.map(shard_sums, shards))

    totals = np.zeros(n_pows)
    for part in partials:  # fixed shard order => worker-count independent
        totals += part

    count = config.samples
    means = totals / count
    estimates = [float(means[j - 1]) for j in range(1, config.s_max + 1)]
    errors = []
    for j in range(1, config.s_max + 1):
        if count < 2:
            errors.append(float("nan"))
            continue
        var = max(0.0, (totals[2 * j - 1] - count * means[j - 1] ** 2) / (count - 1))
        errors.append(math.sqrt(var / count))
    return SampleStats(count=count, moment_estimates=estimates, standard_errors=errors, seed=config.seed)


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
    """Destroy ``samples`` explicit trees, recording first-cut root sizes."""
    if samples < 1:
        raise ConfigError("samples must be >= 1")
    rng = _shard_rng(seed, 0)
    hist = np.zeros(n, dtype=np.int64)
    total = 0.0
    total2 = 0.0
    for _ in range(samples):
        tree = sample_tree_explicit(spec, n, rng)
        sample = destroy_tree(tree, variant, toll, rng)
        hist[sample.first_cut_root_size] += 1
        total += sample.total_cost
        total2 += sample.total_cost**2
    mean = total / samples
    var = max(0.0, (total2 - samples * mean * mean) / (samples - 1)) if samples > 1 else float("nan")
    return CutSurvey(
        n=n,
        variant=variant,
        count=samples,
        histogram=hist,
        cost_mean=mean,
        cost_se=math.sqrt(var / samples) if samples > 1 else float("nan"),
    )
