"""Monte Carlo engines: the size process and the batched explicit engine.

Claims covered:
    - the one-pass parent arrays, read from each offspring vector's
      cycle-lemma start, equal those of a rotated copy walked by a stack
      (five families, n from 1 to 2000)
    - the batched sampler draws every shape of size 3, 4 and 5 with its
      family weight (chi-square; ordered, binary, ternary, Cayley, kind
      C with gamma = 1/3), and every family make_family accepts is
      supported
    - destruction as records: on hand-built trees the costs equal a
      literal cut in the same order, and the first cut's root side is n
      less the lower vertex's subtree; a single vertex, the 2-path and
      the two-sided alpha = 0 edge count hold on every explicit sample
    - the first-cut root-size law of an explicit run matches the
      splitting probabilities (randomness preservation, chi-square)
    - the explicit engine's mean and second moment sit within 4 SE of
      the exact DP for five families and both variants at n = 30, and
      its mean within 4 SE of the float DP at n = 2000
    - a shard cut in several sub-batches keeps the edge-count identity,
      the root-side range and worker independence; an explicit run's
      first-cut counts are the root sides of every sub-batch and shard,
      n of them summing to the samples, and the size process has none
    - size-process and explicit engines agree with each other and with
      the exact DP within standard-error bounds
    - a single vertex costs exactly t_1 in both engines and variants
    - experiments are deterministic for a fixed seed regardless of
      worker count, the thread pool never outgrows the shards, and
      configs are validated: an integer field given a float or a string
      raises ConfigError naming it, and numpy integers give the stats of
      Python ones
    - the largest uniform below 1 still splits off a nonempty side
    - the guide-table draw equals a binary search of the cumulative row
      on every row entry, every bucket edge and their float neighbours;
      the guide counts each row's 31-bit cells below each bucket, and
      no start of the bucket a draw computes lies past the answer
    - the split table takes 6 bytes per entry; a uniform in the same
      2^-31 cell as an entry it passes is searched again on the float64
      row, rebuilt once per size, and the top uniform stops in a row of
      size 2
    - the two-sided level arrays are narrow (16-bit sample ids and
      sizes, 32-bit table offsets, no uniform the draw does not use):
      one shard at n = 2000 stays below 3.5 MB traced, table excluded;
      an explicit sub-batch keeps int32 counts, vertex ids and sizes and
      stays below 28 B per vertex
    - fixed-seed results stay the values recorded for each engine, also
      two-sided with fractional tolls, where the order of additions
      shows, and the explicit golden's first-cut counts
    - power sums that overflow float64 raise ConfigError instead of
      reporting a standard error of 0, and a toll that overflows float64
      raises ConfigError naming the toll before any sampling
"""

import dataclasses
import math
import re
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chi2

from treecut import simulate
from treecut.bruteforce import enumerate_trees, tree_weight
from treecut.counts import compute_counts, split_distribution
from treecut.errors import ConfigError
from treecut.family import binary, cayley, make_family, ordered
from treecut.moments import ONE_SIDED, TWO_SIDED, TollSpec, one_sided_moments, two_sided_moments
from treecut.simulate import (
    EXPLICIT,
    SHARD_SIZE,
    SIZE_PROCESS,
    ExperimentConfig,
    SampleStats,
    _cumulative_rows,
    _cut_records,
    _draw_splits,
    _explicit_shard,
    _map_shards,
    _offspring,
    _parents,
    _shard_rng,
    _split_cdf,
    run_experiment,
)

SEED = 99173


def _shape(children, u=0):
    return tuple(_shape(children, w) for w in children[u])


# ---------------------------------------------------------------------------
# One-sample-at-a-time size-process oracle
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class DestructionSample:
    """One destruction run: its total cost and the first-cut split."""

    n: int
    variant: str
    total_cost: float
    first_cut_root_size: int  # 0 when n == 1 (nothing was cut)


def simulate_size_process(counts, toll, n, variant, rng):
    """One size-process sample, one draw at a time: the batched engine's oracle."""
    t1 = float(toll.t1)
    if n == 1:
        return DestructionSample(n=n, variant=variant, total_cost=t1, first_cut_root_size=0)
    toll_of = lambda m: float(m) ** toll.alpha

    def draw(m: int) -> int:
        return int(np.searchsorted(_split_cdf(counts, m), rng.random(), side="right")) + 1

    first = 0
    cost = 0.0
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            cost += t1
            continue
        cost += toll_of(m)
        k = draw(m)
        if first == 0:
            first = k
        if variant == ONE_SIDED:
            stack.append(k)
        else:
            stack.append(k)
            stack.append(m - k)
    return DestructionSample(n=n, variant=variant, total_cost=cost, first_cut_root_size=first)


def _chi2_p(observed, probs, total):
    expected = np.asarray(probs) * total
    stat = float(np.sum((np.asarray(observed) - expected) ** 2 / expected))
    return float(chi2.sf(stat, df=len(probs) - 1))


def test_explicit_sampler_guards():
    # kind C with alpha0 != alpha1 has an explicit sampler
    config = ExperimentConfig(
        family=make_family("C", 1, alpha1=2), variant=TWO_SIDED, alpha=1.0, n=5, samples=100, seed=SEED,
        engine=EXPLICIT,
    )
    assert run_experiment(config).count == 100
    with pytest.raises(ConfigError):
        run_experiment(dataclasses.replace(config, seed=-1))


def _explicit_cuts(spec, variant, n, samples):
    """An explicit alpha = 0 experiment with one moment, as criterion 4 runs it."""
    return run_experiment(
        ExperimentConfig(family=spec, variant=variant, alpha=0.0, n=n, samples=samples, seed=SEED, engine=EXPLICIT,
                         s_max=1)
    )


def test_first_cut_law_explicit():
    n, draws = 6, 20_000
    spec = ordered()
    stats = _explicit_cuts(spec, ONE_SIDED, n, draws)
    counts = compute_counts(spec, n, exact_cutoff=n)
    probs = split_distribution(counts, n).as_array()
    assert _chi2_p(stats.first_cut[1:], probs, draws) > 1e-3
    dp = float(one_sided_moments(counts, TollSpec(alpha=0), n, 1, mode="float").moment(n, 1))
    assert abs(stats.moment_estimates[0] - dp) <= 4 * stats.standard_errors[0]


def test_first_cut_law_binary():
    # exercises the binary offspring sampler against the exact law
    n, draws = 6, 10_000
    spec = binary()
    stats = _explicit_cuts(spec, TWO_SIDED, n, draws)
    counts = compute_counts(spec, n, exact_cutoff=n)
    probs = split_distribution(counts, n).as_array()
    assert _chi2_p(stats.first_cut[1:], probs, draws) > 1e-3


SHAPE_FAMILIES = [ordered(), binary(), make_family("B", 3, d=3), cayley(), make_family("C", 1, alpha1=2)]


def _shapes(parent):
    """Nested-tuple shapes of the trees in a (n, batch) preorder parent array."""
    n, batch = parent.shape
    out = []
    for b in range(batch):
        children = [[] for _ in range(n)]
        for v in range(1, n):
            children[parent[v, b]].append(v)
        out.append(_shape(children))
    return out


@pytest.mark.parametrize("spec", SHAPE_FAMILIES, ids=lambda s: s.label())
def test_batched_sampler_shape_law_n5(spec):
    # every shape of size 3, 4 and 5 (ordered: uniform; Cayley at n = 3: the path 2/3, the cherry 1/3)
    draws = 20_000
    for n in (3, 4, 5):
        parent = _parents(_offspring(spec, n, draws, _shard_rng(SEED, 10)))
        assert np.all(parent[1:] < np.arange(1, n)[:, None])  # preorder: parents come first
        histogram = Counter(_shapes(parent))
        weights = {tree: tree_weight(spec, tree) for tree in enumerate_trees(n)}
        assert set(histogram) <= {tree for tree, w in weights.items() if w > 0}
        total = sum(weights.values())
        shapes = [tree for tree, w in weights.items() if w > 0]
        probs = [float(weights[tree] / total) for tree in shapes]
        assert _chi2_p([histogram[tree] for tree in shapes], probs, draws) > 1e-3, n


def _parents_two_stage(c):
    """Preorder parent arrays (n, batch) from rotated copies of the offspring vectors: the oracle for _parents.

    Each row is first copied rotated to start just past the first minimum
    of its walk, vertex-major (column b is row b's preorder word), then
    the copy is walked with a stack per column.
    """
    batch, n = c.shape
    start = np.argmin(np.cumsum(c - 1, axis=1, dtype=c.dtype), axis=1) + 1
    word = np.ascontiguousarray(np.take_along_axis(c, (start[:, None] + np.arange(n)) % n, axis=1).T)
    cols = np.arange(batch)
    parent = np.zeros((n, batch), dtype=np.int32)
    stack = np.zeros(n * batch, dtype=np.int32)
    open_slots = word.ravel().copy()
    height = np.ones(batch, dtype=np.intp)
    for i in range(1, n):
        top = stack[(height - 1) * batch + cols]
        parent[i] = top
        at = top * batch + cols
        open_slots[at] -= 1
        height -= open_slots[at] == 0
        stack[height * batch + cols] = i
        height += word[i] > 0
    return parent


@pytest.mark.parametrize("spec", SHAPE_FAMILIES, ids=lambda s: s.label())
def test_parents_match_two_stage_oracle(spec):
    # one pass from the cycle-lemma start gives the parent arrays of the rotated copies
    for n in (1, 2, 3, 10, 257, 2000):
        c = _offspring(spec, n, 64, _shard_rng(SEED, n))
        parent = _parents(c)
        assert parent.dtype == np.int32
        np.testing.assert_array_equal(parent, _parents_two_stage(c))


def _cut_in_order(parent, order, alpha, one_sided):
    """Literal destruction of one tree, cutting the edges in ``order``: (cost, first-cut root side)."""
    n = len(parent)
    present = set(range(1, n))  # an edge <-> its lower endpoint

    def component(u):
        seen, stack = {u}, [u]
        while stack:
            x = stack.pop()
            near = [parent[x]] if x in present else []
            near += [w for w in present if parent[w] == x]
            for y in near:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return seen

    cost, first = 0.0, None
    for v in order:
        comp = component(v)
        if one_sided and 0 not in comp:
            present.discard(v)  # cut away with an earlier edge: never paid for
            continue
        cost += float(len(comp)) ** alpha
        present.discard(v)
        if first is None:
            first = len(component(0))
    return cost, first


def _subtree_size(parent, v):
    return 1 + sum(_subtree_size(parent, w) for w in range(v + 1, len(parent)) if parent[w] == v)


@pytest.mark.parametrize(
    "parent",
    [[0, 0, 1, 2], [0, 0, 0, 0], [0, 0, 1, 1, 0, 4], [0, 0, 1, 2, 2, 1, 0, 6, 6], [0, *range(19)]],
    ids=["path4", "star4", "tree6", "tree9", "path20"],  # a long path makes the finds deep
)
def test_cut_records_match_literal_cuts(parent):
    n = len(parent)
    rng = _shard_rng(SEED, 11)
    orders = [np.r_[v, rng.permutation([w for w in range(1, n) if w != v])] for v in range(1, n) for _ in range(3)]
    batch = len(orders)
    parents = np.repeat(np.array(parent)[:, None], batch, axis=1)
    order = np.array(orders).T
    tolls = TollSpec(alpha=1, size_one_cost=0).float_values(n)
    for one_sided in (False, True):
        cost, root_side = _cut_records(parents, order, tolls, one_sided)
        for b, seq in enumerate(orders):
            assert root_side[b] == n - _subtree_size(parent, seq[0])
            assert (cost[b], root_side[b]) == _cut_in_order(parent, seq, 1.0, one_sided)


def test_explicit_engine_boundaries():
    toll = TollSpec(alpha=0)
    for one_sided in (False, True):
        cost, root_side = _explicit_shard(ordered(), toll.float_values(1), 1, one_sided, 8, _shard_rng(SEED, 12))
        assert np.all(cost == 1.0) and np.all(root_side == 0)
    # a 2-path at alpha = 0, one-sided: one cut (cost 1) then the root charge
    cost, root_side = _explicit_shard(cayley(), toll.float_values(2), 2, True, 8, _shard_rng(SEED, 13))
    assert np.all(cost == 2.0) and np.all(root_side == 1)
    edges_only = TollSpec(alpha=0, size_one_cost=0)
    for spec in SHAPE_FAMILIES:
        for n in (2, 5, 10, 64):
            cost, root_side = _explicit_shard(spec, edges_only.float_values(n), n, False, 64, _shard_rng(SEED, n))
            assert np.all(cost == n - 1)
            assert np.all((root_side >= 1) & (root_side <= n - 1))


@pytest.mark.parametrize("variant", [ONE_SIDED, TWO_SIDED])
@pytest.mark.parametrize("spec", SHAPE_FAMILIES, ids=lambda s: s.label())
def test_explicit_moments_match_dp(spec, variant):
    n = 30
    stats = run_experiment(
        ExperimentConfig(family=spec, variant=variant, alpha=1.0, n=n, samples=20_000, seed=SEED, engine=EXPLICIT)
    )
    maker = one_sided_moments if variant == ONE_SIDED else two_sided_moments
    table = maker(compute_counts(spec, n, exact_cutoff=1), TollSpec(alpha=1), n, 2, mode="float")
    for s in (1, 2):
        assert abs(stats.moment_estimates[s - 1] - table.moment(n, s)) <= 4 * stats.standard_errors[s - 1]


@pytest.mark.parametrize("variant", [ONE_SIDED, TWO_SIDED])
@pytest.mark.parametrize("spec", [ordered(), cayley()], ids=lambda s: s.label())
def test_explicit_means_match_dp_large_n(spec, variant):
    n = 2000
    stats = run_experiment(
        ExperimentConfig(
            family=spec, variant=variant, alpha=1.0, n=n, samples=1024, seed=SEED, engine=EXPLICIT, s_max=1
        )
    )
    maker = one_sided_moments if variant == ONE_SIDED else two_sided_moments
    dp = maker(compute_counts(spec, n, exact_cutoff=1), TollSpec(alpha=1), n, 1, mode="float").moment(n, 1)
    assert abs(stats.moment_estimates[0] - dp) <= 4 * stats.standard_errors[0]


def test_explicit_sub_batches(monkeypatch):
    # 100 trees of n = 10 per sub-batch: a shard of 4096 is cut in 41 of them
    monkeypatch.setattr(simulate, "_EXPLICIT_CELLS", 1000)
    n = 10
    edges_only = TollSpec(alpha=0, size_one_cost=0)
    cost, root_side = _explicit_shard(ordered(), edges_only.float_values(n), n, False, 250, _shard_rng(SEED, 14))
    assert cost.shape == root_side.shape == (250,)
    assert np.all(cost == n - 1)
    assert np.all((root_side >= 1) & (root_side <= n - 1))
    config = ExperimentConfig(
        family=cayley(), variant=ONE_SIDED, alpha=1.0, n=n, samples=SHARD_SIZE + 300, seed=SEED, engine=EXPLICIT
    )
    stats = run_experiment(config)
    assert stats == run_experiment(dataclasses.replace(config, workers=2))  # first_cut included
    # the first-cut counts are the root sides of every sub-batch of both shards
    tolls = TollSpec(alpha=1).float_values(n)
    root_sides = [_explicit_shard(cayley(), tolls, n, True, batch, _shard_rng(SEED, i))[1]
                  for i, batch in enumerate((SHARD_SIZE, 300))]
    assert stats.first_cut == tuple(np.bincount(np.concatenate(root_sides), minlength=n).tolist())
    assert len(stats.first_cut) == n and sum(stats.first_cut) == stats.count
    assert run_experiment(dataclasses.replace(config, engine=SIZE_PROCESS)).first_cut is None


def test_size_process_single_samples():
    counts = compute_counts(ordered(), 10, exact_cutoff=10)
    rng = _shard_rng(SEED, 8)
    toll = TollSpec(alpha=0)
    seen = set()
    for _ in range(500):
        sample = simulate_size_process(counts, toll, 3, ONE_SIDED, rng)
        seen.add(sample.total_cost)
        assert sample.first_cut_root_size in (1, 2)
    assert seen == {2.0, 3.0}  # cut to 1 directly, or via 2
    one = simulate_size_process(counts, toll, 1, TWO_SIDED, rng)
    assert one.total_cost == 1.0 and one.first_cut_root_size == 0


@pytest.mark.parametrize("engine", [SIZE_PROCESS, EXPLICIT])
@pytest.mark.parametrize("variant", [ONE_SIDED, TWO_SIDED])
def test_single_vertex_costs_t1(engine, variant):
    # a lone vertex is never cut, so every sample costs exactly t_1
    for size_one_cost, t1 in ((None, 1.0), (0, 0.0), (2.5, 2.5)):
        config = ExperimentConfig(
            family=ordered(), variant=variant, alpha=1.0, n=1, samples=10, seed=SEED, engine=engine,
            size_one_cost=size_one_cost,
        )
        stats = run_experiment(config)
        assert stats.moment_estimates == [t1, t1 * t1] and stats.standard_errors == [0.0, 0.0]
        assert stats.first_cut == (None if engine == SIZE_PROCESS else (10,))  # nothing cut: all at size 0


class _TopUniform:
    """Generator stand-in whose every uniform is 1 - 2^-53, with a draw budget."""

    def __init__(self, budget):
        self.budget = budget

    def random(self):
        self.budget -= 1
        assert self.budget >= 0, "more draws than cuts"
        return np.nextafter(1.0, 0.0)


@pytest.mark.parametrize("spec", [ordered(), cayley()], ids=lambda s: s.label())
def test_top_uniform_splits_in_range(spec):
    # a cumulative row may add up to a few ulps below 1; u above it would draw K = m
    n = 200
    counts = compute_counts(spec, n, exact_cutoff=1)
    sizes = np.arange(2, n + 1)
    drawn = _draw_splits(_cumulative_rows(counts, n), sizes, np.full(sizes.size, np.nextafter(1.0, 0.0)))
    assert np.all((drawn >= 1) & (drawn <= sizes - 1))
    for m in range(2, n + 1):
        # two-sided destruction of size m makes exactly m - 1 cuts
        sample = simulate_size_process(counts, TollSpec(alpha=0), m, TWO_SIDED, _TopUniform(m - 1))
        assert 1 <= sample.first_cut_root_size <= m - 1


@pytest.mark.parametrize("spec", [ordered(), binary(), cayley()], ids=lambda s: s.label())
def test_draw_splits_equals_row_search(spec):
    # the walk from the guide start only moves up, so no start may lie past the answer
    n = 200
    counts = compute_counts(spec, n, exact_cutoff=1)
    table = _cumulative_rows(counts, n)
    top = np.nextafter(1.0, 0.0)
    for m in range(2, n + 1):
        cdf = _split_cdf(counts, m)
        u = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0), [0.0, top]])
        u = u[u < 1.0]
        expected = np.searchsorted(cdf, u, side="right") + 1
        np.testing.assert_array_equal(_draw_splits(table, np.full(u.size, m), u), expected)

        # guide[b] counts the cells whose bucket floor(cell * (m - 1) / 2^31) is below b
        cells = np.floor(cdf * 2.0**31).astype(np.int64)
        below = (cells * (m - 1) >> 31)[None, :] < np.arange(m - 1)[:, None]
        np.testing.assert_array_equal(table.guide[table.offsets[m] : table.offsets[m] + m - 1], below.sum(axis=1))

        # the bucket edges b/(m-1), the first 31-bit cells of each bucket, and their float neighbours
        edges = np.arange(m - 1) / (m - 1)
        firsts = -(-np.arange(m - 1) * 2**31 // (m - 1)) / 2.0**31
        u = np.concatenate([edges, firsts, *(np.nextafter(x, y) for x in (edges, firsts) for y in (-1.0, 1.0))])
        u = u[(u >= 0.0) & (u < 1.0)]
        answer = np.searchsorted(cdf, u, side="right")
        np.testing.assert_array_equal(_draw_splits(table, np.full(u.size, m), u), answer + 1)
        bucket = np.floor(u * 2.0**31).astype(np.int64) * (m - 1) >> 31  # as _draw_splits forms it
        assert np.all(table.guide[table.offsets[m] + bucket] <= answer), "a guide start passes the answer"

    n, draws = 2000, 100_000
    counts = compute_counts(spec, n, exact_cutoff=1)
    rng = _shard_rng(SEED, 9)
    sizes = rng.integers(2, n + 1, size=draws)
    u = rng.random(draws)
    expected = np.empty(draws, dtype=np.int64)
    for m in np.unique(sizes):
        at = sizes == m
        expected[at] = np.searchsorted(_split_cdf(counts, m), u[at], side="right") + 1
    np.testing.assert_array_equal(_draw_splits(_cumulative_rows(counts, n), sizes, u), expected)


def test_split_table_takes_six_bytes_per_entry():
    # a 31-bit fixed-point entry and a 16-bit guide start: 12 MB at n = 2000
    table = _cumulative_rows(compute_counts(ordered(), 2000, exact_cutoff=1), 2000)
    assert table.cdf.itemsize + table.guide.itemsize == 6
    assert table.cdf.nbytes + table.guide.nbytes + table.offsets.nbytes <= 12.1e6


def test_draw_splits_tie_searches_float_row(monkeypatch):
    # u just below an entry, in the same 2^-31 cell: the walk passes that entry, and only the float64
    # row, rebuilt once for the size, puts the draw back on it
    n, m = 200, 150
    counts = compute_counts(ordered(), n, exact_cutoff=1)
    table = _cumulative_rows(counts, n)
    cdf = _split_cdf(counts, m)
    inner = cdf[:-1][np.floor(cdf[:-1] * 2.0**31) != cdf[:-1] * 2.0**31]  # entries off a cell edge
    u = np.nextafter(inner, 0.0)
    assert np.array_equal(np.floor(u * 2.0**31), np.floor(inner * 2.0**31)), "u left the entry's cell"
    rebuilt = []
    monkeypatch.setattr(simulate, "_split_cdf", lambda c, size: rebuilt.append(size) or _split_cdf(c, size))
    drawn = _draw_splits(table, np.full(u.size, m), u)
    np.testing.assert_array_equal(drawn, np.searchsorted(cdf, u, side="right") + 1)
    assert rebuilt == [m]

    # the top uniform stops inside the shortest row, 2^31 > floor((1 - 2^-53) * 2^31), with no rebuild
    assert _draw_splits(table, np.array([2], dtype=np.uint8), np.array([np.nextafter(1.0, 0.0)])).tolist() == [1]
    assert rebuilt == [m]


def test_two_sided_level_arrays_are_narrow(monkeypatch):
    # 16-bit sample ids and sizes, 32-bit table offsets, and a draw that sees only the uniforms it uses;
    # its answers come back as the sizes' own type
    n = 2000
    table = _cumulative_rows(compute_counts(ordered(), n, exact_cutoff=1), n)
    assert (table.offsets.dtype, table.cdf.dtype, table.guide.dtype) == (np.int32, np.uint32, np.uint16)
    seen = set()

    def spy(table, sizes, u):
        drawn = _draw_splits(table, sizes, u)
        seen.add((sys._getframe(1).f_locals["sid"].dtype, sizes.dtype, drawn.dtype, u.size == sizes.size))
        return drawn

    monkeypatch.setattr(simulate, "_draw_splits", spy)
    simulate._size_process_two_sided(table, TollSpec(alpha=1).float_values(n), n, 256, _shard_rng(SEED, 15))
    u16 = np.dtype(np.uint16)
    assert seen == {(u16, u16, u16, True)}


def test_two_sided_shard_memory():
    # the level arrays of one shard, table excluded.  The largest level holds about 62k components, each
    # as a 16-bit id and size and its uniform, plus the draw's 32-bit offset and uniform, intp position
    # and 16-bit answer: 2.9 MB traced.  int64 ids and offsets, with each level's whole uniform array
    # and sort indices kept through the draw, take 4.6 MB.
    n = 2000
    table = _cumulative_rows(compute_counts(ordered(), n, exact_cutoff=1), n)
    tolls = TollSpec(alpha=1).float_values(n)
    simulate._size_process_two_sided(table, tolls, n, 16, _shard_rng(SEED, 16))  # lazy imports first
    rng = _shard_rng(1, 0)
    tracemalloc.start()
    try:
        simulate._size_process_two_sided(table, tolls, n, SHARD_SIZE, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5e6


def test_explicit_sub_batch_memory():
    # int32 offspring counts, vertex ids and sizes, with each edge's ends formed as it is added back: a
    # sub-batch peaks near 22 B per vertex, where intp arrays and stored edge ends take 50 B
    n, trees = 500, 1024
    tolls = TollSpec(alpha=1).float_values(n)
    tracemalloc.start()
    try:
        _explicit_shard(ordered(), tolls, n, False, trees, _shard_rng(SEED, 17))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 28 * n * trees
    rng = _shard_rng(SEED, 18)
    assert _offspring(ordered(), n, 4, rng).dtype == np.int32
    assert _parents(_offspring(cayley(), n, 4, rng)).dtype == np.int32


def test_fixed_seed_golden_stats():
    # size process: recorded with one binary search per distinct size; the guide-table draw must not
    # move them.  Explicit engine: recorded with the batched records engine.
    two = run_experiment(
        ExperimentConfig(
            family=ordered(), variant=TWO_SIDED, alpha=1.0, n=300, samples=5000, seed=7, s_max=3
        )
    )
    assert two == SampleStats(
        count=5000,
        moment_estimates=[9196.9354, 88465087.1014, 889852518434.5006],
        standard_errors=[27.864826567507894, 552626.4715168548, 8715554404.46094],
    )
    # two-sided with fractional tolls, recorded before the level step set size 2 apart: every partial
    # sum rounds, so these also fix the order in which a level adds its tolls and size-1 charges
    binary_two = run_experiment(
        ExperimentConfig(
            family=binary(), variant=TWO_SIDED, alpha=0.37, n=300, samples=5000, seed=7, s_max=3,
            size_one_cost=0.3,
        )
    )
    assert binary_two == SampleStats(
        count=5000,
        moment_estimates=[754.0051871128992, 569124.771542313, 430037186.8931373],
        standard_errors=[0.3467187803011434, 527.5609009481198, 603001.008154926],
    )
    ordered_two = run_experiment(
        ExperimentConfig(
            family=ordered(), variant=TWO_SIDED, alpha=0.5, n=300, samples=5000, seed=7, s_max=3,
            size_one_cost=0,
        )
    )
    assert ordered_two == SampleStats(
        count=5000,
        moment_estimates=[1176.344123693743, 1394677.364913374, 1666884989.821305],
        standard_errors=[1.4760790205032006, 3566.1653127630625, 6537771.747103579],
    )
    one = run_experiment(
        ExperimentConfig(
            family=cayley(), variant=ONE_SIDED, alpha=0.5, n=57, samples=5000, seed=7, size_one_cost=0
        )
    )
    assert one == SampleStats(
        count=5000,
        moment_estimates=[53.76265334290107, 3553.8239678893665],
        standard_errors=[0.36428938501593766, 46.18045810129504],
    )
    explicit = run_experiment(
        ExperimentConfig(
            family=cayley(), variant=TWO_SIDED, alpha=1.0, n=30, samples=5000, seed=7, engine=EXPLICIT
        )
    )
    assert explicit == SampleStats(
        count=5000,
        moment_estimates=[262.2686, 70087.2422],
        standard_errors=[0.5104280930509563, 279.8011249194849],
        first_cut=(
            0, 61, 52, 46, 40, 44, 43, 41, 34, 45, 24, 37, 43, 43, 46,
            40, 61, 60, 64, 72, 79, 87, 97, 102, 159, 192, 247, 448, 733, 1960,
        ),
    )


def test_overflowing_power_sums_raise():
    # cost^64 passes the float64 range at n = 2000; a NaN variance would report a standard error of 0
    for engine in (SIZE_PROCESS, EXPLICIT):
        config = ExperimentConfig(
            family=ordered(), variant=TWO_SIDED, alpha=1.0, n=2000, samples=10, seed=1, engine=engine, s_max=32
        )
        with pytest.raises(ConfigError, match="s_max = 32"):
            run_experiment(config)
        assert all(se > 0 for se in run_experiment(dataclasses.replace(config, s_max=28)).standard_errors)
    with pytest.raises(ConfigError, match="s_max = 1"):  # toll^2 overflows at alpha = 60
        run_experiment(dataclasses.replace(config, engine=EXPLICIT, alpha=60.0, s_max=1))


def test_overflowing_toll_raises():
    # 6^400 passes float64: the error names the toll, not the power sums that it would poison
    for engine in (SIZE_PROCESS, EXPLICIT):
        config = ExperimentConfig(family=ordered(), variant=TWO_SIDED, alpha=400.0, n=8, samples=10, seed=1, engine=engine)
        with pytest.raises(ConfigError, match=r"toll n\^400.0 passes the float64 range from n = 6"):
            run_experiment(config)


@pytest.mark.parametrize("alpha", [0.0, 1.0])
@pytest.mark.parametrize("variant", [ONE_SIDED, TWO_SIDED])
def test_engine_agreement(alpha, variant):
    # explicit trees and the size process share one law; compare means
    n, samples = 10, 100_000
    spec = ordered()
    counts = compute_counts(spec, n, exact_cutoff=n)
    base = ExperimentConfig(
        family=spec, variant=variant, alpha=alpha, n=n, samples=samples, seed=SEED
    )
    size_stats = run_experiment(base)
    explicit_stats = run_experiment(
        ExperimentConfig(
            family=spec, variant=variant, alpha=alpha, n=n, samples=samples,
            seed=SEED + 1, engine=EXPLICIT,
        )
    )
    se = math.hypot(size_stats.standard_errors[0], explicit_stats.standard_errors[0])
    gap = abs(size_stats.moment_estimates[0] - explicit_stats.moment_estimates[0])
    if se == 0.0:
        assert gap == 0.0  # deterministic case
    else:
        assert gap <= 4 * se
    # and both sit on the DP value
    maker = one_sided_moments if variant == ONE_SIDED else two_sided_moments
    dp = float(maker(counts, TollSpec(alpha=alpha), n, 1, mode="float").moment(n, 1))
    if se > 0:
        assert abs(size_stats.moment_estimates[0] - dp) <= 4 * size_stats.standard_errors[0]


def test_two_sided_alpha0_experiment_exact():
    spec = ordered()
    config = ExperimentConfig(
        family=spec, variant=TWO_SIDED, alpha=0.0, n=100, samples=5000,
        seed=SEED, size_one_cost=0,
    )
    stats = run_experiment(config)
    assert stats.moment_estimates[0] == 99.0
    assert stats.standard_errors[0] == 0.0
    default = run_experiment(
        ExperimentConfig(family=spec, variant=TWO_SIDED, alpha=0.0, n=100, samples=5000, seed=SEED)
    )
    assert default.moment_estimates[0] == 199.0  # 2n - 1 under the default boundary


def test_determinism_across_workers_and_replay():
    spec = ordered()
    base = dict(family=spec, variant=ONE_SIDED, alpha=1.0, n=50, samples=10_000, seed=SEED)
    first = run_experiment(ExperimentConfig(**base, workers=1))
    again = run_experiment(ExperimentConfig(**base, workers=1))
    wide = run_experiment(ExperimentConfig(**base, workers=4))
    assert first == again == wide
    other_seed = run_experiment(ExperimentConfig(**{**base, "seed": SEED + 1}))
    assert other_seed != first


def test_config_validation():
    spec = ordered()
    good = dict(family=spec, variant=ONE_SIDED, alpha=1.0, n=10, samples=10, seed=1)
    run_experiment(ExperimentConfig(**good))
    for overrides in (
        {"samples": 0},
        {"n": 0},
        {"workers": 0},
        {"variant": "bogus"},
        {"engine": "bogus"},
        {"alpha": -1.0},
        {"s_max": 0},
        {"seed": -1},
    ):
        with pytest.raises(ConfigError):
            run_experiment(ExperimentConfig(**{**good, **overrides}))
    # numpy integers pass, and give the stats of Python ones
    wide = {name: np.int64(good[name]) for name in ("n", "samples", "seed")}
    numpy_ints = ExperimentConfig(**{**good, **wide}, workers=np.int32(2), s_max=np.int32(2))
    assert run_experiment(numpy_ints) == run_experiment(ExperimentConfig(**good, workers=2))


@pytest.mark.parametrize("field, value", [("n", 5.0), ("samples", 10.5), ("seed", 1.5), ("workers", 2.0), ("s_max", "2")])
def test_config_integer_fields(field, value):
    # a float or a string is named as the field at fault, not left to numpy or SeedSequence to reject
    good = dict(family=ordered(), variant=TWO_SIDED, alpha=1.0, n=30, samples=100, seed=7, engine=EXPLICIT)
    with pytest.raises(ConfigError, match=re.escape(f"{field} must be an integer, got {value!r}")):
        run_experiment(ExperimentConfig(**{**good, field: value}))


def test_thread_pool_bounded_by_shards(monkeypatch):
    asked = []

    class InlinePool:
        """ThreadPoolExecutor stand-in: records its size, maps in the calling thread."""

        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(simulate, "ThreadPoolExecutor", InlinePool)
    batches = _map_shards(lambda rng, batch: batch, SEED, 2 * SHARD_SIZE + 5, workers=1000)
    assert batches == [SHARD_SIZE, SHARD_SIZE, 5]
    assert len(asked) == 1 and 1 <= asked[0] <= 3


def test_sample_stats_errors_positive_when_random():
    stats = run_experiment(
        ExperimentConfig(family=ordered(), variant=ONE_SIDED, alpha=1.0, n=30, samples=2000, seed=SEED)
    )
    assert all(se > 0 for se in stats.standard_errors)
    assert stats.count == 2000
