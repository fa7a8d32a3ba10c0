"""Monte Carlo engines, the batched explicit engine and its per-tree oracle.

Claims covered:
    - the per-tree oracle samplers: the ordered-tree sampler is uniform
      (chi-square over all shapes), the labeled-tree sampler reproduces
      the weighted shape law, the d-ary rejection sampler yields the
      right sizes and arities
    - literal edge-cutting satisfies the boundary conventions and the
      two-sided alpha = 0 edge-count identity on every sample
    - the batched sampler draws every shape of size 5 with its family
      weight (chi-square; ordered, binary, ternary, Cayley, kind C with
      gamma = 1/3), and every family make_family accepts is supported
    - destruction as records: on hand-built trees the costs equal a
      literal cut in the same order, and the first cut's root side is n
      less the lower vertex's subtree
    - the first-cut root-size law matches the splitting probabilities
      (randomness preservation, chi-square)
    - the explicit engine's mean and second moment sit within 4 SE of
      the exact DP for five families and both variants at n = 30
    - the cut survey destroys the trees run_experiment destroys for the
      same seed
    - size-process and explicit engines agree with each other and with
      the exact DP within standard-error bounds
    - experiments are deterministic for a fixed seed regardless of
      worker count, and configs are validated
    - the largest uniform below 1 still splits off a nonempty side
    - the guide-table draw equals a binary search of the cumulative row
      on every row entry and its float neighbours
    - fixed-seed results stay the values recorded for each engine
"""

import dataclasses
import heapq
import math
from collections import Counter
from typing import List, Sequence

import numpy as np
import pytest
from scipy.stats import chi2

from treecut.bruteforce import enumerate_trees, tree_weight
from treecut.counts import compute_counts, split_distribution
from treecut.errors import ConfigError
from treecut.family import binary, cayley, make_family, ordered
from treecut.moments import ONE_SIDED, TWO_SIDED, TollSpec, one_sided_moments, two_sided_moments
from treecut.simulate import (
    EXPLICIT,
    EXPLICIT_N_MAX,
    ExperimentConfig,
    SampleStats,
    _cumulative_rows,
    _cut_records,
    _draw_splits,
    _explicit_shard,
    _lukasiewicz,
    _offspring,
    _parents,
    _shard_rng,
    _split_cdf,
    explicit_cut_survey,
    run_experiment,
)

SEED = 99173


def _shape(children, u=0):
    return tuple(_shape(children, w) for w in children[u])


# ---------------------------------------------------------------------------
# One-tree-at-a-time oracles
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class DestructionSample:
    """One destruction run: its total cost and the first-cut split."""

    n: int
    variant: str
    total_cost: float
    first_cut_root_size: int  # 0 when n == 1 (nothing was cut)


def sample_tree_explicit(spec, n, rng) -> List[List[int]]:
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
            raise NotImplementedError(
                "the oracle samples kind C only as unweighted ordered trees (alpha0 == alpha1)"
            )
        return _sample_ordered(n, rng)
    return _sample_dary(spec.d, n, rng)


def _sample_ordered(n, rng) -> List[List[int]]:
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


def _sample_labeled_rooted(n, rng) -> List[List[int]]:
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


def _relabel(children, root) -> List[List[int]]:
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


def _sample_dary(d, n, rng) -> List[List[int]]:
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


def destroy_tree(children: Sequence[Sequence[int]], variant, toll, rng) -> DestructionSample:
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
    work = [(0, _preorder(kids, 0))]
    while work:
        root, members = work.pop()
        m = len(members)
        if m == 1:
            cost += t1
            continue
        cost += toll_of(m)
        v = members[int(rng.integers(1, m))]  # members[0] is the component root
        kids[parent[v]].remove(v)
        sub = _preorder(kids, v)
        in_sub = set(sub)
        rest = [u for u in members if u not in in_sub]
        if first == 0:
            first = len(rest)
        work.append((root, rest))
        work.append((v, sub))
    return DestructionSample(n=n, variant=variant, total_cost=cost, first_cut_root_size=first)


def _preorder(kids, root) -> List[int]:
    out = [root]
    for u in out:
        out.extend(kids[u])
    return out


def simulate_size_process(counts, toll, n, variant, rng):
    """One size-process sample, one draw at a time: the batched engine's oracle."""
    t1 = float(toll.t1)
    if n == 1:
        return DestructionSample(n=n, variant=variant, total_cost=t1, first_cut_root_size=0)
    toll_of = lambda m: float(m) ** toll.alpha if toll.override is None else float(toll.override[m - 1])

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


def test_ordered_sampler_uniform_n4():
    rng = _shard_rng(SEED, 0)
    draws = 20_000
    histogram = Counter(_shape(sample_tree_explicit(ordered(), 4, rng)) for _ in range(draws))
    assert len(histogram) == 5  # Catalan(3)
    p = _chi2_p(list(histogram.values()), [1 / 5] * 5, draws)
    assert p > 1e-3


def test_ordered_sampler_uniform_n3():
    rng = _shard_rng(SEED, 1)
    draws = 10_000
    histogram = Counter(_shape(sample_tree_explicit(ordered(), 3, rng)) for _ in range(draws))
    assert len(histogram) == 2
    assert _chi2_p(list(histogram.values()), [0.5, 0.5], draws) > 1e-3


def test_cayley_sampler_shape_law_n3():
    # chain has weight 1, star has weight phi_2 = 1/2: probabilities 2/3, 1/3
    rng = _shard_rng(SEED, 2)
    draws = 15_000
    histogram = Counter(_shape(sample_tree_explicit(cayley(), 3, rng)) for _ in range(draws))
    chain = histogram[((( ),),)] if ((( ),),) in histogram else histogram[(((),),)]
    star = histogram[((), ())]
    assert _chi2_p([chain, star], [2 / 3, 1 / 3], draws) > 1e-3


def test_cayley_n2_unique_shape():
    rng = _shard_rng(SEED, 3)
    assert _shape(sample_tree_explicit(cayley(), 2, rng)) == ((),)


def test_dary_sampler_valid():
    rng = _shard_rng(SEED, 4)
    for _ in range(100):
        children = sample_tree_explicit(binary(), 9, rng)
        assert len(children) == 9
        assert max(len(c) for c in children) <= 2
        reached = set()
        stack = [0]
        while stack:
            u = stack.pop()
            reached.add(u)
            stack.extend(children[u])
        assert reached == set(range(9))


def test_explicit_sampler_guards():
    # kind C with alpha0 != alpha1 has an explicit sampler; the size cap stays
    config = ExperimentConfig(
        family=make_family("C", 1, alpha1=2), variant=TWO_SIDED, alpha=1.0, n=5, samples=100, seed=SEED,
        engine=EXPLICIT,
    )
    assert run_experiment(config).count == 100
    with pytest.raises(ConfigError):
        run_experiment(dataclasses.replace(config, n=EXPLICIT_N_MAX + 1))
    with pytest.raises(ConfigError):
        explicit_cut_survey(ordered(), TollSpec(alpha=0), EXPLICIT_N_MAX + 1, ONE_SIDED, 10, SEED)
    with pytest.raises(ConfigError):
        explicit_cut_survey(ordered(), TollSpec(alpha=0), 5, ONE_SIDED, 10, -1)


def test_destroy_tree_boundaries():
    rng = _shard_rng(SEED, 6)
    single = destroy_tree([[]], ONE_SIDED, TollSpec(alpha=0), rng)
    assert single.total_cost == 1.0 and single.first_cut_root_size == 0
    # a 2-path at alpha = 0, one-sided: one cut (cost 1) then the root charge
    for _ in range(10):
        sample = destroy_tree([[1], []], ONE_SIDED, TollSpec(alpha=0), rng)
        assert sample.total_cost == 2.0
        assert sample.first_cut_root_size == 1


def test_two_sided_alpha0_edge_count_identity():
    rng = _shard_rng(SEED, 7)
    toll = TollSpec(alpha=0, size_one_cost=0)
    for n in (2, 5, 10):
        for _ in range(200):
            tree = sample_tree_explicit(ordered(), n, rng)
            sample = destroy_tree(tree, TWO_SIDED, toll, rng)
            assert sample.total_cost == n - 1
            assert 1 <= sample.first_cut_root_size <= n - 1


def test_first_cut_law_explicit():
    n, draws = 6, 20_000
    spec = ordered()
    survey = explicit_cut_survey(spec, TollSpec(alpha=0), n, ONE_SIDED, draws, SEED)
    counts = compute_counts(spec, n, exact_cutoff=n)
    probs = split_distribution(counts, n).as_array()
    assert _chi2_p(survey.histogram[1:], probs, draws) > 1e-3
    dp = float(one_sided_moments(counts, TollSpec(alpha=0), n, 1, mode="float").moment(n, 1))
    assert abs(survey.cost_mean - dp) <= 4 * survey.cost_se


def test_first_cut_law_binary():
    # exercises the tilted branching sampler against the exact law
    n, draws = 6, 10_000
    spec = binary()
    survey = explicit_cut_survey(spec, TollSpec(alpha=0), n, TWO_SIDED, draws, SEED)
    counts = compute_counts(spec, n, exact_cutoff=n)
    probs = split_distribution(counts, n).as_array()
    assert _chi2_p(survey.histogram[1:], probs, draws) > 1e-3


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
    n, draws = 5, 20_000
    parent = _parents(_lukasiewicz(_offspring(spec, n, draws, _shard_rng(SEED, 10))))
    assert np.all(parent[1:] < np.arange(1, n)[:, None])  # preorder: parents come first
    histogram = Counter(_shapes(parent))
    weights = {tree: tree_weight(spec, tree) for tree in enumerate_trees(n)}
    assert set(histogram) <= {tree for tree, w in weights.items() if w > 0}
    total = sum(weights.values())
    shapes = [tree for tree, w in weights.items() if w > 0]
    probs = [float(weights[tree] / total) for tree in shapes]
    assert _chi2_p([histogram[tree] for tree in shapes], probs, draws) > 1e-3


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
    [[0, 0, 1, 2], [0, 0, 0, 0], [0, 0, 1, 1, 0, 4], [0, 0, 1, 2, 2, 1, 0, 6, 6]],
    ids=["path4", "star4", "tree6", "tree9"],
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
        for n in (2, 5, 10, EXPLICIT_N_MAX):
            cost, root_side = _explicit_shard(spec, edges_only.float_values(n), n, False, 64, _shard_rng(SEED, n))
            assert np.all(cost == n - 1)
            assert np.all((root_side >= 1) & (root_side <= n - 1))
    # the survey cuts the trees run_experiment cuts for the same seed
    survey = explicit_cut_survey(cayley(), TollSpec(alpha=1), 10, TWO_SIDED, 5000, SEED)
    stats = run_experiment(
        ExperimentConfig(family=cayley(), variant=TWO_SIDED, alpha=1.0, n=10, samples=5000, seed=SEED, engine=EXPLICIT)
    )
    assert (survey.cost_mean, survey.cost_se) == (stats.moment_estimates[0], stats.standard_errors[0])


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
    # the guide start may land on either side of the answer; the walk must fix both
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
        seed=7,
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
        seed=7,
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
        seed=7,
    )


def test_counts_of_another_family_rejected():
    config = ExperimentConfig(family=ordered(), variant=ONE_SIDED, alpha=1.0, n=50, samples=100, seed=1)
    with pytest.raises(ConfigError):
        run_experiment(config, counts=compute_counts(cayley(), 50, exact_cutoff=1))


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
    size_stats = run_experiment(base, counts=counts)
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
        {"engine": EXPLICIT, "n": 65},
    ):
        with pytest.raises(ConfigError):
            run_experiment(ExperimentConfig(**{**good, **overrides}))


def test_sample_stats_errors_positive_when_random():
    stats = run_experiment(
        ExperimentConfig(family=ordered(), variant=ONE_SIDED, alpha=1.0, n=30, samples=2000, seed=SEED)
    )
    assert all(se > 0 for se in stats.standard_errors)
    assert stats.count == 2000
