"""Monte Carlo engines and explicit tree samplers.

Claims covered:
    - the ordered-tree sampler is uniform (chi-square over all shapes)
    - the labeled-tree sampler reproduces the weighted shape law
    - the d-ary rejection sampler yields the right sizes and arities
    - literal edge-cutting satisfies the boundary conventions and the
      two-sided alpha = 0 edge-count identity on every sample
    - the first-cut root-size law matches the splitting probabilities
      (randomness preservation, chi-square)
    - size-process and explicit engines agree with each other and with
      the exact DP within standard-error bounds
    - experiments are deterministic for a fixed seed regardless of
      worker count, and configs are validated
    - the largest uniform below 1 still splits off a nonempty side
    - the guide-table draw equals a binary search of the cumulative row
      on every row entry and its float neighbours
    - fixed-seed results stay the values the per-size search gave
"""

import math
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chi2

from treecut.counts import compute_counts, split_distribution
from treecut.errors import ConfigError, UnsupportedFamily
from treecut.family import binary, cayley, make_family, ordered
from treecut.moments import ONE_SIDED, TWO_SIDED, TollSpec, one_sided_moments, two_sided_moments
from treecut.simulate import (
    EXPLICIT,
    DestructionSample,
    ExperimentConfig,
    SampleStats,
    _cumulative_rows,
    _draw_splits,
    _shard_rng,
    _split_cdf,
    destroy_tree,
    explicit_cut_survey,
    run_experiment,
    sample_tree_explicit,
)

SEED = 99173


def _shape(children, u=0):
    return tuple(_shape(children, w) for w in children[u])


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
    rng = _shard_rng(SEED, 5)
    with pytest.raises(UnsupportedFamily):
        sample_tree_explicit(make_family("C", 1, alpha1=2), 5, rng)
    with pytest.raises(ConfigError):
        sample_tree_explicit(ordered(), 65, rng)


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
    # recorded with one binary search per distinct size; the guide-table draw must not move them
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
