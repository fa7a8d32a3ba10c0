"""Normalization, coefficient fitting, and convergence reporting.

Claims covered:
    - normalized exact moments approach the limit values, and the
      approach is Cauchy-like (|norm(2n) - norm(n)| shrinks)
    - the alpha = 0 two-sided report is exact under both boundary
      conventions; estimate_mu fits mu = 1 (edges-only) and mu = 2
      (default) from the rational tables
    - mu-hat at alpha = 1/4 is stable under doubling n_max; the design
      matrix degenerates detectably near alpha = 1/2
    - delta fitting at alpha = 1/2 recovers the pinned n ln n
      coefficient in a free fit
    - family-independence gaps shrink along the grid
    - MissingShift fires when a shifted regime cannot be fitted
    - alpha = 1/2 +- 1e-9 normalizes as alpha = 1/2; mu is fitted on
      two-sided tables only
"""

import pytest

from treecut.analysis import (
    estimate_delta,
    estimate_mu,
    family_independence_check,
    fit_grid,
    normalize_moments,
)
from treecut.counts import compute_counts
from treecut.errors import ConfigError, IllConditioned, MissingShift
from treecut.family import binary, cayley, ordered, solve_constants
from treecut.limits import limit_moments_two_sided
from treecut.moments import TollSpec, one_sided_moments, two_sided_moments


@pytest.fixture(scope="module")
def ordered_counts():
    return compute_counts(ordered(), 2000, exact_cutoff=600)


@pytest.fixture(scope="module")
def cayley_counts():
    return compute_counts(cayley(), 2000, exact_cutoff=1)


@pytest.fixture(scope="module")
def ordered_constants():
    return solve_constants(ordered())


def test_degenerate_normalization(ordered_counts, ordered_constants):
    edges = two_sided_moments(ordered_counts, TollSpec(alpha=0, size_one_cost=0), 600, 2, mode="rational")
    report = normalize_moments(edges, ordered_constants, grid=[100, 200, 400])
    for row in report.series(1):
        assert row.limit == 1.0
        assert row.normalized == (row.n - 1) / row.n
    default = two_sided_moments(ordered_counts, TollSpec(alpha=0), 600, 2, mode="rational")
    report2 = normalize_moments(default, ordered_constants, grid=[100, 200, 400])
    for row in report2.series(1):
        assert row.limit == 2.0  # per-edge toll plus the size-1 charge
        assert row.normalized == (2 * row.n - 1) / row.n


def test_estimate_mu_exact_at_alpha0(ordered_counts):
    edges = two_sided_moments(ordered_counts, TollSpec(alpha=0, size_one_cost=0), 600, 1, mode="rational")
    assert estimate_mu(edges).value == pytest.approx(1.0, abs=1e-9)
    default = two_sided_moments(ordered_counts, TollSpec(alpha=0), 600, 1, mode="rational")
    assert estimate_mu(default).value == pytest.approx(2.0, abs=1e-9)


def test_estimate_mu_stability_quarter(ordered_counts):
    toll = TollSpec(alpha=0.25)
    small = two_sided_moments(ordered_counts, toll, 1000, 1, mode="float")
    large = two_sided_moments(ordered_counts, toll, 2000, 1, mode="float")
    fit_small, fit_large = estimate_mu(small), estimate_mu(large)
    # stable to 3 significant figures under doubling n_max
    assert abs(fit_small.value - fit_large.value) / fit_large.value < 5e-3
    assert fit_large.residual < 1e-4
    assert fit_large.stability < 5e-3


def test_estimate_mu_guards(ordered_counts):
    toll49 = TollSpec(alpha=0.49)
    table = two_sided_moments(ordered_counts, toll49, 2000, 1, mode="float")
    with pytest.raises(IllConditioned):
        estimate_mu(table)
    short = two_sided_moments(ordered_counts, TollSpec(alpha=0.25), 400, 1, mode="float")
    with pytest.raises(ConfigError):
        estimate_mu(short)
    high = two_sided_moments(ordered_counts, TollSpec(alpha=1), 600, 1, mode="float")
    with pytest.raises(ConfigError):
        estimate_mu(high)
    # the one-sided mean grows like n^(alpha+1/2) and has no linear term
    with pytest.raises(ConfigError):
        estimate_mu(one_sided_moments(ordered_counts, TollSpec(alpha=0.25), 2000, 1, mode="float"))


def test_missing_shift(ordered_counts, ordered_constants):
    short = two_sided_moments(ordered_counts, TollSpec(alpha=0.25), 400, 2, mode="float")
    with pytest.raises(MissingShift):
        normalize_moments(short, ordered_constants, grid=[100, 200, 400])
    # but an explicitly provided coefficient unblocks the report
    report = normalize_moments(short, ordered_constants, grid=[100, 200, 400], mu=3.147)
    assert report.fitted["mu"] == pytest.approx(3.147)


def test_below_half_centering_converges(ordered_counts, ordered_constants):
    toll = TollSpec(alpha=0.25)
    table = two_sided_moments(ordered_counts, toll, 2000, 2, mode="float")
    report = normalize_moments(table, ordered_constants, grid=[500, 1000, 2000])
    lm = limit_moments_two_sided(0.25, 2)
    last = report.series(1)[-1]
    assert last.limit == pytest.approx(lm.m[1], rel=1e-12)
    assert last.rel_error < 0.02
    assert report.series(2)[-1].rel_error < 0.05


def test_half_regime_report(ordered_constants):
    counts = compute_counts(ordered(), 4000, exact_cutoff=1)
    table = two_sided_moments(counts, TollSpec(alpha=0.5), 4000, 2, mode="float")
    fit = estimate_delta(table, ordered_constants)
    assert fit.free_coefficient == pytest.approx(fit.fixed_coefficient, rel=0.03)
    assert fit.stability < 0.05
    report = normalize_moments(table, ordered_constants, grid=[1000, 2000, 4000])
    twos = report.series(2)
    # centered second moments approach the limit from below here
    assert twos[-1].rel_error < twos[0].rel_error < 0.5
    ones = report.series(1)
    assert all(abs(row.normalized) < 0.02 for row in ones)  # m_1 = 0 after centering
    assert all(row.rel_error == abs(row.normalized) for row in ones)  # abs error at limit 0


def test_half_window_is_one_regime(ordered_counts, ordered_constants):
    # alpha within 1e-6 of 1/2 normalizes like alpha = 1/2, fitted delta included
    deltas = [
        normalize_moments(
            two_sided_moments(ordered_counts, TollSpec(alpha=alpha), 2000, 2, mode="float"), ordered_constants
        ).fitted["delta"]
        for alpha in (0.5 - 1e-9, 0.5, 0.5 + 1e-9)
    ]
    assert deltas[0] == pytest.approx(deltas[1], abs=1e-6)
    assert deltas[2] == pytest.approx(deltas[1], abs=1e-6)


def test_estimate_delta_guards(ordered_counts, ordered_constants):
    with pytest.raises(ConfigError):
        estimate_delta(
            two_sided_moments(ordered_counts, TollSpec(alpha=1), 2000, 1, mode="float"),
            ordered_constants,
        )
    counts = compute_counts(ordered(), 800, exact_cutoff=1)
    short = two_sided_moments(counts, TollSpec(alpha=0.5), 800, 1, mode="float")
    with pytest.raises(ConfigError):
        estimate_delta(short, ordered_constants)
    one = one_sided_moments(ordered_counts, TollSpec(alpha=0.5), 2000, 1, mode="float")
    with pytest.raises(ConfigError):
        estimate_delta(one, ordered_constants)


def test_cauchy_like_normalized_sequence(ordered_counts, ordered_constants):
    table = two_sided_moments(ordered_counts, TollSpec(alpha=1), 2000, 3, mode="float")
    report = normalize_moments(table, ordered_constants, grid=[250, 500, 1000, 2000])
    for s in (1, 2, 3):
        rows = report.series(s)
        diffs = [abs(a.normalized - b.normalized) for a, b in zip(rows, rows[1:])]
        assert all(x > y for x, y in zip(diffs, diffs[1:]))


def test_one_sided_report_and_ratio_shrinks(cayley_counts):
    constants = solve_constants(cayley())
    table = one_sided_moments(cayley_counts, TollSpec(alpha=0), 2000, 2, mode="float")
    report = normalize_moments(table, constants, grid=[500, 1000, 2000])
    rows = report.series(1)
    assert rows[-1].rel_error < rows[0].rel_error  # approaching the Rayleigh mean
    assert rows[-1].normalized > rows[-1].limit  # from above, per the log correction


def test_family_independence(ordered_counts, cayley_counts, ordered_constants):
    toll = TollSpec(alpha=1)
    grid = [250, 500, 1000, 2000]
    rep_o = normalize_moments(
        two_sided_moments(ordered_counts, toll, 2000, 2, mode="float"), ordered_constants, grid=grid
    )
    rep_a = normalize_moments(
        two_sided_moments(cayley_counts, toll, 2000, 2, mode="float"), solve_constants(cayley()), grid=grid
    )
    table = family_independence_check(rep_o, rep_a, 1)
    assert table.decreasing and table.strictly_decreasing
    same = family_independence_check(rep_o, rep_o, 2)
    assert all(row.difference == 0 for row in same.rows)


def test_binary_vs_cayley_alpha2(cayley_counts):
    toll = TollSpec(alpha=2)
    grid = [250, 500, 1000, 2000]
    counts_b = compute_counts(binary(), 2000, exact_cutoff=1)
    rep_b = normalize_moments(
        two_sided_moments(counts_b, toll, 2000, 2, mode="float"), solve_constants(binary()), grid=grid
    )
    rep_a = normalize_moments(
        two_sided_moments(cayley_counts, toll, 2000, 2, mode="float"), solve_constants(cayley()), grid=grid
    )
    check = family_independence_check(rep_a, rep_b, 2)
    assert check.strictly_decreasing
    # at alpha = 2 the O(n^-1/2) corrections carry large constants: the
    # n = 2000 gap is ~0.066*m_2, so assert the halving instead of a
    # small absolute bound
    assert check.rows[-1].difference < 0.5 * check.rows[0].difference
    m2 = limit_moments_two_sided(2.0, 2).m[2]
    assert m2 == pytest.approx(7.0 / 15.0, rel=1e-12)


def test_fit_grid_shape():
    grid = fit_grid(4000)
    assert grid[0] >= 500 and grid[-1] == 4000 and len(grid) >= 4
    with pytest.raises(ConfigError):
        fit_grid(3)
