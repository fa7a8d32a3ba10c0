"""Limit moments, the entropy-kernel integrals, and leading mean terms.

Claims covered:
    - two-sided recurrence values at alpha = 1 and 2 against hand algebra
    - the Gamma pole at alpha = 1/2, and an alpha below 1e-3, where the
      two-sided recurrence cancels, raise instead of returning garbage or NaN
    - the two-sided alpha = 1 limit is the Airy law: its moments equal
      Janson's exact K_s form for s <= 20
    - the log-Gamma port equals scipy.special.gammaln / gammasgn bit for
      bit at every argument the limit formulas form, at its branch
      borders and at the ends of the float range
    - a negative order s_max (in all three regimes) and a NaN alpha
      raise instead of returning a truncated list or NaN moments
    - the s = 1 coefficient-space constant ties back to m_1 through the
      family constants (for any family)
    - J integrals: Beta closed forms, sign structure, the admissible index
      set (generator order and its policing on every triple of a box), and
      two mutually independent quadrature routes
    - the alpha = 1/2 recurrence assembled independently for s = 2
    - one-sided closed product vs Rayleigh moments at alpha = 0; the
      Rayleigh oracle lives here, checked against its density by quadrature
    - Carleman-style growth sanity and positivity across regimes
    - one map from (variant, alpha) to the regime; alpha within 1e-6 of
      1/2 is the alpha = 1/2 regime; a two-sided alpha below 1e-3, negative
      or not finite is in none, and predicted_mean rejects it too
    - above alpha = 1e3 both limit-moment formulas, and so predicted_mean,
      raise instead of returning moments whose digits have cancelled
"""

import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln, gammasgn

from treecut.errors import DomainError, NonIntegrable
from treecut.family import ordered, cayley, solve_constants
from treecut import quadrature
from treecut.limits import (
    ALPHA_CEILING,
    TWO_SIDED_EDGES,
    TWO_SIDED_HALF,
    TWO_SIDED_LINEAR,
    _check_j_indices,
    _j_indices,
    _lgamma,
    j_integral,
    j_integral_adaptive,
    limit_moments_one_sided,
    limit_moments_two_sided,
    limit_moments_two_sided_half,
    predicted_mean,
    regime,
)
from treecut.moments import ONE_SIDED, TWO_SIDED
from treecut.verify import _limit_moment_oracle


def test_two_sided_reference_values():
    lm = limit_moments_two_sided(1.0, 3)
    assert lm.m[0] == 1.0
    assert lm.m[1] == pytest.approx(math.sqrt(math.pi / 2), rel=1e-13)
    assert lm.m[2] == pytest.approx(5.0 / 3.0, rel=1e-13)  # 1/3 + 4/3
    assert lm.m[3] == pytest.approx(15 * math.sqrt(math.pi / 2) / 8, rel=1e-13)
    assert limit_moments_two_sided(2.0, 1).m[1] == pytest.approx(math.sqrt(math.pi / 8), rel=1e-13)


def test_two_sided_below_half_matches_direct_gamma():
    alpha = 0.25
    lm = limit_moments_two_sided(alpha, 2)
    assert lm.m[1] == pytest.approx(
        math.gamma(alpha - 0.5) / (math.sqrt(2) * math.gamma(alpha)), rel=1e-13
    )
    assert lm.m[1] < 0  # Gamma is negative on (-1/2, 0)
    assert lm.m[2] > 0


def test_two_sided_alpha1_is_the_airy_law():
    # twice the Brownian excursion area; the oracle is criterion 6's, in Fractions and math.gamma only
    airy = _limit_moment_oracle(20)
    package = limit_moments_two_sided(1.0, 20).m
    assert max(abs(a / b - 1) for a, b in zip(package, airy)) <= 1e-13


@pytest.mark.parametrize(
    "alpha", [0.5, 0.5 + 5e-7, 0.5 - 5e-7, 0.0, -1.0, math.nan, math.inf, 1e-17, 1e-300, 1e-16, 1e-9, 5e-4, 1e4]
)
def test_two_sided_pole_window(alpha):
    with pytest.raises(DomainError):
        limit_moments_two_sided(alpha, 2)


def _limit_gamma_arguments():
    """Every Gamma argument the limit formulas form, alpha on a grid in (0, 8], s <= 12."""
    for alpha in np.linspace(0.0, 8.0, 3201)[1:]:
        alpha = float(alpha)
        ap = alpha + 0.5
        yield alpha - 0.5
        yield alpha
        for s in range(1, 13):
            yield s * ap - 0.5
            yield s * ap - 1.0
            yield s * ap
            yield s * ap + 0.5


def _lgamma_borders():
    for border in (-0.5, 1.0, 2.0, 3.0, 13.0, 1000.0, 1e8, 2.556348e305):
        yield math.nextafter(border, -math.inf)
        yield border
        yield math.nextafter(border, math.inf)


def test_lgamma_matches_scipy_bitwise():
    xs = [*_limit_gamma_arguments(), *_lgamma_borders(), 5e-324, 1e-310, 1e306, math.inf,
          -33.5, -20.25, -0.25]
    mismatched = [x for x in xs if _lgamma(x) != (float(gammaln(x)), float(gammasgn(x)))]
    assert mismatched == []


def test_lgamma_pole_and_reflection_range():
    assert _lgamma(0.0)[0] == math.inf == gammaln(0.0)
    for x in (-34.0, -1e3, -math.inf):
        with pytest.raises(DomainError):
            _lgamma(x)


@pytest.mark.parametrize("spec", [ordered(), cayley()], ids=lambda s: s.label())
def test_m1_ties_to_coefficient_constant(spec):
    # m_s = sigma^-s * C_s / (c * Gamma(s a' - 1/2)) with
    # C_1 = tau * Gamma(alpha - 1/2) / (2 sqrt(pi)), here at s = 1, alpha = 1
    alpha = 1.0
    con = solve_constants(spec)
    c1 = con.tau * math.gamma(alpha - 0.5) / (2 * math.sqrt(math.pi))
    tied = c1 / (con.sigma * con.c * math.gamma(alpha))
    assert limit_moments_two_sided(alpha, 1).m[1] == pytest.approx(tied, rel=1e-12)


def test_j_beta_closed_forms():
    assert j_integral(0, 1, 1) == pytest.approx(math.pi / 2, abs=1e-10)
    assert j_integral(0, 2, 1) == pytest.approx(3 * math.pi / 8, abs=1e-10)
    # generic s1 = 0 cases reduce to Beta(s2 + 1/2, s3 - 1/2)
    for s2, s3 in ((1, 2), (1, 3), (2, 2)):
        beta = math.gamma(s2 + 0.5) * math.gamma(s3 - 0.5) / math.gamma(s2 + s3)
        assert j_integral(0, s2, s3) == pytest.approx(beta, abs=1e-10)


def test_j_sign_structure():
    # x ln x + (1-x) ln(1-x) <= 0, so odd s1 gives negative J
    assert j_integral(1, 1, 0) < 0
    assert j_integral(1, 1, 1) < 0
    assert j_integral(2, 0, 0) > 0


@pytest.mark.parametrize("bad", [(0, 0, 2), (0, 2, 0), (1, 0, 0), (0, 1, 0), (-1, 2, 2)])
def test_j_rejects_inadmissible_indices(bad):
    with pytest.raises(NonIntegrable):
        j_integral(*bad)


def test_j_index_generator_is_the_admissible_set_in_order():
    # s1 ascending, then s2: the order in which the alpha = 1/2 moments add their terms
    for s in range(-1, 9):
        # itertools.product runs (s1, s2, s3) in lexicographic order
        brute = [t for t in itertools.product(range(9), repeat=3) if sum(t) == s >= 2 and t[1] < s and t[2] < s]
        assert list(_j_indices(s)) == brute, s
    assert len(list(_j_indices(2))) == 4 and sum(len(list(_j_indices(s))) for s in (2, 3, 4)) == 25


def test_j_index_check_rejects_exactly_the_complement():
    box = range(-2, 9)
    for s1 in box:
        for s2 in box:
            for s3 in box:
                s = s1 + s2 + s3
                outside = min(s1, s2, s3) < 0 or s < 2 or s2 == s or s3 == s
                if outside:
                    with pytest.raises(NonIntegrable):
                        _check_j_indices(s1, s2, s3)
                else:
                    _check_j_indices(s1, s2, s3)


def test_j_quadrature_schemes_agree():
    for s1, s2, s3 in (index for s in range(2, 5) for index in _j_indices(s)):
        a = j_integral(s1, s2, s3)
        b = j_integral_adaptive(s1, s2, s3)
        assert a == pytest.approx(b, abs=1e-9), (s1, s2, s3)


def test_half_regime_reference_values():
    lm = limit_moments_two_sided_half(4)
    assert lm.m[0] == 1.0 and lm.m[1] == 0.0
    assert lm.m[2] > 0
    # independent assembly of s = 2: of the four admissible triples only
    # (2,0,0) survives because m_1 = 0
    expected = 0.0
    for s1, s2, s3 in ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)):
        coeff = math.factorial(2) // (math.factorial(s1) * math.factorial(s2) * math.factorial(s3))
        m = {0: 1.0, 1: 0.0}
        expected += coeff * (2 * math.pi) ** (-s1 / 2) * m[s2] * m[s3] * j_integral(s1, s2, s3)
    expected *= math.gamma(1.0) / (2 * math.sqrt(math.pi) * math.gamma(1.5))
    assert lm.m[2] == pytest.approx(expected, rel=1e-12)
    assert lm.m[2] == pytest.approx(j_integral(2, 0, 0) / (2 * math.pi**2), rel=1e-12)


def test_one_sided_closed_product():
    lm = limit_moments_one_sided(1.0, 2)
    assert lm.m[1] == pytest.approx(math.sqrt(math.pi / 8), rel=1e-13)
    assert lm.m[2] == pytest.approx(8.0 / 15.0, rel=1e-13)
    with pytest.raises(DomainError):
        limit_moments_one_sided(-0.5, 2)
    with pytest.raises(DomainError):
        limit_moments_one_sided(math.nan, 2)
    with pytest.raises(DomainError):
        limit_moments_one_sided(math.inf, 2)
    with pytest.raises(DomainError):  # past ALPHA_CEILING the Gamma ratios lose their digits
        limit_moments_one_sided(1e300, 2)


@pytest.mark.parametrize("fn", [limit_moments_one_sided, limit_moments_two_sided], ids=["one", "two"])
def test_negative_order_rejected(fn):
    assert fn(1.0, 0).m == [1.0]
    with pytest.raises(DomainError):
        fn(1.0, -1)


def test_half_regime_negative_order_rejected():
    assert limit_moments_two_sided_half(0).m == [1.0]
    with pytest.raises(DomainError, match="s_max must be >= 0"):
        limit_moments_two_sided_half(-1)


def rayleigh_moment(s: int) -> float:
    """s-th raw moment of the standard Rayleigh law: 2^(s/2) Gamma(1 + s/2)."""
    return 2.0 ** (s / 2.0) * math.gamma(1.0 + s / 2.0)


def test_one_sided_alpha0_is_rayleigh():
    lm = limit_moments_one_sided(0.0, 10)
    for s in range(11):
        sharpened = math.factorial(s) * math.sqrt(math.pi) / (2 ** (s / 2) * math.gamma((s + 1) / 2))
        assert lm.m[s] == pytest.approx(sharpened, rel=1e-12)
        assert lm.m[s] == pytest.approx(rayleigh_moment(s), rel=1e-12)


def rayleigh_density(y: float) -> float:
    """Density y*exp(-y^2/2) of the standard Rayleigh law (y >= 0)."""
    if y < 0:
        raise DomainError("the Rayleigh density lives on y >= 0")
    return y * math.exp(-(y * y) / 2.0)


def test_rayleigh_density_and_moments():
    total, _ = quad(rayleigh_density, 0, np.inf)
    assert total == pytest.approx(1.0, abs=1e-10)
    mean, _ = quad(lambda y: y * rayleigh_density(y), 0, np.inf)
    assert mean == pytest.approx(rayleigh_moment(1), abs=1e-10)
    assert rayleigh_moment(1) == pytest.approx(math.sqrt(math.pi / 2), rel=1e-13)
    assert rayleigh_moment(2) == pytest.approx(2.0, rel=1e-13)
    with pytest.raises(DomainError):
        rayleigh_density(-0.1)


@pytest.mark.parametrize("alpha", [0.75, 1.0, 2.0])
def test_carleman_growth_sanity(alpha):
    lm = limit_moments_two_sided(alpha, 10)
    ratios = [lm.m[s] ** (1.0 / s) / s for s in range(1, 11)]
    assert max(ratios) < 5.0  # bounded: the moment problem stays determinate


def test_positivity_across_regimes():
    assert all(m > 0 for m in limit_moments_two_sided(1.0, 8).m)
    assert all(m > 0 for m in limit_moments_one_sided(0.5, 8).m)
    half = limit_moments_two_sided_half(6)
    assert half.m[1] == 0.0 and all(half.m[s] != 0 for s in (0, 2, 3, 4, 5, 6))
    assert all(limit_moments_two_sided(0.25, 6).m[s] > 0 for s in (2, 4, 6))


def test_predicted_mean_regimes():
    cay = solve_constants(cayley())
    ord_ = solve_constants(ordered())
    one = predicted_mean(cay, 0.0, ONE_SIDED)
    assert (one.coefficient, one.n_power, one.log_power) == (
        pytest.approx(math.sqrt(math.pi / 2), rel=1e-13),
        0.5,
        0,
    )
    assert one.coefficient is not None
    with pytest.raises(DomainError):
        predicted_mean(cay, -0.5, ONE_SIDED)
    half = predicted_mean(ord_, 0.5, TWO_SIDED)
    assert half.coefficient == pytest.approx(1 / math.sqrt(math.pi), rel=1e-13)
    assert (half.n_power, half.log_power) == (1.0, 1)
    atone = predicted_mean(ord_, 1.0, TWO_SIDED)
    assert atone.coefficient == pytest.approx(math.sqrt(math.pi), rel=1e-13)
    assert atone.n_power == 1.5
    low = predicted_mean(ord_, 0.25, TWO_SIDED)
    assert low.coefficient is None and (low.n_power, low.log_power) == (1.0, 0)
    edges = predicted_mean(ord_, 0.0, TWO_SIDED)
    assert (edges.coefficient, edges.n_power) == (1.0, 1.0)
    with pytest.raises(DomainError):
        predicted_mean(ord_, 1.0, "sideways")


def test_regime_map():
    assert [regime(ONE_SIDED, a) for a in (0.0, 0.5, 2.0)] == [ONE_SIDED] * 3
    cases = {0.0: TWO_SIDED_EDGES, 0.25: TWO_SIDED_LINEAR, 0.5 - 1e-9: TWO_SIDED_HALF, 0.5: TWO_SIDED_HALF,
             0.5 + 1e-9: TWO_SIDED_HALF, 0.5 + 2e-6: TWO_SIDED, 1.0: TWO_SIDED}
    assert {a: regime(TWO_SIDED, a) for a in cases} == cases
    with pytest.raises(DomainError):
        regime("sideways", 1.0)
    assert regime(TWO_SIDED, 1e-3) == TWO_SIDED_LINEAR and regime(ONE_SIDED, 1e-4) == ONE_SIDED
    for alpha in (1e-4, 5e-4, -1.0, math.nan, math.inf):  # no two-sided regime: the limit recurrence cancels or fails
        with pytest.raises(DomainError):
            regime(TWO_SIDED, alpha)
        with pytest.raises(DomainError):
            predicted_mean(solve_constants(ordered()), alpha, TWO_SIDED)
    for variant in (ONE_SIDED, TWO_SIDED):  # in a regime, but past ALPHA_CEILING, where the limit moments raise
        with pytest.raises(DomainError):
            predicted_mean(solve_constants(ordered()), 1e4, variant)
        assert predicted_mean(solve_constants(ordered()), ALPHA_CEILING, variant).coefficient > 0


def test_tanh_sinh_raises_when_levels_run_out(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_LEVEL", 0)  # one level: never two estimates to compare
    with pytest.raises(ArithmeticError):
        j_integral(0, 1, 1)
