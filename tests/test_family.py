"""Family definitions and singularity constants.

Claims covered:
    - (a0, a1) derivations for the three kinds, with constraint checks
    - exact degree-weight coefficients, including phi_k = 0 past a B arity
    - closed-form tau = 1/a1, the only tau the library computes, agrees
      with an independent bisection root of t*Phi'(t) - Phi(t) kept here,
      to 1e-13 relative error, on the parameter grid, from alpha0 = 1e-12
      to 1e100 and next to kind C's pole; constants that leave double
      range raise DomainError
    - the float layer takes tau within 2^-400..2^400, kind B's d up to
      2^16 and kind C's gamma within 2^-50..2^16: outside, constants and
      counts raise DomainError naming the family, and inside, kind A's
      float moments and sampled costs are the same at alpha0 = 1 and
      1e100 (its split law has no alpha0 in it); kind B's rho is within
      1e-11 of a 50-digit ((d-1)/d)^(d-1)/alpha0 up to the arity bound,
      and kind C's within 7.3e-12 of a 50-digit (alpha0/a1)^gamma/a1 up
      to the gamma bound
    - sigma^2 = 1 + beta/alpha0 for kind C holds next to the pole
    - importing the package loads no scipy module at all
    - derived constants (rho, b, c, sigma) and their exact identities
    - plain-text config block round trip
    - beta on a kind other than C, a negative phi index and a config
      line without '=' raise ConstraintViolation with their message
"""

import math
import os
import re
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

import numpy as np

import treecut
from treecut.counts import compute_counts
from treecut.errors import ConstraintViolation, DomainError
from treecut.family import (
    binary,
    cayley,
    format_config,
    make_family,
    ordered,
    parse_config,
    phi_coefficient,
    solve_constants,
    tau_exact,
)
from treecut.moments import ONE_SIDED, TWO_SIDED, TollSpec, one_sided_moments, two_sided_moments
from treecut.simulate import SIZE_PROCESS, ExperimentConfig, run_experiment

PARAM_GRID = (
    [make_family("A", a0) for a0 in (Fraction(1, 2), 1, 2)]
    + [make_family("B", a0, d=d) for a0 in (Fraction(1, 2), 1, 2) for d in (2, 3, 5)]
    + [
        make_family("C", a0, alpha1=Fraction(a0 + beta, 2))
        for a0 in (Fraction(1, 2), 1, 2)
        for beta in (Fraction(1, 2), 1, 2)
    ]
)


def test_make_family_reference_rows():
    assert (cayley().a0, cayley().a1) == (0, 1)
    assert (ordered().a0, ordered().a1) == (-1, 2)
    assert (binary().a0, binary().a1) == (1, 1)


def test_make_family_general_c():
    spec = make_family("C", "1/2", alpha1="3/4")
    assert spec.beta == 1 and spec.gamma == Fraction(1, 2)
    assert spec.a0 == -1 and spec.a1 == Fraction(3, 2)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kind="A", alpha0=0),
        dict(kind="A", alpha0=-1),
        dict(kind="B", alpha0=1, d=1),
        dict(kind="B", alpha0=1),
        dict(kind="C", alpha0=2, alpha1=1),  # 2*alpha1 - alpha0 = 0
        dict(kind="C", alpha0=1),
        dict(kind="X", alpha0=1),
        dict(kind="A", alpha0="nonsense"),
    ],
)
def test_constraint_violations(kwargs):
    with pytest.raises(ConstraintViolation):
        make_family(**kwargs)


def test_phi_coefficients_examples():
    assert phi_coefficient(ordered(), 5) == 1  # 1/(1-t) has all-ones coefficients
    assert phi_coefficient(cayley(), 3) == Fraction(1, 6)
    assert phi_coefficient(binary(), 1) == 2  # expand (1+t)^2
    assert phi_coefficient(binary(), 3) == 0  # polynomial: zero past the arity


@pytest.mark.parametrize("spec", PARAM_GRID, ids=lambda s: s.label())
def test_phi_zeroth_coefficient_and_ratios(spec):
    assert phi_coefficient(spec, 0) == 1
    assert phi_coefficient(spec, 1) / phi_coefficient(spec, 0) == spec.alpha0
    if spec.kind == "C":
        assert phi_coefficient(spec, 2) / phi_coefficient(spec, 1) == spec.alpha1


def test_solve_constants_reference_values():
    a = solve_constants(cayley())
    assert a.tau == pytest.approx(1.0, abs=1e-14)
    assert a.rho == pytest.approx(math.exp(-1), abs=1e-14)
    assert a.sigma == pytest.approx(1.0, abs=1e-14)

    c = solve_constants(ordered())
    assert (c.tau, c.rho, c.sigma2) == pytest.approx((0.5, 0.25, 2.0), abs=1e-14)

    b = solve_constants(binary())
    assert (b.tau, b.rho, b.sigma2) == pytest.approx((1.0, 0.25, 0.5), abs=1e-14)


def _phi_value(spec, t):
    """Phi(t) at any t, independent of the library's evaluation at tau."""
    a0 = float(spec.alpha0)
    if spec.kind == "A":
        return math.exp(a0 * t)
    if spec.kind == "B":
        return (1.0 + a0 * t / spec.d) ** spec.d
    return (1.0 - float(spec.beta) * t) ** (-float(spec.gamma))


def _phi_deriv2(spec, t):
    a0 = float(spec.alpha0)
    if spec.kind == "A":
        return a0 * a0 * math.exp(a0 * t)
    if spec.kind == "B":
        return a0 * a0 * (spec.d - 1) / spec.d * (1.0 + a0 * t / spec.d) ** (spec.d - 2)
    beta, gamma = float(spec.beta), float(spec.gamma)
    return gamma * (gamma + 1.0) * beta * beta * (1.0 - beta * t) ** (-gamma - 2.0)


@pytest.mark.parametrize("spec", PARAM_GRID, ids=lambda s: s.label())
def test_constants_identities(spec):
    con = solve_constants(spec)
    assert spec.a1 * tau_exact(spec) == 1  # exact, in rationals
    assert float(spec.a1) * con.tau == pytest.approx(1.0, abs=1e-12)
    assert con.rho * _phi_value(spec, con.tau) == pytest.approx(con.tau, rel=1e-12)
    # c has two equivalent closed forms
    assert con.c == pytest.approx(
        math.sqrt(_phi_value(spec, con.tau) / (2 * math.pi * _phi_deriv2(spec, con.tau))), rel=1e-12
    )
    # ties c and sigma back to tau
    assert 2 * math.sqrt(math.pi) * con.c * con.sigma == pytest.approx(
        math.sqrt(2) * con.tau, rel=1e-12
    )


SCALES = [Fraction(10) ** e for e in (-12, -6, 0, 6, 11, 13, 50, 100)] + [Fraction(1, 3), Fraction(7, 2)]
EXTREME_GRID = (
    [make_family("A", a0) for a0 in SCALES]
    + [make_family("B", a0, d=d) for a0 in SCALES for d in (2, 3, 7)]
    + [make_family("C", a0, alpha1=a0 * r) for a0 in SCALES for r in (Fraction(1, 2) + Fraction(1, 10**9), 1, 10**12)]
    + [make_family("C", 1, alpha1=10**12), make_family("C", 10**13, alpha1=10**13)]
)


def _short_id(spec):
    second = spec.d if spec.kind == "B" else spec.alpha1
    return f"{spec.kind}-{float(spec.alpha0):.3g}" + ("" if second is None else f"-{float(second):.10g}")


def _phi_deriv1(spec, t):
    a0 = float(spec.alpha0)
    if spec.kind == "A":
        return a0 * math.exp(a0 * t)
    if spec.kind == "B":
        return a0 * (1.0 + a0 * t / spec.d) ** (spec.d - 1)
    beta, gamma = float(spec.beta), float(spec.gamma)
    return gamma * beta * (1.0 - beta * t) ** (-gamma - 1.0)


def _numeric_tau(spec):
    """Bisection root of f(t) = t*Phi'(t) - Phi(t), independent of the closed form.

    f(0) = -1 and f' = t*Phi'' > 0, so f has one root and bisection on a
    sign-change bracket always converges.  The bracket starts at Phi's
    own scale: 1/alpha0 for kinds A and B (the root lies in [1/alpha0,
    2/alpha0]) and the radius 1/beta for kind C (the root lies below
    it).  It doubles or halves by the sign of f until it holds the root
    within a factor of 2, so it works for every alpha0 whose scale a
    double can carry.  Where Phi overflows, and at or past kind C's
    pole, f counts as positive.  Bisection stops at
    hi - lo <= 1e-15*width + 8.9e-16*hi, with width the bracket's first
    width, which leaves a relative error of about 2e-15 at any scale.
    """
    pole_rate = float(spec.beta) if spec.kind == "C" else 0.0

    def negative(t):
        if pole_rate * t >= 1.0:
            return False
        try:
            return t * _phi_deriv1(spec, t) - _phi_value(spec, t) < 0.0
        except OverflowError:
            return False

    scale = float(1 / spec.beta) if spec.kind == "C" else float(1 / spec.alpha0)
    if negative(scale):
        lo, hi = scale, 2.0 * scale
        while negative(hi):
            lo, hi = hi, 2.0 * hi
    else:
        lo, hi = 0.5 * scale, scale
        while not negative(lo):
            lo, hi = 0.5 * lo, lo
    xtol = 1e-15 * (hi - lo)
    while hi - lo > xtol + 8.9e-16 * hi:
        mid = 0.5 * (lo + hi)
        if negative(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize(
    "spec",
    PARAM_GRID + EXTREME_GRID,
    ids=[s.label() for s in PARAM_GRID] + [_short_id(s) for s in EXTREME_GRID],
)
def test_numeric_tau_matches_closed_form_at_every_scale(spec):
    tau = float(tau_exact(spec))
    assert abs(_numeric_tau(spec) - tau) <= 1e-13 * tau


@pytest.mark.parametrize("alpha1", [10**6, 10**12])
def test_kind_c_constants_next_to_the_pole(alpha1):
    # 1 - beta*tau = alpha0/a1 is 5e-13 at alpha1 = 1e12; in doubles it cancels
    spec = make_family("C", 1, alpha1=alpha1)
    con = solve_constants(spec)
    assert con.sigma2 == pytest.approx(float(1 + spec.beta / spec.alpha0), rel=1e-13)


@pytest.mark.parametrize("alpha0", ["1e-300", "1e300", "1e-400"])
def test_constants_outside_double_range_raise(alpha0):
    with pytest.raises(DomainError):
        solve_constants(make_family("A", alpha0))


@pytest.mark.parametrize("spec", [
    make_family("A", 2**401), make_family("A", Fraction(1, 2**401)), make_family("B", "1e160", d=3),
    make_family("C", 1, alpha1="1e300"), make_family("C", 1, alpha1=2**51), make_family("C", 1, alpha1="1e400"),
    make_family("C", 1, alpha1=Fraction(1, 2) + Fraction(1, 2**52)),
    make_family("C", 1, alpha1=Fraction(1, 2) + Fraction(1, 2**18)), make_family("B", 1, d=2**17),
    make_family("B", 1, d=10**400),
], ids=["A-2^401", "A-2^-401", "B-1e160", "C-1e300", "C-2^51", "C-1e400", "C-1/2+2^-52", "C-1/2+2^-18", "B-d2^17",
        "B-d1e400"])
def test_float_layer_rejects_families_outside_its_range(spec):
    for build in (solve_constants, lambda s: compute_counts(s, 5)):
        with pytest.raises(DomainError, match=re.escape(spec.label())):
            build(spec)


@pytest.mark.parametrize("spec", [
    make_family("A", 2**399), make_family("A", Fraction(1, 2**399)), make_family("C", 1, alpha1=2**48),
    make_family("C", 1, alpha1=Fraction(1, 2) + Fraction(1, 2**17)), make_family("B", 1, d=2**16),
], ids=["A-2^399", "A-2^-399", "C-2^48", "C-1/2+2^-17", "B-d2^16"])
def test_float_layer_takes_families_inside_its_range(spec):
    counts = compute_counts(spec, 50, exact_cutoff=50)
    assert np.isfinite(counts.log_values[1:]).all() and solve_constants(spec).sigma > 0


@pytest.mark.parametrize("alpha0", [1, "1/3", "1e100"])
def test_kind_b_rho_near_the_arity_bound(alpha0):
    # Phi(tau) = (d/(d-1))^d rounds its base near 1; 65286 loses the most of all d <= 2^16 at alpha0 = 1
    a0 = Fraction(alpha0)
    for d in (65286, 2**16 - 1, 2**16):
        with localcontext(prec=50):
            oracle = (Decimal(d - 1) / d) ** (d - 1) * a0.denominator / a0.numerator
            error = abs(Decimal(solve_constants(make_family("B", a0, d=d)).rho) / oracle - 1)
        assert error <= Decimal("1e-11"), d


@pytest.mark.parametrize("alpha0", [1, "1/3", "1e6"])
def test_kind_c_rho_near_the_gamma_bound(alpha0):
    # Phi(tau) = (alpha0/a1)^(-gamma) rounds its base near 1; 65355 loses the most of all gamma <= 2^16 at alpha0 = 1
    a0 = Fraction(alpha0)
    for gamma in (65355, 2**16 - 1, 2**16):
        spec = make_family("C", a0, alpha1=(a0 + a0 / gamma) / 2)
        assert spec.gamma == gamma
        gap = a0 / spec.a1
        with localcontext(prec=50):
            oracle = (Decimal(gap.numerator) / gap.denominator) ** gamma * spec.a1.denominator / spec.a1.numerator
            error = abs(Decimal(solve_constants(spec).rho) / oracle - 1)
        assert error <= Decimal("7.3e-12"), gamma


def test_kind_a_float_layer_is_scale_free():
    # p_(n,k) has no alpha0 in it for kind A, so neither have the float moments or the sampled costs
    specs = [cayley(), make_family("A", 10**100)]
    for alpha in (0, 0.5, 1):
        for variant, maker in ((ONE_SIDED, one_sided_moments), (TWO_SIDED, two_sided_moments)):
            base, scaled = (maker(compute_counts(spec, 300, exact_cutoff=1), TollSpec(alpha=alpha), 300, 3,
                                  mode="float").rows[:, 1:] for spec in specs)
            assert np.max(np.abs(scaled / base - 1)) <= 1e-12, (alpha, variant)
    for variant in (ONE_SIDED, TWO_SIDED):
        base, scaled = (run_experiment(ExperimentConfig(family=spec, variant=variant, alpha=1.0, n=200, samples=4000,
                                                        seed=3, engine=SIZE_PROCESS)) for spec in specs)
        assert scaled == base, variant


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(treecut.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, treecut, treecut.cli; "
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("spec", [cayley(), binary(), ordered(), make_family("C", "1/3", alpha1="5/6")])
def test_config_round_trip(spec):
    assert parse_config(format_config(spec)) == spec



@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: cayley().beta, "beta is defined for kind C only"),
        (lambda: phi_coefficient(ordered(), -1), "k must be nonnegative"),
        (lambda: parse_config("kind=A\nalpha0=1\nbogus"), "malformed config line: 'bogus'"),
    ],
    ids=["beta-kind-A", "phi-negative-k", "config-line"],
)
def test_range_errors(call, message):
    with pytest.raises(ConstraintViolation, match=re.escape(message)):
        call()


def test_config_parsing_is_strict():
    assert parse_config("# comment\nkind=A\nalpha0=3/2\n").alpha0 == Fraction(3, 2)
    for text in ("kind=A", "alpha0=1", "kind=A\nalpha0=1\nbogus=2", "kind=A\nalpha0=1\nkind=A", "kind=A alpha0=1"):
        with pytest.raises(ConstraintViolation):
            parse_config(text)
