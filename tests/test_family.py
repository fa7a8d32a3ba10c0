"""Family definitions and singularity constants.

Claims covered:
    - (a0, a1) derivations for the three kinds, with constraint checks
    - exact degree-weight coefficients, including phi_k = 0 past a B arity
    - closed-form tau = 1/a1 agrees with an independent bisection root,
      to 1e-13 relative error, from alpha0 = 1e-12 to 1e100 and next to
      kind C's pole; constants that leave double range raise DomainError
    - sigma^2 = 1 + beta/alpha0 for kind C holds next to the pole
    - importing the package loads no scipy.optimize
    - derived constants (rho, b, c, sigma) and their exact identities
    - plain-text config block round trip
"""

import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import treecut
from treecut.errors import ConstraintViolation, DomainError, RootMismatch
from treecut.family import (
    _numeric_tau,
    binary,
    cayley,
    format_config,
    make_family,
    ordered,
    parse_config,
    phi_coefficient,
    phi_deriv2,
    phi_value,
    solve_constants,
    tau_exact,
)

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


@pytest.mark.parametrize("spec", PARAM_GRID, ids=lambda s: s.label())
def test_constants_identities(spec):
    con = solve_constants(spec)  # internally asserts closed form == numeric root
    assert spec.a1 * tau_exact(spec) == 1  # exact, in rationals
    assert float(spec.a1) * con.tau == pytest.approx(1.0, abs=1e-12)
    assert con.rho * phi_value(spec, con.tau) == pytest.approx(con.tau, rel=1e-12)
    # c has two equivalent closed forms
    assert con.c == pytest.approx(
        math.sqrt(phi_value(spec, con.tau) / (2 * math.pi * phi_deriv2(spec, con.tau))), rel=1e-12
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


@pytest.mark.parametrize("spec", EXTREME_GRID, ids=_short_id)
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


def test_import_loads_no_scipy_optimize():
    src = os.path.dirname(os.path.dirname(treecut.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, treecut, treecut.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_root_mismatch_gate(monkeypatch):
    import treecut.family as family_module

    monkeypatch.setattr(family_module, "_numeric_tau", lambda spec: 0.5 + 1e-6)
    with pytest.raises(RootMismatch):
        solve_constants(ordered())


@pytest.mark.parametrize("spec", [cayley(), binary(), ordered(), make_family("C", "1/3", alpha1="5/6")])
def test_config_round_trip(spec):
    assert parse_config(format_config(spec)) == spec


def test_config_parsing_is_strict():
    assert parse_config("# comment\nkind=A\nalpha0=3/2\n").alpha0 == Fraction(3, 2)
    for text in ("kind=A", "alpha0=1", "kind=A\nalpha0=1\nbogus=2", "kind=A\nalpha0=1\nkind=A", "kind=A alpha0=1"):
        with pytest.raises(ConstraintViolation):
            parse_config(text)
