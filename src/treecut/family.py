"""Tree families whose subtrees stay random under uniform edge cutting.

Three parametric families of simply generated trees have this
"randomness preservation" property.  Each is defined by its degree
weight generating function Phi(t) = sum_k phi_k t^k (phi_0 = 1), and is
pinned down by the ratios alpha0 = phi_1/phi_0 and alpha1 = phi_2/phi_1:

    kind A   Phi(t) = exp(alpha0*t)            Cayley trees at alpha0 = 1
    kind B   Phi(t) = (1 + alpha0*t/d)**d      d-ary trees, d >= 2
    kind C   Phi(t) = (1 - beta*t)**(-gamma)   beta = 2*alpha1 - alpha0 > 0,
                                               gamma = alpha0/beta
                                               (ordered trees at alpha0 = alpha1)

The pair (a0, a1) below drives the splitting probabilities of the
cutting process; for every family a1*tau = 1, where tau is the unique
root of t*Phi'(t) = Phi(t) inside Phi's disc of convergence.  From tau
the usual singularity constants follow in closed form:

    rho    = tau / Phi(tau)                  singularity of the tree GF
    b      = Phi(tau) * sqrt(2/(tau*Phi''(tau)))
    c      = b*sqrt(rho)/(2*sqrt(pi))        T_n ~ c * rho^-n * n^-3/2
    sigma2 = tau^2 * Phi''(tau) / Phi(tau)

Parameters are exact rationals; the derived constants are doubles, and
the rho-scaled counts of :mod:`treecut.counts` use this same rho.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union

from .errors import ConstraintViolation, DomainError

RationalLike = Union[int, str, Fraction, float]

_KINDS = ("A", "B", "C")


def _as_fraction(value: RationalLike, name: str) -> Fraction:
    """Coerce to an exact Fraction; floats convert via their exact binary value."""
    try:
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ConstraintViolation(f"{name} is not a rational number: {value!r}") from exc


@dataclass(frozen=True)
class FamilySpec:
    """One concrete family: kind plus its rational parameters.

    ``a0`` and ``a1`` are the derived splitting constants:

        A: (0, alpha0)    B: (alpha0/d, alpha0*(d-1)/d)    C: (-beta, 2*alpha1)
    """

    kind: str
    alpha0: Fraction
    d: Optional[int] = None
    alpha1: Optional[Fraction] = None
    a0: Fraction = Fraction(0)
    a1: Fraction = Fraction(0)

    @property
    def beta(self) -> Fraction:
        """Scale parameter 2*alpha1 - alpha0 of kind C (its -a0)."""
        if self.kind != "C":
            raise ConstraintViolation("beta is defined for kind C only")
        return 2 * self.alpha1 - self.alpha0

    @property
    def gamma(self) -> Fraction:
        """Exponent alpha0/beta of kind C."""
        return self.alpha0 / self.beta

    def label(self) -> str:
        if self.kind == "A":
            return f"A(alpha0={self.alpha0})"
        if self.kind == "B":
            return f"B(alpha0={self.alpha0}, d={self.d})"
        return f"C(alpha0={self.alpha0}, alpha1={self.alpha1})"


@dataclass(frozen=True)
class FamilyConstants:
    """Singularity constants of one family, in double precision."""

    tau: float
    rho: float
    b: float
    c: float
    sigma2: float
    sigma: float


def make_family(
    kind: str,
    alpha0: RationalLike,
    d: Optional[int] = None,
    alpha1: Optional[RationalLike] = None,
) -> FamilySpec:
    """Validate parameters and fill in the splitting constants (a0, a1).

    Raises ConstraintViolation when alpha0 <= 0, d < 2 (kind B), or
    2*alpha1 - alpha0 <= 0 (kind C).
    """
    if kind not in _KINDS:
        raise ConstraintViolation(f"unknown family kind {kind!r}; expected one of {_KINDS}")
    a0f = _as_fraction(alpha0, "alpha0")
    if a0f <= 0:
        raise ConstraintViolation(f"alpha0 must be positive, got {a0f}")

    if kind == "A":
        return FamilySpec(kind="A", alpha0=a0f, a0=Fraction(0), a1=a0f)

    if kind == "B":
        if d is None:
            raise ConstraintViolation("kind B requires the arity d")
        if d != int(d) or int(d) < 2:
            raise ConstraintViolation(f"kind B requires an integer d >= 2, got {d}")
        d = int(d)
        return FamilySpec(kind="B", alpha0=a0f, d=d, a0=a0f / d, a1=a0f * (d - 1) / d)

    if alpha1 is None:
        raise ConstraintViolation("kind C requires alpha1")
    a1f = _as_fraction(alpha1, "alpha1")
    beta = 2 * a1f - a0f
    if beta <= 0:
        raise ConstraintViolation(f"kind C requires 2*alpha1 - alpha0 > 0, got {beta}")
    return FamilySpec(kind="C", alpha0=a0f, alpha1=a1f, a0=-beta, a1=2 * a1f)


# Reference families used throughout tests and demos.
def cayley() -> FamilySpec:
    """Cayley trees: kind A with alpha0 = 1 (sigma = 1)."""
    return make_family("A", 1)


def ordered() -> FamilySpec:
    """Unweighted ordered (plane) trees: kind C with alpha0 = alpha1 = 1."""
    return make_family("C", 1, alpha1=1)


def binary() -> FamilySpec:
    """Binary trees: kind B with d = 2, alpha0 = 2 (every phi_k = C(2,k))."""
    return make_family("B", 2, d=2)


def phi_coefficient(spec: FamilySpec, k: int) -> Fraction:
    """Exact k-th coefficient of the degree weight series Phi.

    A: alpha0^k/k!; B: C(d,k)*(alpha0/d)^k, zero past the arity d;
    C: binom(gamma+k-1, k)*beta^k.  phi_0 = 1 for every family.
    """
    if k < 0:
        raise ConstraintViolation("k must be nonnegative")
    if spec.kind == "A":
        return spec.alpha0**k / math.factorial(k)
    if spec.kind == "B":
        if k > spec.d:
            return Fraction(0)
        return math.comb(spec.d, k) * (spec.alpha0 / spec.d) ** k
    rising = Fraction(1)
    for i in range(k):
        rising *= spec.gamma + i
    return rising / math.factorial(k) * spec.beta**k


def tau_exact(spec: FamilySpec) -> Fraction:
    """Closed-form location of the root of t*Phi'(t) = Phi(t): tau = 1/a1."""
    return Fraction(1) / spec.a1


def _float_tau(spec: FamilySpec) -> float:
    """tau as a double, for a family inside the range of the float constants and counts.

    rho lies in [tau/4, tau) (Phi(tau) is in (1, 4]), the rho-scaled counts
    are proportional to rho and the recurrences multiply two of them, so
    tau within 2^-400..2^400 keeps those products normal doubles.  Kind B's
    Phi(tau) = (d/(d-1))^d rounds its base near 1 and the power makes that
    a relative error of up to d*2^-53: d <= 2^16 keeps rho within 7.3e-12
    of ((d-1)/d)^(d-1)/alpha0, and 2^17 would reach 1.5e-11.  Kind C's
    Phi(tau) = (alpha0/a1)^(-gamma) loses up to gamma*2^-53 the same way:
    gamma <= 2^16 keeps rho within 7.3e-12 of (alpha0/a1)^gamma/a1
    (3.6e-12 at worst, at gamma = 65355 for alpha0 = 1), and gammas in
    (2^17, 2^18] reach 1.5e-11.  gamma >= 2^-50 keeps 1 - beta*tau = gamma/(1+gamma)
    above 2^-51.  Outside, DomainError names the family.
    """
    tau = tau_exact(spec)
    bounds = [(tau, 400, 400)]
    if spec.kind != "A":
        bounds.append((spec.d, 0, 16) if spec.kind == "B" else (spec.gamma, 50, 16))
    if any(not Fraction(1, 2**low) <= value <= 2**high for value, low, high in bounds):
        raise DomainError(
            f"{spec.label()} leaves double range: the float constants and counts need tau = 1/a1 "
            "within 2^-400..2^400, kind B's d <= 2^16 and kind C's gamma within 2^-50..2^16"
        )
    return float(tau)


def _phi_at_tau(spec: FamilySpec) -> Tuple[float, float, float]:
    """tau, Phi(tau) and Phi''(tau) as doubles, one evaluation for the constants and the counts.

    Outside the range of :func:`_float_tau` it raises DomainError.  For
    kind C both Phi values are powers of 1 - beta*tau, which cancels in
    doubles next to the pole (5e-13 at alpha0 = 1, alpha1 = 1e12); it is
    taken from its exact value alpha0/a1 instead.
    """
    tau = _float_tau(spec)
    a0 = float(spec.alpha0)
    if spec.kind == "A":
        phi = math.exp(a0 * tau)
        return tau, phi, a0 * a0 * phi
    if spec.kind == "B":
        base = 1.0 + a0 * tau / spec.d
        return tau, base**spec.d, a0 * a0 * (spec.d - 1) / spec.d * base ** (spec.d - 2)
    gap = float(spec.alpha0 / spec.a1)
    beta, gamma = float(spec.beta), float(spec.gamma)
    return tau, gap ** (-gamma), gamma * (gamma + 1.0) * beta * beta * gap ** (-gamma - 2.0)


def solve_constants(spec: FamilySpec) -> FamilyConstants:
    """Singularity constants from the closed form tau = 1/a1.

    DomainError is raised for a family outside the range of
    :func:`_float_tau`, or when Phi''(tau) leaves double range, where the
    constants below would divide by zero or overflow.  The tests check
    tau against a bisection root of t*Phi'(t) - Phi(t).
    """
    tau, phi, phi2 = _phi_at_tau(spec)
    if not 0.0 < tau * phi2 < math.inf:
        raise DomainError(f"Phi''(tau) = {phi2!r} leaves double range for {spec.label()}")
    rho = tau / phi
    b = phi * math.sqrt(2.0 / (tau * phi2))
    c = b * math.sqrt(rho) / (2.0 * math.sqrt(math.pi))
    sigma2 = tau * tau * phi2 / phi
    return FamilyConstants(tau=tau, rho=rho, b=b, c=c, sigma2=sigma2, sigma=math.sqrt(sigma2))


# ---------------------------------------------------------------------------
# Plain-text config blocks (key=value lines)
# ---------------------------------------------------------------------------


def format_config(spec: FamilySpec) -> str:
    """Serialize a spec as `kind=...`, `alpha0=p/q`, and kind-specific lines."""
    lines = [f"kind={spec.kind}", f"alpha0={spec.alpha0}"]
    if spec.kind == "B":
        lines.append(f"d={spec.d}")
    if spec.kind == "C":
        lines.append(f"alpha1={spec.alpha1}")
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> FamilySpec:
    """Parse a key=value config block produced by :func:`format_config`.

    Blank lines and `#` comments are ignored; unknown keys are rejected.
    """
    fields: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConstraintViolation(f"malformed config line: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in {"kind", "alpha0", "d", "alpha1"}:
            raise ConstraintViolation(f"unknown config key: {key!r}")
        if key in fields:
            raise ConstraintViolation(f"duplicate config key: {key!r}")
        fields[key] = value
    if "kind" not in fields or "alpha0" not in fields:
        raise ConstraintViolation("config must set both 'kind' and 'alpha0'")
    d = int(fields["d"]) if "d" in fields else None
    return make_family(fields["kind"], fields["alpha0"], d=d, alpha1=fields.get("alpha1"))
