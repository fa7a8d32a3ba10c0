"""Moments of the limiting cost distributions, for every toll regime.

After family-specific normalization the limits depend only on the toll
exponent alpha (alpha' = alpha + 1/2 throughout):

* two-sided, alpha != 1/2: m_1 = Gamma(alpha-1/2)/(sqrt(2) Gamma(alpha))
  and a two-term convolution recurrence in s.  For alpha < 1/2 the same
  moments describe the cost centered by its linear term.
* two-sided, alpha = 1/2: centered moments built from the entropy-kernel
  integrals J(s1,s2,s3); m_1 = 0.  J is computed by tanh-sinh quadrature
  and checked by an independent adaptive Gauss-Kronrod rule.
* one-sided, alpha >= 0: closed product of Gamma ratios; at alpha = 0
  the limit is the standard Rayleigh law with density y*exp(-y^2/2).

Gamma ratios are evaluated as exp of log-Gamma differences so large
s*alpha' cannot overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional

import numpy as np
from scipy.special import gammaln, gammasgn

from .errors import DomainError, NonIntegrable
from .family import FamilyConstants
from .moments import ONE_SIDED, TWO_SIDED
from .quadrature import tanh_sinh_01

TWO_SIDED_HALF = "two_sided_half"
TWO_SIDED_LINEAR = "two_sided_linear"
TWO_SIDED_EDGES = "two_sided_edges"

#: alpha this close to 1/2 hits the Gamma pole in the generic recurrence,
#: so it counts as the alpha = 1/2 regime everywhere.
HALF_POLE_WINDOW = 1e-6


def regime(variant: str, alpha: float) -> str:
    """The toll regime of (variant, alpha), which fixes how the cost normalizes.

    ``one_sided`` for every alpha; two-sided: ``two_sided_edges`` at
    alpha = 0 (the cost is deterministic), ``two_sided_half`` within
    HALF_POLE_WINDOW of 1/2 (centred by its n ln n and linear terms),
    ``two_sided_linear`` below 1/2 (centred by its linear term) and
    ``two_sided`` above.
    """
    if variant == ONE_SIDED:
        return ONE_SIDED
    if variant != TWO_SIDED:
        raise DomainError(f"unknown variant {variant!r}")
    if alpha == 0:
        return TWO_SIDED_EDGES
    if abs(alpha - 0.5) < HALF_POLE_WINDOW:
        return TWO_SIDED_HALF
    return TWO_SIDED_LINEAR if alpha < 0.5 else TWO_SIDED


@dataclass(frozen=True)
class LimitMoments:
    """Normalized limit moments m_0..m_{s_max} for one regime."""

    regime: str  # "two_sided" | "two_sided_half" | "one_sided"
    alpha: Optional[float]
    m: List[float]

    def moment(self, s: int) -> float:
        return self.m[s]


def _gamma_ratio(a: float, b: float) -> float:
    """Gamma(a)/Gamma(b) for positive a, b, safe for large arguments."""
    return math.exp(gammaln(a) - gammaln(b))


def limit_moments_two_sided(alpha: float, s_max: int) -> LimitMoments:
    """Two-sided limit moments for alpha > 0, alpha != 1/2.

    For alpha > 1/2 these are the moments of the scaled cost
    X_n/(sigma n^alpha'); for 0 < alpha < 1/2, of the scaled *centered*
    cost (X_n - mu*n)/(sigma n^alpha').  At alpha = 1/2 the first-moment
    formula has a Gamma pole, so that case is rejected rather than
    returning a huge float; use :func:`limit_moments_two_sided_half`.
    """
    if not (alpha > 0 and math.isfinite(alpha)):
        raise DomainError(f"two-sided limit moments need a finite alpha > 0, got {alpha}")
    if s_max < 0:
        raise DomainError("s_max must be >= 0")
    if abs(alpha - 0.5) < HALF_POLE_WINDOW:
        raise DomainError(
            "alpha is at (or numerically at) the Gamma pole alpha = 1/2; "
            "use the dedicated alpha = 1/2 regime"
        )
    ap = alpha + 0.5
    m1 = float(gammasgn(alpha - 0.5)) * math.exp(gammaln(alpha - 0.5) - gammaln(alpha)) / math.sqrt(2.0)
    m = [1.0, m1]
    for s in range(2, s_max + 1):
        conv = 0.0
        for k in range(1, s):
            conv += (
                math.comb(s, k)
                * math.exp(gammaln(k * ap - 0.5) + gammaln((s - k) * ap - 0.5) - gammaln(s * ap - 0.5))
                * m[k]
                * m[s - k]
            )
        drift = s * _gamma_ratio(s * ap - 1.0, s * ap - 0.5) / math.sqrt(2.0) * m[s - 1]
        m.append(conv / (4.0 * math.sqrt(math.pi)) + drift)
    return LimitMoments(regime=TWO_SIDED, alpha=alpha, m=m[: s_max + 1])


def _check_j_indices(s1: int, s2: int, s3: int) -> int:
    s = s1 + s2 + s3
    if min(s1, s2, s3) < 0 or s < 2 or s2 >= s or s3 >= s:
        raise NonIntegrable(
            f"J({s1},{s2},{s3}) lies outside the admissible index set "
            "(need s1+s2+s3 >= 2 with s2, s3 < s)"
        )
    return s


def _entropy_ratio_pow(x: np.ndarray, xm: np.ndarray, s1: int) -> np.ndarray:
    """[(x ln x + (1-x) ln(1-x)) / (1-x)]**s1, stable down to 1-x ~ 1e-290.

    ln x is taken as log1p(-(1-x)) when x is near 1; the complement is
    carried exactly by the quadrature nodes, so no precision is lost.
    """
    if s1 == 0:
        return np.ones_like(x)
    x = np.asarray(x, dtype=float)
    xm = np.asarray(xm, dtype=float)
    ln_x = np.log(x)
    near_one = xm <= 0.5
    ln_x[near_one] = np.log1p(-xm[near_one])
    ln_xm = np.log(xm)
    near_zero = x <= 0.5
    ln_xm[near_zero] = np.log1p(-x[near_zero])
    return (x * ln_x / xm + ln_xm) ** s1


def j_integral(s1: int, s2: int, s3: int) -> float:
    """J(s1,s2,s3) = ∫_0^1 [x ln x + (1-x)ln(1-x)]^s1 x^(s2-1/2) (1-x)^(s3-3/2) dx.

    Tanh-sinh quadrature; the (1-x) powers inside the entropy factor are
    pulled out so the integrand never overflows near x = 1 (at s3 = 0
    integrability is exactly the s1 >= 1 guaranteed by the index set).
    """
    _check_j_indices(s1, s2, s3)

    def f(x: np.ndarray, xm: np.ndarray) -> np.ndarray:
        return _entropy_ratio_pow(x, xm, s1) * x ** (s2 - 0.5) * xm ** (s1 + s3 - 1.5)

    return tanh_sinh_01(f)


def j_integral_adaptive(s1: int, s2: int, s3: int) -> float:
    """Independent evaluation of J by adaptive Gauss-Kronrod quadrature.

    The interval is split at 1/2 and each half is power-substituted
    (x = u^2, 1-x = v^2) so the algebraic endpoint factors become
    bounded; the remaining log-type endpoint behavior is left to the
    adaptive subdivision.  Shares nothing with the tanh-sinh route.
    """
    from scipy.integrate import quad

    _check_j_indices(s1, s2, s3)

    def left(u: float) -> float:  # x = u^2 on (0, 1/2)
        x = u * u
        xm = 1.0 - x
        h = x * math.log(x) + xm * math.log1p(-x)
        return 2.0 * u * h**s1 * x ** (s2 - 0.5) * xm ** (s3 - 1.5)

    def right(v: float) -> float:  # 1 - x = v^2 on (1/2, 1)
        xm = v * v
        x = 1.0 - xm
        ratio = x * math.log1p(-xm) / xm + math.log(xm)  # h / (1-x)
        return 2.0 * v * ratio**s1 * x ** (s2 - 0.5) * xm ** (s1 + s3 - 1.5)

    kwargs = dict(epsabs=1e-11, epsrel=1e-12, limit=400)
    a, _ = quad(left, 0.0, math.sqrt(0.5), **kwargs)
    b, _ = quad(right, 0.0, math.sqrt(0.5), **kwargs)
    return a + b


@lru_cache(maxsize=None)
def _j_cached(s1: int, s2: int, s3: int) -> float:
    return j_integral(s1, s2, s3)


def limit_moments_two_sided_half(s_max: int) -> LimitMoments:
    """Two-sided limit moments at alpha = 1/2 (centered; m_1 = 0)."""
    if s_max < 0:
        raise DomainError("s_max must be >= 0")
    m = [1.0, 0.0]
    inv_sqrt_2pi = 1.0 / math.sqrt(2.0 * math.pi)
    for s in range(2, s_max + 1):
        total = 0.0
        for s1 in range(s + 1):
            for s2 in range(s - s1 + 1):
                s3 = s - s1 - s2
                if s2 >= s or s3 >= s:
                    continue
                coeff = math.comb(s, s1) * math.comb(s - s1, s2)
                if m[s2] == 0.0 or m[s3] == 0.0:
                    continue
                total += coeff * inv_sqrt_2pi**s1 * m[s2] * m[s3] * _j_cached(s1, s2, s3)
        front = _gamma_ratio(s - 1.0, s - 0.5) / (2.0 * math.sqrt(math.pi))
        m.append(front * total)
    return LimitMoments(regime=TWO_SIDED_HALF, alpha=0.5, m=m[: s_max + 1])


def limit_moments_one_sided(alpha: float, s_max: int) -> LimitMoments:
    """One-sided limit moments: m_s = s!/2^(s/2) * prod_j Gamma(j a')/Gamma(j a' + 1/2)."""
    if not (alpha >= 0 and math.isfinite(alpha)):
        raise DomainError(f"one-sided limit moments need a finite alpha >= 0, got {alpha}")
    if s_max < 0:
        raise DomainError("s_max must be >= 0")
    ap = alpha + 0.5
    m = [1.0]
    log_prod = 0.0
    for s in range(1, s_max + 1):
        log_prod += gammaln(s * ap) - gammaln(s * ap + 0.5)
        m.append(math.exp(math.lgamma(s + 1) - (s / 2.0) * math.log(2.0) + log_prod))
    return LimitMoments(regime=ONE_SIDED, alpha=alpha, m=m)


def rayleigh_density(y: float) -> float:
    """Density y*exp(-y^2/2) of the standard Rayleigh law (y >= 0)."""
    if y < 0:
        raise DomainError("the Rayleigh density lives on y >= 0")
    return y * math.exp(-(y * y) / 2.0)


def rayleigh_moment(s: int) -> float:
    """s-th raw moment of the standard Rayleigh law: 2^(s/2) Gamma(1 + s/2)."""
    if s < 0:
        raise DomainError("moment order must be >= 0")
    return 2.0 ** (s / 2.0) * math.gamma(1.0 + s / 2.0)


@dataclass(frozen=True)
class LeadingTerm:
    """Leading term of E[cost]: coefficient * n^n_power * (ln n)^log_power."""

    coefficient: Optional[float]
    n_power: float
    log_power: int
    estimate_required: bool = False

    def value(self, n: float) -> float:
        if self.coefficient is None:
            raise DomainError("coefficient must be estimated from data for this regime")
        return self.coefficient * n**self.n_power * math.log(n) ** self.log_power


def predicted_mean(constants: FamilyConstants, alpha: float, variant: str) -> LeadingTerm:
    """Leading asymptotic term of the mean cost for the given regime.

    One-sided (alpha >= 0): sigma*Gamma(alpha+1/2)/(sqrt(2)Gamma(alpha+1)) n^(alpha+1/2).
    Two-sided: alpha > 1/2 gives sigma*Gamma(alpha-1/2)/(sqrt(2)Gamma(alpha)) n^(alpha+1/2);
    alpha = 1/2 gives (sigma/sqrt(2 pi)) n ln n; 0 < alpha < 1/2 grows like
    mu*n with mu not expressible here (fit it from data, see
    :func:`treecut.analysis.estimate_mu`); alpha = 0 is the edge count n - 1.
    """
    sigma = constants.sigma
    kind = regime(variant, alpha)
    if kind == ONE_SIDED:
        if alpha < 0:
            raise DomainError("one-sided regime needs alpha >= 0")
        coeff = sigma * _gamma_ratio(alpha + 0.5, alpha + 1.0) / math.sqrt(2.0)
        return LeadingTerm(coefficient=coeff, n_power=alpha + 0.5, log_power=0)
    if kind == TWO_SIDED_EDGES:
        # cost is exactly the number of edges under the edges-only convention
        return LeadingTerm(coefficient=1.0, n_power=1.0, log_power=0)
    if kind == TWO_SIDED_HALF:
        return LeadingTerm(coefficient=sigma / math.sqrt(2.0 * math.pi), n_power=1.0, log_power=1)
    if kind == TWO_SIDED_LINEAR:
        return LeadingTerm(coefficient=None, n_power=1.0, log_power=0, estimate_required=True)
    coeff = sigma * _gamma_ratio(alpha - 0.5, alpha) / math.sqrt(2.0)
    return LeadingTerm(coefficient=coeff, n_power=alpha + 0.5, log_power=0)
