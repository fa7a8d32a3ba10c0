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
s*alpha' cannot overflow; those differences cancel as alpha grows, so
both moment formulas raise above ALPHA_CEILING = 1e3.  The log-Gamma is
:func:`_lgamma`, a transcription of the Cephes ``lgam_sgn`` routine
(S. L. Moshier) that ``scipy.special.gammaln`` runs, so the package
imports no scipy; the tests hold it equal to ``gammaln``/``gammasgn``
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

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

#: Two-sided 0 < alpha < this floor is in no regime: Gamma(alpha) ~ 1/alpha cancels in the limit
#: recurrence, whose worst relative error over s <= 20 is 9e-12 at 1e-3, 2e-8 at 1e-4, 5e-4 at 1e-6.
TWO_SIDED_ALPHA_FLOOR = 1e-3

#: Limit moments above this alpha raise: ln Gamma(x) - ln Gamma(x + 1/2) cancels once x ln x 2^-53 is
#: no longer small.  The worst relative error over s <= 20 (one-sided / two-sided) against an 80-digit
#: evaluation is 6e-12 / 4e-12 at 1e2, 4e-11 / 4e-11 at 1e3, 6e-10 / 4e-10 at 1e4, 2e-7 / 5e-8 at 1e6.
ALPHA_CEILING = 1e3


def regime(variant: str, alpha: float) -> str:
    """The toll regime of (variant, alpha), which fixes how the cost normalizes.

    ``one_sided`` for every alpha; two-sided: ``two_sided_edges`` at
    alpha = 0 (the cost is deterministic), ``two_sided_half`` within
    HALF_POLE_WINDOW of 1/2 (centred by its n ln n and linear terms),
    ``two_sided_linear`` from TWO_SIDED_ALPHA_FLOOR to 1/2 (centred by its
    linear term) and ``two_sided`` above; any other two-sided alpha raises.
    """
    if variant == ONE_SIDED:
        return ONE_SIDED
    if variant != TWO_SIDED:
        raise DomainError(f"unknown variant {variant!r}")
    if alpha == 0:
        return TWO_SIDED_EDGES
    if not (alpha >= TWO_SIDED_ALPHA_FLOOR and math.isfinite(alpha)):
        raise DomainError(f"two-sided alpha must be 0 or finite and >= {TWO_SIDED_ALPHA_FLOOR:g}, got {alpha}")
    if abs(alpha - 0.5) < HALF_POLE_WINDOW:
        return TWO_SIDED_HALF
    return TWO_SIDED_LINEAR if alpha < 0.5 else TWO_SIDED


@dataclass(frozen=True)
class LimitMoments:
    """Normalized limit moments m_0..m_{s_max} for one regime."""

    m: List[float]


# Cephes lgam_sgn coefficients: Stirling tail (A) and the rational
# approximation of ln Gamma on [2, 3) (B / C).
_LG_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
         -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_LG_B = (-1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
         -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5)
_LG_C = (-3.51815701436523470549e2, -1.70642106651881159223e4, -2.20528590553854454839e5,
         -1.13933444367982507207e6, -2.53252307177582951285e6, -2.01889141433532773231e6)
_LS2PI = 0.91893853320467274178  # ln sqrt(2 pi)
_MAXLGM = 2.556348e305  # ln Gamma overflows above this


def _polevl(x: float, coef) -> float:
    """coef[0]*x^n + ... + coef[n] by Horner's rule."""
    y = coef[0]
    for c in coef[1:]:
        y = y * x + c
    return y


def _p1evl(x: float, coef) -> float:
    """Like :func:`_polevl` with an implicit leading coefficient 1."""
    y = x + coef[0]
    for c in coef[1:]:
        y = y * x + c
    return y


def _lgamma(x: float) -> Tuple[float, float]:
    """(ln|Gamma(x)|, sign of Gamma(x)) for x > -34, as Cephes lgam_sgn.

    +inf at the poles 0, -1, ...; every argument the limit formulas form
    lies above -1/2, so the reflection branch for x <= -34 is not ported.
    """
    if x <= -34.0:
        raise DomainError(f"log-Gamma is only evaluated above -34, got {x}")
    if x < 13.0:
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            if u == 0.0:
                return math.inf, 1.0
            z /= u
            p += 1.0
            u = x + p
        sign = 1.0
        if z < 0.0:
            sign, z = -1.0, -z
        if u == 2.0:
            return math.log(z), sign
        p -= 2.0
        x = x + p
        return math.log(z) + x * _polevl(x, _LG_B) / _p1evl(x, _LG_C), sign
    if x > _MAXLGM:
        return math.inf, 1.0
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q, 1.0
    p = 1.0 / (x * x)
    if x >= 1000.0:
        q += ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
              + 0.0833333333333333333333) / x
    else:
        q += _polevl(p, _LG_A) / x
    return q, 1.0


def _gamma_ratio(a: float, b: float) -> float:
    """Gamma(a)/Gamma(b) for positive a, b, safe for large arguments."""
    return math.exp(_lgamma(a)[0] - _lgamma(b)[0])


def limit_moments_two_sided(alpha: float, s_max: int) -> LimitMoments:
    """Two-sided limit moments for TWO_SIDED_ALPHA_FLOOR <= alpha <= ALPHA_CEILING, alpha != 1/2.

    For alpha > 1/2 these are the moments of the scaled cost
    X_n/(sigma n^alpha'); for 0 < alpha < 1/2, of the scaled *centered*
    cost (X_n - mu*n)/(sigma n^alpha').  At alpha = 1/2 the first-moment
    formula has a Gamma pole, so that case is rejected rather than
    returning a huge float; use :func:`limit_moments_two_sided_half`.
    At alpha = 1 the limit is twice the Brownian excursion area, the Airy law.
    """
    if regime(TWO_SIDED, alpha) not in (TWO_SIDED, TWO_SIDED_LINEAR):
        raise DomainError(
            f"alpha = {alpha} is not on this recurrence: alpha = 0 counts edges, and alpha = 1/2 "
            "(or numerically at it) is its Gamma pole; use the dedicated alpha = 1/2 regime"
        )
    if alpha > ALPHA_CEILING:
        raise DomainError(f"two-sided limit moments need alpha <= {ALPHA_CEILING:g}, got {alpha}")
    if s_max < 0:
        raise DomainError("s_max must be >= 0")
    ap = alpha + 0.5
    ln_m1, sign = _lgamma(alpha - 0.5)
    m1 = sign * math.exp(ln_m1 - _lgamma(alpha)[0]) / math.sqrt(2.0)
    m = [1.0, m1]
    for s in range(2, s_max + 1):
        conv = 0.0
        for k in range(1, s):
            conv += (
                math.comb(s, k)
                * math.exp(_lgamma(k * ap - 0.5)[0] + _lgamma((s - k) * ap - 0.5)[0] - _lgamma(s * ap - 0.5)[0])
                * m[k]
                * m[s - k]
            )
        drift = s * _gamma_ratio(s * ap - 1.0, s * ap - 0.5) / math.sqrt(2.0) * m[s - 1]
        m.append(conv / (4.0 * math.sqrt(math.pi)) + drift)
    return LimitMoments(m=m[: s_max + 1])


def _j_indices(s: int):
    """The admissible J(s1, s2, s3) with s1+s2+s3 = s >= 2 and s2, s3 < s; s1 ascending, then s2."""
    if s < 2:
        return
    for s1 in range(s + 1):
        for s2 in range(s - s1 + 1):
            s3 = s - s1 - s2
            if s2 < s and s3 < s:
                yield s1, s2, s3


def _check_j_indices(s1: int, s2: int, s3: int) -> None:
    if (s1, s2, s3) not in _j_indices(s1 + s2 + s3):
        raise NonIntegrable(
            f"J({s1},{s2},{s3}) lies outside the admissible index set "
            "(need s1+s2+s3 >= 2 with s2, s3 < s)"
        )


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
        for s1, s2, s3 in _j_indices(s):
            if m[s2] != 0.0 and m[s3] != 0.0:
                coeff = math.comb(s, s1) * math.comb(s - s1, s2)
                total += coeff * inv_sqrt_2pi**s1 * m[s2] * m[s3] * _j_cached(s1, s2, s3)
        front = _gamma_ratio(s - 1.0, s - 0.5) / (2.0 * math.sqrt(math.pi))
        m.append(front * total)
    return LimitMoments(m=m[: s_max + 1])


def limit_moments_one_sided(alpha: float, s_max: int) -> LimitMoments:
    """One-sided limit moments for 0 <= alpha <= ALPHA_CEILING.

    m_s = s!/2^(s/2) * prod_j Gamma(j a')/Gamma(j a' + 1/2).
    """
    if not 0 <= alpha <= ALPHA_CEILING:
        raise DomainError(f"one-sided limit moments need 0 <= alpha <= {ALPHA_CEILING:g}, got {alpha}")
    if s_max < 0:
        raise DomainError("s_max must be >= 0")
    ap = alpha + 0.5
    m = [1.0]
    log_prod = 0.0
    for s in range(1, s_max + 1):
        log_prod += _lgamma(s * ap)[0] - _lgamma(s * ap + 0.5)[0]
        m.append(math.exp(math.lgamma(s + 1) - (s / 2.0) * math.log(2.0) + log_prod))
    return LimitMoments(m=m)


@dataclass(frozen=True)
class LeadingTerm:
    """Leading term of E[cost]: coefficient * n^n_power * (ln n)^log_power; None where it is fitted."""

    coefficient: Optional[float]
    n_power: float
    log_power: int


def predicted_mean(constants: FamilyConstants, alpha: float, variant: str) -> LeadingTerm:
    """Leading asymptotic term of the mean cost for the given regime.

    One-sided and two-sided alpha > 1/2: sigma*m_1 n^(alpha+1/2), with m_1
    the first limit moment of that variant.  Two-sided alpha = 1/2 gives
    (sigma/sqrt(2 pi)) n ln n, the one place that lead is formed; 0 <
    alpha < 1/2 grows like mu*n with mu not expressible here (fit it from
    data, see :func:`treecut.analysis.estimate_mu`).  Two-sided alpha = 0
    gives coefficient 1, the edge count n - 1 under the ``size_one_cost =
    0`` convention; under the default t_1 = 1 the mean is 2n - 1, and the
    limit of X_n/n that :func:`treecut.analysis.normalize_moments` reports
    is 1 + t_1.
    """
    sigma = constants.sigma
    kind = regime(variant, alpha)
    if kind == TWO_SIDED_EDGES:
        return LeadingTerm(coefficient=1.0, n_power=1.0, log_power=0)
    if kind == TWO_SIDED_HALF:
        return LeadingTerm(coefficient=sigma / math.sqrt(2.0 * math.pi), n_power=1.0, log_power=1)
    if kind == TWO_SIDED_LINEAR:
        return LeadingTerm(coefficient=None, n_power=1.0, log_power=0)
    limit = limit_moments_one_sided if kind == ONE_SIDED else limit_moments_two_sided
    return LeadingTerm(coefficient=sigma * limit(alpha, 1).m[1], n_power=alpha + 0.5, log_power=0)
