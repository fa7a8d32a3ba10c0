"""Weighted tree counts T_n and first-cut splitting distributions.

The counts satisfy the convolution recurrence

    (n-1) * T_n = sum_{k=1}^{n-1} (a1*k + a0) * T_k * T_{n-k},   T_1 = 1,

which is exactly the statement that the splitting probabilities

    p_{n,k} = (a1*k + a0) * T_k * T_{n-k} / ((n-1) * T_n)

sum to one.  That one expression gives the split law, evaluated on the
exact counts or on the rho-scaled floats below.  Very simple trees are
exactly the three Phi forms, and for each of them Lagrange inversion of
T(z) = z*Phi(T(z)) solves the recurrence in closed form:

    T_n = (a0 + a1) / (n-1)! * prod_{i=2}^{n-1} (a1*n + a0*i),   n >= 2.

Exact counts come from it as plain integers.  With L the lcm of the
denominators of a0 and a1, so that W_k = L*(a1*k + a0) is an integer,

    S_n = (n-1)! * L^(n-1) * T_n = W_1 * prod_{i=2}^{n-1} L*(a1*n + a0*i),

a product over an arithmetic progression (a power when a0 = 0).  These
integers are the one store of the exact counts and the scale the exact
moment DP of :mod:`treecut.moments` runs on.  S_n and, when first read, the
Fraction T_n = S_n / ((n-1)! * L^(n-1)) come from S_{n-d} and T_{n-d} by
:func:`_ratio_step`'s ratios of a few small factors.
Its oracles are the recurrence itself, transcribed in Fractions in the
tests, and :func:`lagrange_counts`, by series arithmetic.

Every T_n is also kept as the rho-scaled float a_n = rho^n * T_n, where
rho = tau/Phi(tau) (tau = 1/a1) is the singularity of the tree GF, the
double of :func:`treecut.family.solve_constants`, bit for bit.  T_n
grows like c * rho^-n * n^-3/2 and overflows doubles near n ~ 520
already for ordered trees, but a_n ~ c * n^-3/2 stays well inside double
range, and rho^n = rho^k * rho^(n-k) leaves the recurrence and p_{n,k}
unchanged with a in place of T.  Since w_k + w_{n-k} = a1*n + 2*a0 for
w_k = a1*k + a0, the float recurrence folds to a plain convolution:

    a_n = (a1*n + 2*a0) / (2*(n-1)) * sum_k a_k * a_{n-k},   a_1 = rho.

In floats the weights are written from w_1 = a1 + a0 = alpha0, which
holds for every kind (see :func:`_weight_terms`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import OutOfRange, OverflowPolicyError
from .family import FamilySpec, _phi_at_tau, phi_coefficient

#: Hard ceiling on how many exact rationals a WeightedCounts may store.
MAX_EXACT_CUTOFF = 20_000

#: Factors per math.prod call at the leaves of :func:`_balanced_prod`.
_PROD_CHUNK = 64


@dataclass(frozen=True)
class WeightedCounts:
    """Counts T_1..T_n_max for one family.

    ``scaled[n]`` is the integer S_n = (n-1)! * L^(n-1) * T_n for
    1 <= n <= exact_limit (index 0 = 0), the one store of the exact
    counts.  ``log_values[n]`` is ln T_n for every 1 <= n <= n_max.
    ``rho_scaled[n]`` is a_n = rho**n * T_n for 1 <= n <= n_max, with
    ``rho`` = tau/Phi(tau) the double ``solve_constants(family).rho``.
    """

    family: FamilySpec
    n_max: int
    log_values: np.ndarray
    rho: float
    rho_scaled: np.ndarray = field(repr=False)
    scaled: List[int] = field(repr=False)

    @property
    def exact_limit(self) -> int:
        return len(self.scaled) - 1

    @functools.cached_property
    def exact(self) -> List[Fraction]:
        """T_n, 1 <= n <= exact_limit (index 0 = 0), on first use: T_{n-d} * num / (den * L^d * (n-d)*...*(n-1))
        by :func:`_ratio_step`, a big and a small integer per gcd; else Fraction(S_n, (n-1)! * L^(n-1))."""
        scale, (la1, la0) = _weight_scale(self.family), _integer_weights(self.family)
        out = [Fraction(0)]
        c_n = 1
        for n in range(1, self.exact_limit + 1):
            if step := _ratio_step(la1, la0, n):
                d, num, den = step
                out.append(out[n - d] * Fraction(num, den * scale**d * math.prod(range(n - d, n))))
            else:
                out.append(Fraction(self.scaled[n], c_n))
            c_n *= scale * n
        return out

    def exact_t(self, n: int) -> Fraction:
        if not 1 <= n <= self.exact_limit:
            raise OutOfRange(f"exact T_n available for 1 <= n <= {self.exact_limit}, got {n}")
        return self.exact[n]

    def log_t(self, n: int) -> float:
        if not 1 <= n <= self.n_max:
            raise OutOfRange(f"n must be in [1, {self.n_max}], got {n}")
        return float(self.log_values[n])


def _weight_scale(spec: FamilySpec) -> int:
    """L, the lcm of the denominators of a0 and a1.

    It is the least positive integer that makes every W_k = L*(a1*k + a0)
    an integer.
    """
    return math.lcm(spec.a0.denominator, spec.a1.denominator)


def _weight_terms(spec: FamilySpec, dtype=np.float64) -> Tuple[float, float]:
    """(a1, alpha0) in ``dtype``, for the float weights and their fold.

    Floats form w_k = a1*(k-1) + alpha0 and w_1 + w_{n-1} =
    a1*(n-2) + 2*alpha0, exact rewrites of a1*k + a0 and a1*n + 2*a0
    since w_1 = a1 + a0 = alpha0.  Those forms cancel when alpha0 << a1
    and the parameters are not exact doubles: kind C at alpha0 = 1/3,
    alpha1 = 10^12/3 gets w_1 wrong in the fourth digit.  Where a0 and
    a1 are small integers, as for ordered, Cayley and binary trees, both
    forms give the same doubles.
    """
    return dtype(float(spec.a1)), dtype(float(spec.alpha0))


def _integer_weights(spec: FamilySpec) -> Tuple[int, int]:
    """(L*a1, L*a0): W_k = L*(a1*k + a0) is L*a1*k + L*a0, an integer for every k."""
    scale = _weight_scale(spec)
    return int(scale * spec.a1), int(scale * spec.a0)


def _balanced_prod(factors: range) -> int:
    """Product of small ints: math.prod per chunk, then the chunk products pairwise.

    Multiplying left to right costs a bigint-by-small-int product per
    factor, quadratic in the result's length; the balanced tree ends in a
    few products of equal-sized bigints, where Karatsuba pays off.
    """
    parts = [math.prod(factors[i : i + _PROD_CHUNK]) for i in range(0, len(factors), _PROD_CHUNK)]
    while len(parts) > 1:
        parts = [math.prod(parts[i : i + 2]) for i in range(0, len(parts), 2)]
    return parts[0] if parts else 1


def _ratio_step(la1: int, la0: int, n: int) -> Optional[Tuple[int, int, int]]:
    """(d, num, den) with S_n = S_{n-d} * num / den, or None where the direct product is shorter.

    With A, B = L*a1, L*a0, d = |B|/gcd(A, B) and e = A*d/B, A*(n-d) + B*i = A*n + B*(i-e): S_n
    multiplies A*n + B*i over 2 <= i < n and S_{n-d} over 2-e <= i < n-d-e, ranges that differ
    in at most d + 2|e| factors.  B = 0 (a power) and d + 2|e| >= n - 2 keep the direct product.
    """
    if la0 == 0:
        return None
    d = abs(la0) // math.gcd(la1, la0)
    e = la1 * d // la0
    if d + 2 * abs(e) >= n - 2:
        return None
    an = la1 * n  # the factors at i = 2, 2-e, n-d-e and n bound the ranges
    at2, at_lo, at_hi, at_n = an + 2 * la0, an + (2 - e) * la0, an + (n - d - e) * la0, an + n * la0
    num = math.prod(range(at2, at_lo, la0)) * math.prod(range(at_hi, at_n, la0))
    return d, num, math.prod(range(at_lo, at2, la0)) * math.prod(range(at_n, at_hi, la0))


def _scaled_counts(spec: FamilySpec, n_exact: int) -> List[int]:
    """S_n = W_1 * prod_{i=2}^{n-1} (L*a1*n + L*a0*i) for 1 <= n <= n_exact (index 0 = 0), as
    S_{n-d} // den * num by :func:`_ratio_step` (den divides S_{n-d}), else as that product."""
    la1, la0 = _integer_weights(spec)
    s = [0, 1]
    for n in range(2, n_exact + 1):
        if step := _ratio_step(la1, la0, n):
            d, num, den = step
            s.append(s[n - d] // den * num)
            continue
        first = la1 * n + 2 * la0  # the factor at i = 2
        prod = first ** (n - 2) if la0 == 0 else _balanced_prod(range(first, la1 * n + n * la0, la0))
        s.append((la1 + la0) * prod)
    return s[: n_exact + 1]


def compute_counts(spec: FamilySpec, n_max: int, exact_cutoff: int = 400) -> WeightedCounts:
    """Exact counts from the closed form, rho-scaled floats from the recurrence.

    The exact integers S_n are kept for n <= min(n_max, exact_cutoff);
    the rho-scaled values (and hence ln T_n) cover all n <= n_max.
    """
    if n_max < 1:
        raise OutOfRange(f"n_max must be >= 1, got {n_max}")
    if exact_cutoff < 0:
        raise OutOfRange(f"exact_cutoff must be >= 0, got {exact_cutoff}")
    if exact_cutoff > MAX_EXACT_CUTOFF:
        raise OverflowPolicyError(f"exact_cutoff={exact_cutoff} exceeds the configured bound {MAX_EXACT_CUTOFF}")

    tau, phi, _ = _phi_at_tau(spec)
    rho = tau / phi
    a = np.zeros(n_max + 1)
    mirror = np.zeros(n_max + 1)  # mirror[n_max - k] = a[k], so a_{n-k} runs forward
    a[1] = mirror[n_max - 1] = rho
    a1, alpha0 = _weight_terms(spec, float)
    for n in range(2, n_max + 1):
        conv = np.dot(a[1:n], mirror[n_max - n + 1 : n_max])
        a[n] = mirror[n_max - n] = (a1 * (n - 2) + 2 * alpha0) / (2 * (n - 1)) * conv

    logs = np.full(n_max + 1, np.nan)
    # n*ln(rho) in extended precision: its rounding would grow with n
    n_log_rho = np.arange(1, n_max + 1, dtype=np.longdouble) * np.log(np.longdouble(rho))
    logs[1:] = np.log(a[1:]) - n_log_rho

    return WeightedCounts(
        family=spec,
        n_max=n_max,
        log_values=logs,
        rho=rho,
        rho_scaled=a,
        scaled=_scaled_counts(spec, min(n_max, exact_cutoff)),
    )


def lagrange_counts(spec: FamilySpec, n_max: int) -> List[Fraction]:
    """Oracle: T_n = (1/n) [w^(n-1)] Phi(w)^n, exact, index 0 unused.

    O(n^3) series arithmetic; intended for cross-checks at small n_max.
    """
    phi = [phi_coefficient(spec, k) for k in range(n_max)]
    out: List[Fraction] = [Fraction(0)]
    power = [Fraction(1)] + [Fraction(0)] * (n_max - 1)  # Phi^0, truncated
    for n in range(1, n_max + 1):
        trunc = n_max
        new = [Fraction(0)] * trunc
        for i, pi in enumerate(power):
            if pi == 0:
                continue
            for j in range(min(len(phi), trunc - i)):
                if phi[j] != 0:
                    new[i + j] += pi * phi[j]
        power = new
        out.append(power[n - 1] / n)
    return out


@dataclass(frozen=True)
class SplitDistribution:
    """Law p_{n,1}..p_{n,n-1} of the root-side size after the first cut."""

    n: int
    probs: Sequence[Union[Fraction, float]]

    def prob(self, k: int) -> Union[Fraction, float]:
        if not 1 <= k <= self.n - 1:
            raise OutOfRange(f"k must be in [1, {self.n - 1}], got {k}")
        return self.probs[k - 1]

    def as_array(self) -> np.ndarray:
        return np.array([float(p) for p in self.probs])


def split_distribution(
    counts: WeightedCounts, n: int, symmetrized: bool = False
) -> SplitDistribution:
    """Splitting law for size n, exact when the counts reach that far.

    The symmetrized variant averages p_{n,k} with p_{n,n-k}; it is
    palindromic and describes cutting when the two sides are not
    distinguished.
    """
    if not 2 <= n <= counts.n_max:
        raise OutOfRange(f"n must be in [2, {counts.n_max}], got {n}")
    probs = _split_row(counts, n, n <= counts.exact_limit)
    if symmetrized:
        probs = (probs + probs[::-1]) / 2
    return SplitDistribution(n=n, probs=list(probs))


def _split_row(counts: WeightedCounts, n: int, exact: bool) -> np.ndarray:
    """Row p_{n,1..n-1} = w_k * t_k * t_{n-k} / ((n-1) * t_n).

    t is T as Fractions when ``exact``, else the rho-scaled floats a:
    rho^k * rho^(n-k) = rho^n, so a gives the same law as T while every
    factor stays inside double range.  The exact row is formed for k <= n/2
    only, the rest as p_{n,n-k} = p_{n,k} * w_{n-k} / w_k (t_k * t_{n-k} is
    symmetric), a big Fraction times a small one.
    """
    spec = counts.family
    if exact:
        t = np.array(counts.exact[: n + 1], dtype=object)
        w = spec.a1 * np.arange(1, n, dtype=object) + spec.a0
        h, m = n // 2, (n - 1) // 2  # p_{n,1..h} formed, p_{n,h+1..n-1} mirrored from p_{n,m..1}
        half = w[:h] * t[1 : h + 1] * t[n - 1 : n - h - 1 : -1] / ((n - 1) * t[n])
        return np.concatenate([half, half[:m][::-1] * (w[h:] / w[:m][::-1])])
    t = counts.rho_scaled
    a1, alpha0 = _weight_terms(spec)
    w = a1 * np.arange(n - 1, dtype=np.float64) + alpha0  # w_k for k = 1..n-1
    return w * t[1:n] * t[n - 1 : 0 : -1] / ((n - 1) * t[n])
