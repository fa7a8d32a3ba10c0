"""Weighted tree counts T_n and first-cut splitting distributions.

The counts satisfy the convolution recurrence

    (n-1) * T_n = sum_{k=1}^{n-1} (a1*k + a0) * T_k * T_{n-k},   T_1 = 1,

which is exactly the statement that the splitting probabilities

    p_{n,k} = (a1*k + a0) * T_k * T_{n-k} / ((n-1) * T_n)

sum to one.  T_n is kept two ways: exactly up to a cutoff, and as the
rho-scaled float a_n = rho^n * T_n for every n, where rho = tau/Phi(tau)
(tau = 1/a1) is the singularity of the tree GF.  T_n grows like
c * rho^-n * n^-3/2 and overflows doubles near n ~ 520 already for
ordered trees, but a_n ~ c * n^-3/2 stays well inside double range, and
rho^n = rho^k * rho^(n-k) leaves the recurrence and p_{n,k} unchanged
with a in place of T.  Since w_k + w_{n-k} = a1*n + 2*a0 for
w_k = a1*k + a0, the float recurrence folds to a plain convolution:

    a_n = (a1*n + 2*a0) / (2*(n-1)) * sum_k a_k * a_{n-k},   a_1 = rho.

An independent oracle computes T_n by Lagrange inversion of
T(z) = z*Phi(T(z)).

The exact recurrence runs on plain integers S_n = c_n * T_n, with L the
lcm of the denominators of a0 and a1, so that W_k = L*(a1*k + a0) is an
integer.  The scale starts as c_n = L^(n-1), under which

    (n-1) * S_n = sum_k W_k * S_k * S_{n-k},

and stays there while every such sum divides exactly by n-1 (ordered,
binary and d-ary trees, kind C with integer gamma).  At the first sum
that does not, the scale switches for the whole table to the
exponential-type normalisation c_n = (n-1)! * L^(n-1), which needs no
division at all:

    S_n = sum_k W_k * C(n-2, k-1) * S_k * S_{n-k}.

W_k + W_{n-k} does not depend on k, so both sums fold over k <-> n-k.
The exact T_n are handed out as reduced Fractions S_n / c_n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, mul
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import OutOfRange, OverflowPolicyError
from .family import FamilySpec, phi_coefficient, phi_value, tau_exact

_LN2 = math.log(2.0)

#: Hard ceiling on how many exact rationals a WeightedCounts may store.
MAX_EXACT_CUTOFF = 20_000


def _ln_fraction(x: Fraction) -> float:
    """Natural log of a positive Fraction, safe for huge numerators."""

    def ln_int(i: int) -> float:
        bits = i.bit_length()
        if bits <= 900:
            return math.log(i)
        shift = bits - 900
        return math.log(i >> shift) + shift * _LN2

    return ln_int(x.numerator) - ln_int(x.denominator)


@dataclass(frozen=True)
class WeightedCounts:
    """Counts T_1..T_n_max for one family.

    ``exact[n]`` is the exact Fraction T_n for 1 <= n <= exact_limit
    (index 0 is a placeholder).  ``log_values[n]`` is ln T_n for every
    1 <= n <= n_max.  ``rho_scaled[n]`` is a_n = rho**n * T_n for
    1 <= n <= n_max, with ``rho`` = tau/Phi(tau) in double precision.
    ``scaled[n]`` is the integer c_n * T_n the exact values come from,
    with c_n = L^(n-1), times (n-1)! when ``factorial_scale`` is set.
    """

    family: FamilySpec
    n_max: int
    exact_cutoff: int
    exact: List[Fraction]
    log_values: np.ndarray
    rho: float
    rho_scaled: np.ndarray = field(repr=False)
    scaled: List[int] = field(repr=False)
    factorial_scale: bool = field(repr=False)

    @property
    def exact_limit(self) -> int:
        return len(self.exact) - 1

    def exact_t(self, n: int) -> Fraction:
        if not 1 <= n <= self.exact_limit:
            raise OutOfRange(f"exact T_n available for 1 <= n <= {self.exact_limit}, got {n}")
        return self.exact[n]

    def log_t(self, n: int) -> float:
        if not 1 <= n <= self.n_max:
            raise OutOfRange(f"n must be in [1, {self.n_max}], got {n}")
        return float(self.log_values[n])

    def factorial_scaled(self, n_max: int) -> List[int]:
        """(n-1)! * L^(n-1) * T_n as ints for 1 <= n <= n_max (index 0 = 0)."""
        if not 1 <= n_max <= self.exact_limit:
            raise OutOfRange(f"exact T_n available for 1 <= n <= {self.exact_limit}, got {n_max}")
        if self.factorial_scale:
            return self.scaled[: n_max + 1]
        out = [0]
        fact = 1
        for n in range(1, n_max + 1):
            out.append(fact * self.scaled[n])
            fact *= n
        return out


def _weight_scale(spec: FamilySpec) -> int:
    """L, the lcm of the denominators of a0 and a1.

    It is the least positive integer that makes every W_k = L*(a1*k + a0)
    an integer.
    """
    return math.lcm(spec.a0.denominator, spec.a1.denominator)


def integer_weights(spec: FamilySpec, n_max: int) -> List[int]:
    """[W_0, ..., W_n_max] with W_k = L*(a1*k + a0)."""
    scale = _weight_scale(spec)
    la1, la0 = int(scale * spec.a1), int(scale * spec.a0)
    return [la1 * k + la0 for k in range(n_max + 1)]


def folded_sum(w: List[int], s: List[int], n: int, binom: Optional[List[int]] = None) -> int:
    """sum_k W_k * B_k * S_k * S_{n-k} over 1 <= k <= n-1, B_k = C(n-2, k-1) or 1.

    Terms k and n-k share S_k * S_{n-k} and B_k, and their weights add up
    to W_1 + W_{n-1}; the middle term of an even n stands alone.
    """
    half, mid = (n - 1) // 2, n // 2
    lower = s[1 : half + 1] if binom is None else list(map(mul, binom, s[1 : half + 1]))
    acc = (w[1] + w[n - 1]) * sum(map(mul, lower, s[n - 1 : n - half - 1 : -1]))
    if n % 2 == 0:
        acc += w[mid] * (1 if binom is None else binom[mid - 1]) * s[mid] ** 2
    return acc


def _scaled_counts(spec: FamilySpec, n_exact: int) -> Tuple[List[int], bool]:
    """S_n = c_n * T_n for 1 <= n <= n_exact, and whether c_n carries (n-1)!."""
    w = integer_weights(spec, n_exact)
    s = [0, 1]
    factorial = False
    binom: List[int] = []  # C(n-2, k-1) for k = 1..n-1, factorial scale only
    for n in range(2, n_exact + 1):
        if factorial:
            binom = [1, *map(add, binom, binom[1:]), 1]
        else:
            total, rest = divmod(folded_sum(w, s, n), n - 1)
            if rest == 0:
                s.append(total)
                continue
            factorial = True
            fact = 1
            for k in range(2, n):
                fact *= k - 1
                s[k] *= fact
            binom = [math.comb(n - 2, j) for j in range(n - 1)]
        s.append(folded_sum(w, s, n, binom))
    return s, factorial


def compute_counts(spec: FamilySpec, n_max: int, exact_cutoff: int = 400) -> WeightedCounts:
    """Run the convolution recurrence in exact and rho-scaled float form.

    Exact Fractions are kept for n <= min(n_max, exact_cutoff); the
    rho-scaled values (and hence ln T_n) cover all n <= n_max.
    """
    if n_max < 1:
        raise OutOfRange(f"n_max must be >= 1, got {n_max}")
    if exact_cutoff > MAX_EXACT_CUTOFF:
        raise OverflowPolicyError(f"exact_cutoff={exact_cutoff} exceeds the configured bound {MAX_EXACT_CUTOFF}")
    n_exact = min(n_max, exact_cutoff)

    scaled, factorial = _scaled_counts(spec, n_exact)
    scale = _weight_scale(spec)
    exact: List[Fraction] = [Fraction(0)]
    c_n = 1
    for n in range(1, n_exact + 1):
        exact.append(Fraction(scaled[n], c_n))
        c_n *= scale * n if factorial else scale

    tau = float(tau_exact(spec))
    rho = tau / phi_value(spec, tau)
    a = np.zeros(n_max + 1)
    mirror = np.zeros(n_max + 1)  # mirror[n_max - k] = a[k], so a_{n-k} runs forward
    a[1] = mirror[n_max - 1] = rho
    a1f, a0f = float(spec.a1), float(spec.a0)
    for n in range(2, n_max + 1):
        conv = np.dot(a[1:n], mirror[n_max - n + 1 : n_max])
        a[n] = mirror[n_max - n] = (a1f * n + 2.0 * a0f) / (2 * (n - 1)) * conv

    logs = np.full(n_max + 1, np.nan)
    # n*ln(rho) in extended precision: its rounding would grow with n
    n_log_rho = np.arange(1, n_max + 1, dtype=np.longdouble) * np.log(np.longdouble(rho))
    logs[1:] = np.log(a[1:]) - n_log_rho

    return WeightedCounts(
        family=spec,
        n_max=n_max,
        exact_cutoff=exact_cutoff,
        exact=exact,
        log_values=logs,
        rho=rho,
        rho_scaled=a,
        scaled=scaled,
        factorial_scale=factorial,
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
    symmetrized: bool
    exact: bool

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
    if n <= counts.exact_limit:
        probs: List[Union[Fraction, float]] = _prob_row_exact(counts, n)
    else:
        probs = list(_prob_row_float(counts, n))
    if symmetrized:
        rev = probs[::-1]
        probs = [(p + q) / 2 for p, q in zip(probs, rev)]
    return SplitDistribution(n=n, probs=probs, symmetrized=symmetrized, exact=n <= counts.exact_limit)


def _prob_row_exact(counts: WeightedCounts, n: int) -> List[Fraction]:
    """Exact row p_{n,1..n-1} from the scaled counts, one Fraction per k.

    p_{n,k} = W_k * S_k * S_{n-k} / ((n-1) * S_n) under c_n = L^(n-1),
    and W_k * C(n-2, k-1) * S_k * S_{n-k} / S_n under the factorial scale.
    """
    w = integer_weights(counts.family, n)
    s = counts.scaled
    if counts.factorial_scale:
        weights = [w[k] * math.comb(n - 2, k - 1) for k in range(1, n)]
        denom = s[n]
    else:
        weights = w[1:n]
        denom = (n - 1) * s[n]
    return [Fraction(wk * s[k] * s[n - k], denom) for k, wk in enumerate(weights, start=1)]


def _prob_row_float(counts: WeightedCounts, n: int) -> np.ndarray:
    """Float row p_{n,1..n-1} = w_k * a_k * a_{n-k} / ((n-1) * a_n).

    rho^k * rho^(n-k) = rho^n, so the rho-scaled counts give the same law
    as T_n while every factor stays inside double range.
    """
    spec = counts.family
    a = counts.rho_scaled
    w = float(spec.a1) * np.arange(1, n, dtype=np.float64) + float(spec.a0)
    return w * a[1:n] * a[n - 1 : 0 : -1] / ((n - 1) * a[n])
