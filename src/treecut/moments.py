"""Exact dynamic programming for destruction-cost moments.

Costs are driven by the toll t_n = n^alpha charged when an edge is cut
in a component of size n.  Writing K for the root-side size after the
cut (law p_{n,k} from :mod:`treecut.counts`),

    one-sided:  Y_n = t_n + Y_K                 (non-root side discarded)
    two-sided:  X_n = t_n + X_K + X*_{n-K}      (recurse on both sides)

so raw moments fill bottom-up in n via binomial/multinomial expansion:

    E Y_n^s = sum_{j<=s} C(s,j) t_n^(s-j) * sum_k p_{n,k} E Y_k^j
    E X_n^s = sum_{s1+s2+s3=s} C(s;s1,s2,s3) t_n^s1
              * sum_k p_{n,k} E X_k^s2 E X_{n-k}^s3

The size-1 boundary is a convention, not part of the toll law: by
default a size-1 component costs t_1 = 1 (so E V_1^s = 1), matching the
recursive boundary condition V_1 = t_1.  Setting ``size_one_cost=0``
charges nothing for isolated vertices, which makes the two-sided cost at
alpha = 0 exactly the number of edges, n - 1 (with the default it is
exactly 2n - 1).  The two conventions differ by a deterministic shift:
one-sided by t_1, two-sided by n * t_1.

Tables are exact whenever every toll value is rational (integer alpha,
or a rational override table), else double precision; an 80-bit
extended mode is available via ``dtype=numpy.longdouble``.  The exact
recurrence runs on plain integers

    N_n^s = (n-1)! * L^(n-1) * T_n * D^s * E V_n^s,

where L clears the denominators of a0 and a1 and D those of the tolls
t_1..t_n.  Order 0 is the integer count S_n of :mod:`treecut.counts`,
which is on this scale already.  The factor (n-1)! absorbs the division
by n-1 that every level of the moments needs, so each step is an
integer sum of products with no division.  The reduced
Fractions E V_n^s = N_n^s / (N_n^0 * D^s) are built once, after the
recurrence.

The float recurrence runs on F_n^s = a_n * E V_n^s, with the rho-scaled
counts a_n = rho^n * T_n of :mod:`treecut.counts`, which stay inside
double range for every n.  Every inner sum is then a plain convolution
over k, and the orders s <= s_max of one n come from one small matrix
product.  Order 0 is the counts recurrence itself, and each order is
divided by it, so the float split law has mass 1 up to one rounding.

Both kernels fold the two-sided sums over k <-> n-k; the direct sum over
every ordered term lives in the tests, as their Fraction oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from .counts import WeightedCounts, integer_weights
from .errors import ConfigError, OutOfRange
from .family import FamilySpec

Value = Union[Fraction, float]

ONE_SIDED = "one_sided"
TWO_SIDED = "two_sided"


@dataclass(frozen=True)
class TollSpec:
    """Toll t_n = n^alpha, an optional override table, and the size-1 cost.

    ``override`` (when given) supplies t_1..t_len(override) verbatim and
    takes precedence over alpha.  ``size_one_cost`` is the cost assigned
    to a size-1 component; None means "t_1 from the override, else 1".
    """

    alpha: float = 0.0
    override: Optional[tuple] = None
    size_one_cost: Optional[Value] = None

    def __post_init__(self):
        if self.override is None and not (self.alpha >= 0 and math.isfinite(self.alpha)):
            raise ConfigError(f"alpha must be finite and >= 0, got {self.alpha}")
        if self.override is not None:
            if len(self.override) < 1:
                raise ConfigError("override table must supply at least t_1")
            for t in self.override:
                if not math.isfinite(float(t)):
                    raise ConfigError("override toll values must be finite")
        if self.size_one_cost is not None and not math.isfinite(float(self.size_one_cost)):
            raise ConfigError(f"size_one_cost must be finite, got {self.size_one_cost}")

    @property
    def t1(self) -> Value:
        if self.size_one_cost is not None:
            return self.size_one_cost
        if self.override is not None:
            return self.override[0]
        return 1

    @property
    def is_rational(self) -> bool:
        """True when every toll value (including t_1) is exactly rational."""
        if not isinstance(self.t1, (int, Fraction)):
            return False
        if self.override is not None:
            return all(isinstance(t, (int, Fraction)) for t in self.override)
        return float(self.alpha).is_integer()

    def exact_value(self, n: int) -> Fraction:
        if not self.is_rational:
            raise ConfigError("toll is not exactly rational; use float mode")
        if n == 1:
            return Fraction(self.t1)
        if self.override is not None:
            if n > len(self.override):
                raise OutOfRange(f"override table has no t_{n}")
            return Fraction(self.override[n - 1])
        return Fraction(n) ** int(self.alpha)

    def float_values(self, n_max: int, dtype=np.float64) -> np.ndarray:
        """Array t[0..n_max] with t[0] unused and t[1] the size-1 cost."""
        values = np.zeros(n_max + 1, dtype=dtype)
        if self.override is not None:
            if n_max > len(self.override):
                raise OutOfRange(f"override table has no t_{n_max}")
            values[1 : n_max + 1] = [float(t) for t in self.override[:n_max]]
        else:
            n = np.arange(n_max + 1, dtype=dtype)
            with np.errstate(divide="ignore"):
                values[1:] = n[1:] ** dtype(self.alpha)
        values[1] = float(self.t1)
        return values


@dataclass(frozen=True)
class MomentTable:
    """Raw moments E V_n^s for 1 <= n <= n_max, 0 <= s <= s_max."""

    variant: str
    family: FamilySpec
    toll: TollSpec
    n_max: int
    s_max: int
    mode: str  # "rational" | "float"
    rows: Sequence  # rows[s][n]; list of Fraction lists, or a 2-D ndarray

    def moment(self, n: int, s: int) -> Value:
        if not 1 <= n <= self.n_max:
            raise OutOfRange(f"n must be in [1, {self.n_max}], got {n}")
        if not 0 <= s <= self.s_max:
            raise OutOfRange(f"s must be in [0, {self.s_max}], got {s}")
        value = self.rows[s][n]
        return value if self.mode == "rational" else float(value)

    def row(self, s: int) -> np.ndarray:
        """Moments of order s as a float array indexed by n (index 0 = nan)."""
        if not 0 <= s <= self.s_max:
            raise OutOfRange(f"s must be in [0, {self.s_max}], got {s}")
        out = np.full(self.n_max + 1, np.nan)
        out[1:] = [float(v) for v in self.rows[s][1 : self.n_max + 1]]
        return out


def _resolve_mode(counts: WeightedCounts, toll: TollSpec, n_max: int, mode: str) -> str:
    if mode == "auto":
        return "rational" if toll.is_rational and n_max <= counts.exact_limit else "float"
    if mode == "rational":
        if not toll.is_rational:
            raise ConfigError("rational mode needs integer alpha or a rational override")
        if n_max > counts.exact_limit:
            raise ConfigError(
                f"rational mode needs exact counts up to n_max={n_max}; "
                f"have {counts.exact_limit}"
            )
        return mode
    if mode == "float":
        return mode
    raise ConfigError(f"unknown mode {mode!r}")


def _check_args(counts: WeightedCounts, n_max: int, s_max: int) -> None:
    if not 1 <= n_max <= counts.n_max:
        raise OutOfRange(f"n_max must be in [1, {counts.n_max}], got {n_max}")
    if s_max < 0:
        raise OutOfRange(f"s_max must be >= 0, got {s_max}")


def one_sided_moments(
    counts: WeightedCounts,
    toll: TollSpec,
    n_max: Optional[int] = None,
    s_max: int = 2,
    mode: str = "auto",
    dtype=np.float64,
) -> MomentTable:
    """Moment table of the one-sided (root-retaining) destruction cost."""
    n_max = counts.n_max if n_max is None else n_max
    _check_args(counts, n_max, s_max)
    resolved = _resolve_mode(counts, toll, n_max, mode)
    if resolved == "rational":
        rows = _rational_rows(counts, toll, ONE_SIDED, n_max, s_max)
    else:
        rows = _float_rows(counts, toll, ONE_SIDED, n_max, s_max, dtype)
    return MomentTable(ONE_SIDED, counts.family, toll, n_max, s_max, resolved, rows)


def two_sided_moments(
    counts: WeightedCounts,
    toll: TollSpec,
    n_max: Optional[int] = None,
    s_max: int = 2,
    mode: str = "auto",
    dtype=np.float64,
) -> MomentTable:
    """Moment table of the two-sided (recurse-everywhere) destruction cost.

    The inner sums are folded using the k <-> n-k symmetry of the summand.
    """
    n_max = counts.n_max if n_max is None else n_max
    _check_args(counts, n_max, s_max)
    resolved = _resolve_mode(counts, toll, n_max, mode)
    if resolved == "rational":
        rows = _rational_rows(counts, toll, TWO_SIDED, n_max, s_max)
    else:
        rows = _float_rows(counts, toll, TWO_SIDED, n_max, s_max, dtype)
    return MomentTable(TWO_SIDED, counts.family, toll, n_max, s_max, resolved, rows)


# ---------------------------------------------------------------------------
# Exact kernel
# ---------------------------------------------------------------------------


def folded_sum(w: List[int], s: List[int], n: int, binom: List[int]) -> int:
    """sum_k W_k * B_k * S_k * S_{n-k} over 1 <= k <= n-1, with B_k = C(n-2, k-1).

    Terms k and n-k share S_k * S_{n-k} and B_k, and their weights add up
    to W_1 + W_{n-1}; the middle term of an even n stands alone.
    """
    half, mid = (n - 1) // 2, n // 2
    lower = map(mul, binom, s[1 : half + 1])
    acc = (w[1] + w[n - 1]) * sum(map(mul, lower, s[n - 1 : n - half - 1 : -1]))
    if n % 2 == 0:
        acc += w[mid] * binom[mid - 1] * s[mid] ** 2
    return acc


def _rational_rows(counts: WeightedCounts, toll: TollSpec, variant: str, n_max: int, s_max: int) -> List[List]:
    """Exact rows[s][n] = E V_n^s as reduced Fractions, from an integer recurrence.

    N[s][n] = (n-1)! * L^(n-1) * T_n * D^s * E V_n^s is an integer, with
    W_k = L*(a1*k + a0), D the lcm of the toll denominators and
    tau_n = D*t_n.  Row 0 is the count S_n = ``counts.scaled``.  Both
    variants share

        N[s][n] = sum_r C(s,r) * tau_n^(s-r) * Y_r,      Y_0 = N[0][n],

    where, with B_k = C(n-2, k-1),

        one-sided:  Y_r = sum_k W_k B_k N[r][k] N[0][n-k]
        two-sided:  Y_r = sum_{j+l=r} C(r,j) sum_k W_k B_k N[j][k] N[l][n-k].

    The two-sided sum is folded over k <-> n-k: B_k = B_{n-k}, and
    W_k + W_{n-k} = W_1 + W_{n-1} for every k.
    """
    w = integer_weights(counts.family, n_max)
    tolls = [toll.exact_value(n) for n in range(1, n_max + 1)]
    denom = math.lcm(*(t.denominator for t in tolls))
    tau = [0] + [t.numerator * (denom // t.denominator) for t in tolls]
    rows = [counts.scaled[: n_max + 1]] + [[0] * (n_max + 1) for _ in range(s_max)]
    for s in range(1, s_max + 1):
        rows[s][1] = tau[1] ** s
    comb = [[math.comb(s, r) for r in range(s + 1)] for s in range(s_max + 1)]
    binom = [1]  # B_k for k = 1..n-1, advanced along Pascal's triangle
    for n in range(2, n_max + 1):
        if n > 2:
            binom = [1, *map(add, binom, binom[1:]), 1]
        fwd = [row[1:n] for row in rows]  # N[j][k], k = 1..n-1
        rev = [row[n - 1 : 0 : -1] for row in rows]  # N[l][n-k]
        y = [rows[0][n]]
        if variant == ONE_SIDED:
            partner = list(map(mul, map(mul, w[1:n], binom), rev[0]))
            y += [sum(map(mul, partner, fwd[r])) for r in range(1, s_max + 1)]
        else:
            bf = [list(map(mul, binom, fwd[j])) for j in range((s_max + 1) // 2)]
            for r in range(1, s_max + 1):
                # j < l = r-j: one dot over every k carries both orders (j, l) and (l, j)
                acc = sum(comb[r][j] * sum(map(mul, bf[j], rev[r - j])) for j in range((r + 1) // 2))
                acc *= w[1] + w[n - 1]
                if r % 2 == 0:
                    acc += comb[r][r // 2] * folded_sum(w, rows[r // 2], n, binom)
                y.append(acc)
        tpow = [1]
        for _ in range(s_max):
            tpow.append(tpow[-1] * tau[n])
        for s in range(1, s_max + 1):
            rows[s][n] = sum(comb[s][r] * tpow[s - r] * y[r] for r in range(s + 1))
    counts_row = rows[0]
    out: List[List] = [[None] + [Fraction(1)] * n_max]
    for s in range(1, s_max + 1):
        scale = denom**s
        out.append([None] + [Fraction(v, c * scale) for v, c in zip(rows[s][1:], counts_row[1:])])
    return out


# ---------------------------------------------------------------------------
# Float kernel
# ---------------------------------------------------------------------------


def _float_rows(counts: WeightedCounts, toll: TollSpec, variant: str, n_max: int, s_max: int, dtype) -> np.ndarray:
    """Float rows[s][n] = E V_n^s from the rho-scaled recurrence, in ``dtype``.

    F[k, s] = a_k * E V_k^s with a_k = rho^k * T_k (see :mod:`treecut.counts`)
    turns p_{n,k} = w_k a_k a_{n-k} / ((n-1) a_n) into a convolution.  Both
    variants share

        F[n, s] = sum_r C(s,r) * t_n^(s-r) * y_r,

        one-sided:  y_r = sum_k w_k F[k, r] a_{n-k} / (n-1)
        two-sided:  y_r = sum_{j+l=r} C(r,j) sum_k w_k F[k, j] F[n-k, l] / (n-1),

    one matvec or one (s+1)x(s+1) matrix product per n.  The two-sided
    sum is symmetric in k <-> n-k, so it drops w_k and multiplies by
    (w_k + w_{n-k}) / 2 = (a1*n + 2*a0) / 2 instead.  Order 0 is the counts
    recurrence itself, y_0 = a_n with a_1 = rho, and every order is divided
    by it, so the implied split law has mass 1 up to one rounding.
    """
    size = s_max + 1
    two = variant == TWO_SIDED
    k = np.arange(n_max + 1, dtype=dtype)
    w = dtype(float(counts.family.a1)) * k + dtype(float(counts.family.a0))
    scale = np.zeros(n_max + 1, dtype=dtype)
    scale[2:] = ((w[1] + w[1:n_max]) / 2 if two else dtype(1)) / (k[2:] - 1)
    powers = toll.float_values(n_max, dtype=dtype)[:, None] ** np.arange(size)
    tollmix = np.zeros((n_max + 1, size, size), dtype=dtype)  # [n, s, r] = C(s,r) t_n^(s-r) scale_n
    for s in range(size):
        for r in range(s + 1):
            tollmix[:, s, r] = math.comb(s, r) * powers[:, s - r] * scale
    if two:  # y_r = sum_{j+l=r} C(r,j) G[j, l] as G.ravel() @ mix
        mix = np.zeros((size * size, size), dtype=dtype)
        for j in range(size):
            for l in range(size - j):
                mix[j * size + l, j + l] = math.comb(j + l, j)
    partner = slice(None) if two else 0  # F[n-k, partner] meets F[k]

    f = np.zeros((n_max + 1, size), dtype=dtype)
    f[1] = dtype(counts.rho) * powers[1]
    left = f if two else w[:, None] * f  # the forward operand, w_k F[k] one-sided
    right = np.zeros((n_max + 1, size) if two else n_max + 1, dtype=dtype)
    right[n_max - 1] = f[1, partner]  # right[n_max - k] = F[k, partner]
    for n in range(2, n_max + 1):
        y = left[1:n].T @ right[n_max - n + 1 : n_max]
        if two:
            y = y.ravel() @ mix
        f[n] = tollmix[n] @ y
        right[n_max - n] = f[n, partner]
        if not two:
            left[n] = w[n] * f[n]
    rows = np.zeros((size, n_max + 1), dtype=dtype)
    rows[:, 1:] = (f[1:] / f[1:, :1]).T
    return rows


# ---------------------------------------------------------------------------
# Centered / shifted moments
# ---------------------------------------------------------------------------


def shifted_moments(
    table: MomentTable,
    shift: Callable[[int], Value],
    s: int,
    n_values: Optional[Sequence[int]] = None,
) -> List[Value]:
    """Moments E (V_n - shift(n))^s from the raw table, by binomial expansion.

    Exact when the table is rational and the shift returns rationals.
    """
    if s > table.s_max:
        raise OutOfRange(f"need raw moments up to order {s}, table has s_max={table.s_max}")
    ns = range(1, table.n_max + 1) if n_values is None else n_values
    out: List[Value] = []
    for n in ns:
        c = shift(n)
        num = Fraction if table.mode == "rational" and isinstance(c, (int, Fraction)) else float
        c = num(c)
        acc = num(0)
        for j in range(s + 1):
            acc += math.comb(s, j) * (-c) ** (s - j) * num(table.moment(n, j))
        out.append(acc)
    return out
