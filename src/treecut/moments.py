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

Tables are exact whenever every toll value is rational (integer alpha
and a rational size-1 cost), else double precision; an 80-bit
extended mode is available via ``dtype=numpy.longdouble``.  The exact
recurrence runs on plain integers

    N_n^s = (n-1)! * L^(n-1) * T_n * D^s * E V_n^s,

where L clears the denominators of a0 and a1 and D that of the size-1
cost t_1.  Order 0 is the integer count S_n of :mod:`treecut.counts`,
which is on this scale already.  The factor (n-1)! absorbs the division
by n-1 that every level of the moments needs, so each step is an
integer sum of products with no division.  The reduced
Fractions E V_n^s = N_n^s / (N_n^0 * D^s) are built once, after the
recurrence.

The float recurrence runs on F_n^s = a_n * E V_n^s, with the rho-scaled
counts a_n = rho^n * T_n of :mod:`treecut.counts`, which stay inside
double range for every n.  Every inner sum is then a plain convolution
over k.  One-sided, the orders s <= s_max of one n come from one matrix
product.  Two-sided, F is stored order-major, one contiguous row per
order, and the sum runs over the pairs k <= (n-1)/2 only, as partial
products of b = ``_BLOCK`` = 128 terms in one batched product per n.
The blocks bound the rounding of a k-sum by (b + n/b) u instead of
(n-1) u, with u the unit roundoff; the fold taken as one product per n
measured 2-8x more cancellation error at n = 10^4.  Order 0 is the
counts recurrence itself, and each order is divided by it, so the float
split law has mass 1 up to one rounding.

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
from numpy.lib.stride_tricks import as_strided

from .counts import WeightedCounts, integer_weights
from .errors import ConfigError, OutOfRange
from .family import FamilySpec

Value = Union[Fraction, float]

ONE_SIDED = "one_sided"
TWO_SIDED = "two_sided"


@dataclass(frozen=True)
class TollSpec:
    """Toll t_n = n^alpha for n >= 2, and the cost of a size-1 component.

    ``size_one_cost`` None means t_1 = 1^alpha = 1.
    """

    alpha: float = 0.0
    size_one_cost: Optional[Value] = None

    def __post_init__(self):
        if not (self.alpha >= 0 and math.isfinite(self.alpha)):
            raise ConfigError(f"alpha must be finite and >= 0, got {self.alpha}")
        if self.size_one_cost is not None and not math.isfinite(float(self.size_one_cost)):
            raise ConfigError(f"size_one_cost must be finite, got {self.size_one_cost}")

    @property
    def t1(self) -> Value:
        return 1 if self.size_one_cost is None else self.size_one_cost

    @property
    def is_rational(self) -> bool:
        """True when every toll value (including t_1) is exactly rational."""
        return isinstance(self.t1, (int, Fraction)) and float(self.alpha).is_integer()

    def exact_value(self, n: int) -> Fraction:
        if not self.is_rational:
            raise ConfigError("toll is not exactly rational; use float mode")
        if n == 1:
            return Fraction(self.t1)
        return Fraction(n) ** int(self.alpha)

    def float_values(self, n_max: int, dtype=np.float64) -> np.ndarray:
        """Array t[0..n_max] with t[0] unused and t[1] the size-1 cost."""
        values = np.zeros(n_max + 1, dtype=dtype)
        n = np.arange(n_max + 1, dtype=dtype)
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
        values = self.rows[s][1 : self.n_max + 1]
        out[1:] = [float(v) for v in values] if self.mode == "rational" else values
        return out


def _resolve_mode(counts: WeightedCounts, toll: TollSpec, n_max: int, mode: str) -> str:
    if mode == "auto":
        return "rational" if toll.is_rational and n_max <= counts.exact_limit else "float"
    if mode == "rational":
        if not toll.is_rational:
            raise ConfigError("rational mode needs integer alpha and a rational size-1 cost")
        if n_max > counts.exact_limit:
            raise ConfigError(
                f"rational mode needs exact counts up to n_max={n_max}; "
                f"have {counts.exact_limit}"
            )
        return mode
    if mode == "float":
        return mode
    raise ConfigError(f"unknown mode {mode!r}")


def _moment_table(
    counts: WeightedCounts, toll: TollSpec, variant: str, n_max: Optional[int], s_max: int, mode: str, dtype
) -> MomentTable:
    n_max = counts.n_max if n_max is None else n_max
    if not 1 <= n_max <= counts.n_max:
        raise OutOfRange(f"n_max must be in [1, {counts.n_max}], got {n_max}")
    if s_max < 0:
        raise OutOfRange(f"s_max must be >= 0, got {s_max}")
    resolved = _resolve_mode(counts, toll, n_max, mode)
    if resolved == "rational":
        rows = _rational_rows(counts, toll, variant, n_max, s_max)
    else:
        rows = _float_rows(counts, toll, variant, n_max, s_max, dtype)
    return MomentTable(variant, counts.family, toll, n_max, s_max, resolved, rows)


def one_sided_moments(
    counts: WeightedCounts,
    toll: TollSpec,
    n_max: Optional[int] = None,
    s_max: int = 2,
    mode: str = "auto",
    dtype=np.float64,
) -> MomentTable:
    """Moment table of the one-sided (root-retaining) destruction cost."""
    return _moment_table(counts, toll, ONE_SIDED, n_max, s_max, mode, dtype)


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
    return _moment_table(counts, toll, TWO_SIDED, n_max, s_max, mode, dtype)


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
    W_k = L*(a1*k + a0), D the denominator of the size-1 cost t_1 and
    tau_n = D*t_n, an integer since t_n = n^alpha for n >= 2.  Row 0 is the count S_n = ``counts.scaled``.  Both
    variants share

        N[s][n] = sum_r C(s,r) * tau_n^(s-r) * Y_r,      Y_0 = N[0][n],

    where, with B_k = C(n-2, k-1),

        one-sided:  Y_r = sum_k W_k B_k N[r][k] N[0][n-k]
        two-sided:  Y_r = sum_{j+l=r} C(r,j) sum_k W_k B_k N[j][k] N[l][n-k].

    The two-sided sum is folded over k <-> n-k: B_k = B_{n-k}, and
    W_k + W_{n-k} = W_1 + W_{n-1} for every k.
    """
    w = integer_weights(counts.family, n_max)
    t1 = Fraction(toll.t1)
    denom = t1.denominator
    power = int(toll.alpha)
    tau = [0, t1.numerator] + [denom * n**power for n in range(2, n_max + 1)]
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


#: Terms per partial product of the two-sided float k-sum.
_BLOCK = 128


def _float_rows(counts: WeightedCounts, toll: TollSpec, variant: str, n_max: int, s_max: int, dtype) -> np.ndarray:
    """Float rows[s][n] = E V_n^s from the rho-scaled recurrence, in ``dtype``.

    F[k, s] = a_k * E V_k^s with a_k = rho^k * T_k (see :mod:`treecut.counts`)
    turns p_{n,k} = w_k a_k a_{n-k} / ((n-1) a_n) into a convolution.  Both
    variants share

        F[n, s] = sum_r C(s,r) * t_n^(s-r) * y_r,

        one-sided:  y_r = sum_k w_k F[k, r] a_{n-k} / (n-1)
        two-sided:  y_r = sum_{j+l=r} C(r,j) G[j, l],
                    G = sum_k w_k F[k] (x) F[n-k] / (n-1).

    One-sided, y is one matvec per n over k-major F.  Two-sided, the mix
    y_r = sum_{j+l=r} C(r,j) G[j, l] is symmetric in (j, l), so the terms
    k and n-k of G give the same y; their weights add up to
    w_1 + w_{n-1}, so with h = (n-1) // 2

        y = (w_1 + w_{n-1}) / (n-1) * mix(sum_{k<=h} F_k (x) F_{n-k}
                                          + [n even] F_{n/2} (x) F_{n/2} / 2),

    an exact identity with half the products of the full sum.  F is stored
    order-major, one contiguous row per order with b = ``_BLOCK`` zero
    columns below k = 1, next to its mirror, which holds F_k at column
    b + n_max - k, so both operands of the k-sum are contiguous in k.  The
    half-sum is taken as partial products of b terms, one batched matmul
    on strided views of the two arrays with the zero columns padding the
    first block, and the partials are added at the end, in the product
    with the mix.  That bounds the rounding of the k-sum by (b + n/b) u
    in place of (n-1) u (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., SIAM 2002, sec. 4.2).  The fold alone, one
    product per n over k <= h, left 2-8x the blocked cancellation error
    in the alpha = 0 central moments at n = 10^4, so the blocks buy the
    accuracy and the fold the speed.

    Order 0 is the counts recurrence itself, y_0 = a_n with a_1 = rho, and
    every order is divided by it, so the implied split law has mass 1 up
    to one rounding.
    """
    size = s_max + 1
    k = np.arange(n_max + 1, dtype=dtype)
    w = dtype(float(counts.family.a1)) * k + dtype(float(counts.family.a0))
    scale = np.zeros(n_max + 1, dtype=dtype)
    scale[2:] = (w[1] + w[1:n_max] if variant == TWO_SIDED else dtype(1)) / (k[2:] - 1)
    powers = toll.float_values(n_max, dtype=dtype)[:, None] ** np.arange(size)
    tollmix = np.zeros((n_max + 1, size, size), dtype=dtype)  # [n, s, r] = C(s,r) t_n^(s-r) scale_n
    for s in range(size):
        for r in range(s + 1):
            tollmix[:, s, r] = math.comb(s, r) * powers[:, s - r] * scale
    first = dtype(counts.rho) * powers[1]
    rows = np.zeros((size, n_max + 1), dtype=dtype)

    if variant == ONE_SIDED:
        f = np.zeros((n_max + 1, size), dtype=dtype)
        f[1] = first
        left = w[:, None] * f  # w_k F[k]
        right = np.zeros(n_max + 1, dtype=dtype)  # right[n_max - k] = a_k
        right[n_max - 1] = first[0]
        for n in range(2, n_max + 1):
            f[n] = tollmix[n] @ (left[1:n].T @ right[n_max - n + 1 : n_max])
            right[n_max - n] = f[n, 0]
            left[n] = w[n] * f[n]
        rows[:, 1:] = (f[1:] / f[1:, :1]).T
        return rows

    b, cells = _BLOCK, size * size
    most = -(-((n_max - 1) // 2) // b)  # blocks in the largest half-sum
    mix = np.zeros((size, cells), dtype=dtype)  # y_r = sum_{j,l} mix[r, j*size + l] G[j, l]
    for j in range(size):
        for l in range(size - j):
            mix[j + l, j * size + l] = math.comb(j + l, j)
    # parts[0] holds the middle term of an even n, weighted by mix / 2, and parts[1:] the block partials
    weights = np.hstack([mix / 2] + [mix] * most)
    parts = np.zeros((most + 1, size, size), dtype=dtype)
    flat = parts.reshape(-1)
    fwd = np.zeros((size, b + n_max + 1), dtype=dtype)  # fwd[:, b + k] = F_k
    rev = np.zeros_like(fwd)  # rev[:, b + n_max - k] = F_k
    fwd[:, b + 1] = rev[:, b + n_max - 1] = first
    lanes, unit, stride = fwd.shape[1] - b + 1, fwd.strides[1], fwd.strides[0]
    left = as_strided(fwd, (lanes, size, b), (unit, stride, unit), writeable=False)  # fwd[:, c : c + b]
    right = as_strided(rev, (lanes, b, size), (unit, unit, stride), writeable=False)  # rev[:, c : c + b].T
    for n in range(2, n_max + 1):
        half = (n - 1) // 2
        blocks = -(-half // b)
        lo = b + half + 1 - blocks * b  # fwd column of the first k, padded to whole blocks
        mirror = lo + n_max - n  # rev column of F_{n-k} for that k
        np.matmul(left[lo : lo + blocks * b : b], right[mirror : mirror + blocks * b : b], out=parts[1 : blocks + 1])
        used = slice(cells * (n % 2), cells * (blocks + 1))
        if n % 2 == 0:
            mid = fwd[:, b + n // 2]
            np.multiply.outer(mid, mid, out=parts[0])
        fwd[:, b + n] = rev[:, b + n_max - n] = tollmix[n] @ (weights[:, used] @ flat[used])
    rows[:, 1:] = fwd[:, b + 1 :] / fwd[0, b + 1 :]
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
