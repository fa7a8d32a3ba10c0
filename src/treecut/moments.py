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

Every caller names the mode: ``"rational"`` tables are exact and need
integer alpha and a rational size-1 cost, ``"float"`` tables are double
precision, or 80-bit extended with ``dtype=numpy.longdouble``.  Exact
values are the reduced Fractions N_n^s / (S_n * D^s) of the integers

    N_n^s = (n-1)! * L^(n-1) * T_n * D^s * E V_n^s,

where L clears the denominators of a0 and a1, D that of the size-1 cost
t_1, and S_n = N_n^0 is the integer count of :mod:`treecut.counts`.  The
recurrence runs on N_n^s / (n-1)! modulo primes just below 2^20, where
1/(n-1) is a modular inverse and each k-sum a plain convolution, and
rebuilds each N_n^s once by the Chinese remainder theorem.  The rows
hold the residues as float64: a product of two residues is below 2^40,
so a k-sum of at most 8192 products stays below 2^53 and float64 adds it
exactly, faster than int64 does.  Each such sum is cast once to int64,
where every modular step runs.  Each pass over n takes as many primes as
fit their 8-byte rows into ``_CHUNK_BYTES`` = 8 MiB: all of them for
s = 2, alpha <= 1 up to n = 500.  One-sided, each finished row k is
weighted by W_k once, so the k-sum of each n is one product of stored
rows.

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
counts recurrence itself, and each order is divided by it in place, so
the float split law has mass 1 up to one rounding.  The kernel holds
O(n s): its order-major arrays and one block of the toll mix
C(s,r) t_n^(s-r), built for ``_TOLL_BYTES`` = 32 KiB of consecutive n at
a time, plus, two-sided, (s+1)^3 n / 2b mix weights for the partials.
A toll or a table entry past the range of the float type raises
ConfigError naming the first n.

Both kernels fold the two-sided sums over k <-> n-k; the direct sum over
every ordered term lives in the tests, as their Fraction oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .counts import WeightedCounts, _integer_weights, _weight_terms
from .errors import ConfigError, OutOfRange, OverflowPolicyError
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
        """Array t[0..n_max] with t[0] unused and t[1] the size-1 cost.

        Raises ConfigError when a toll passes the range of ``dtype``.
        """
        values = np.zeros(n_max + 1, dtype=dtype)
        n = np.arange(n_max + 1, dtype=dtype)
        with np.errstate(over="ignore"):
            values[1:] = n[1:] ** dtype(self.alpha)
        values[1] = float(self.t1)
        if not np.isfinite(values[-1]):  # t_n grows with n
            first = int(np.argmin(np.isfinite(values)))
            raise ConfigError(f"the toll n^{self.alpha} passes the {np.dtype(dtype).name} range from n = {first}")
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


def _moment_table(
    counts: WeightedCounts, toll: TollSpec, variant: str, n_max: Optional[int], s_max: int, mode: str, dtype
) -> MomentTable:
    n_max = counts.n_max if n_max is None else n_max
    if not 1 <= n_max <= counts.n_max:
        raise OutOfRange(f"n_max must be in [1, {counts.n_max}], got {n_max}")
    if s_max < 0:
        raise OutOfRange(f"s_max must be >= 0, got {s_max}")
    if mode == "rational":
        if not toll.is_rational:
            raise ConfigError("rational mode needs integer alpha and a rational size-1 cost")
        if n_max > counts.exact_limit:
            raise ConfigError(
                f"rational mode needs exact counts up to n_max={n_max}; "
                f"have {counts.exact_limit}"
            )
        rows = _rational_rows(counts, toll, variant, n_max, s_max)
    elif mode == "float":
        with np.errstate(over="ignore", invalid="ignore"):  # reported once, below
            rows = _float_rows(counts, toll, variant, n_max, s_max, dtype)
        bad = ~np.isfinite(rows[:, 1:])
        if bad.any():
            n, name = int(bad.any(axis=0).argmax()), np.dtype(dtype).name
            if variant == TWO_SIDED:  # every order of n sums all pairs, so one overflow poisons them all
                raise ConfigError(
                    f"E V_n^s passes the {name} range from n = {n + 1}: a product of two orders j, l with "
                    f"j + l up to 2 * s_max = {2 * s_max} passed it there and poisoned every order of that n; "
                    "use long double, or a smaller alpha, n_max or s_max"
                )
            raise ConfigError(
                f"E V_n^s passes the {name} range from n = {n + 1}, s = {int(bad[:, n].argmax())}; "
                "long double or a smaller s_max reaches further"
            )
    else:
        raise ConfigError(f"unknown mode {mode!r}")
    return MomentTable(variant, counts.family, toll, n_max, s_max, mode, rows)


def one_sided_moments(
    counts: WeightedCounts,
    toll: TollSpec,
    n_max: Optional[int] = None,
    s_max: int = 2,
    *,
    mode: str,
    dtype=np.float64,
) -> MomentTable:
    """Moment table of the one-sided (root-retaining) destruction cost."""
    return _moment_table(counts, toll, ONE_SIDED, n_max, s_max, mode, dtype)


def two_sided_moments(
    counts: WeightedCounts,
    toll: TollSpec,
    n_max: Optional[int] = None,
    s_max: int = 2,
    *,
    mode: str,
    dtype=np.float64,
) -> MomentTable:
    """Moment table of the two-sided (recurse-everywhere) destruction cost.

    The inner sums are folded using the k <-> n-k symmetry of the summand.
    """
    return _moment_table(counts, toll, TWO_SIDED, n_max, s_max, mode, dtype)


def _mix(size: int, dtype) -> np.ndarray:
    """The two-sided binomial mix y_r = sum_{j+l=r} C(r,j) G[j, l], as y = mix @ G.reshape(-1)."""
    mix = np.zeros((size, size * size), dtype=dtype)  # in floats: C(r, j) outgrows int64 from r = 67
    for j in range(size):
        for l in range(size - j):
            mix[j + l, j * size + l] = math.comb(j + l, j)
    return mix


# ---------------------------------------------------------------------------
# Exact kernel
# ---------------------------------------------------------------------------


#: Bytes of one chunk's 8-byte residue rows; it sets the primes per chunk.
_CHUNK_BYTES = 8 << 20

#: Products per float64 k-sum: each is at most (2^20 - 1)^2, so their sum stays below 2^53, exact.
_KSUM_TERMS = 8192

#: Values per float product of the Chinese remaindering.
_CRT_BLOCK = 64


@functools.cache
def _primes() -> np.ndarray:
    """The primes in (2^19, 2^20), largest first, sieved on first use.

    Each exceeds MAX_EXACT_CUTOFF, and a product of two residues stays below 2^40.
    """
    low = 1 << 19
    odd = np.ones(low // 2, dtype=bool)  # odd[j] stands for low + 2j + 1
    for i in range(3, 1 << 10, 2):
        odd[(-low - 1) * (i + 1) // 2 % i :: i] = False
    return (2 * np.flatnonzero(odd)[::-1] + low + 1).astype(np.int32)


def _residue_primes(counts: WeightedCounts, toll: TollSpec, n_max: int, s_max: int) -> np.ndarray:
    """The fewest primes of :func:`_primes` whose product exceeds 2 * max |N[s][n]|."""
    t1 = Fraction(toll.t1)
    reach = [(n - 1) * t1.denominator * n ** int(toll.alpha) + n * abs(t1.numerator) for n in range(n_max + 1)]
    bits = 1 + max(counts.scaled[n].bit_length() + s_max * reach[n].bit_length() for n in range(1, n_max + 1))
    primes = _primes()
    count = int(np.searchsorted(np.cumsum(np.log2(primes[: bits // 19 + 2])), bits + 1)) + 1
    if count > len(primes):
        raise OverflowPolicyError(f"exact moments need {bits} bits, more than {len(primes)} residue primes hold")
    return primes[:count].astype(np.int64)


def _running_products(a: np.ndarray, q) -> np.ndarray:
    """a[i] <- a[0] * ... * a[i] mod q down axis 0, in place, with products in int64.

    The rows go in blocks of about sqrt(n): one pass runs down the
    positions of all blocks at once, a second carries each block's
    product into the next, so each entry costs two products and the scan
    about 2 sqrt(n) numpy calls.
    """
    width = math.isqrt(len(a)) + 1
    for i in range(1, width):
        a[i::width] = np.multiply(a[i::width], a[i - 1 :: width][: len(a[i::width])], dtype=np.int64) % q
    for j in range(width, len(a), width):
        a[j : j + width] = np.multiply(a[j : j + width], a[j - 1], dtype=np.int64) % q
    return a


def _residue_rows(counts: WeightedCounts, toll: TollSpec, variant: str, n_max: int, s_max: int, q, crt) -> np.ndarray:
    """crt * N[s][n] mod each prime of q, as a float64 array [s - 1, n - 1, prime] of integers.

    On m[s][n] = N[s][n] / (n-1)! the binomials of the integer sums cancel:
    m[s][n] = sum_r C(s,r) tau_n^(s-r) y_r / (n-1), with the one-sided
    y_r = sum_k W_k m[r][k] m[0][n-k], on rows W_k m[r][k] weighted once
    when row k is done, and the two-sided y_r = sum_{j+l=r} C(r,j) sum_k
    W_k m[j][k] m[l][n-k], symmetric in (j, l), so its k-sum folds to
    k <= n/2 with weight W_1 + W_{n-1} = 2 W_{n/2}, for the pairs
    j + l <= s only.  The rows hold residues below 2^20 as float64, so a
    product is below 2^40 and a k-sum of at most ``_KSUM_TERMS`` = 8192
    products below 2^53, exact in float64.  Each such sum is cast once to
    int64; a longer k-sum adds its blocks of ``_KSUM_TERMS`` there, and
    every modular step runs in int64.  The toll enters by Pascal's rule
    F_i(r) = F_{i-1}(r+1) + tau_n F_{i-1}(r), F_0 = y, in place on y,
    reduced after every second step.  1/(n-1) = crt (n-2)! / (crt (n-1)!)
    comes from two running products down n, the second seeded with one
    inverse per prime; the first runs again after the loop for the factors
    crt (n-1)!, so the per-n table keeps two int32 slots.
    """
    size, c, ps = s_max + 1, len(q), [int(p) for p in q]
    n = np.arange(n_max + 1)[:, None]
    slope, base = (np.array([x % p for p in ps]) for x in _integer_weights(counts.family))  # W_k = slope*k + base
    steps = np.empty((n_max + 1, 2, c), dtype=np.int32)  # per n: 1/(n-1) times the k-sum's weight, and tau_n
    steps[1:, 0], steps[1:, 1] = np.maximum(n[:-1], 1), n_max - n[:-1]
    top = math.factorial(n_max - 1)
    steps[1, 0], steps[1, 1] = crt, [pow(top % p * x, -1, p) for x, p in zip(crt.tolist(), ps)]
    # running products crt i! and, from 1/(crt (n_max-1)!) times n_max-1, ..., i+1, their inverses, i < n_max
    fact, inverse = _running_products(steps[1:], q)[:, 0], steps[:0:-1, 1]
    steps[2:, 0] = np.multiply(fact[:-1], inverse[1:], dtype=np.int64) % q  # 1/(n-1) = crt (n-2)! / (crt (n-1)!)
    steps[:2, 0] = 1
    if variant == TWO_SIDED:  # W_1 + W_{n-1}, or W_{n/2} for even n, whose middle term is doubled below; < 2^36
        steps[:, 0] = steps[:, 0] * (slope * np.where(n % 2, n, n // 2) + base * np.where(n % 2, 2, 1)) % q
    else:
        w = ((slope * n + base) % q).astype(np.int32)
        wrows = np.zeros((size, n_max + 1, c))  # W_k m[s][k], weighted once per k
    t1 = Fraction(toll.t1)
    steps[:, 1] = [t1.denominator % p for p in ps]
    for _ in range(int(toll.alpha)):
        steps[:, 1] = steps[:, 1] * n % q
    pair_j, pair_l = np.nonzero(np.add.outer(np.arange(size), np.arange(size)) <= s_max)  # the (j, l) of the mix
    starts = np.searchsorted(pair_j, np.arange(size + 1))  # the pairs of j run from starts[j] to starts[j + 1]
    mix = _mix(size, np.int64)[:, pair_j * size + pair_l]
    sums = np.empty((len(pair_j), c))  # float64 k-sums of the pairs
    rows = np.zeros((size, n_max + 1, c))
    y = np.array([[pow(t1.numerator, s, p) for p in ps] for s in range(size)])  # tau_1 = D*t_1
    rows[:, 1] = y
    for m in range(2, n_max + 1):
        if variant == ONE_SIDED:
            wrows[:, m - 1] = y * w[m - 1] % q  # y still holds row m-1
            for lo in range(1, m, _KSUM_TERMS):
                hi = min(lo + _KSUM_TERMS, m)
                block = np.einsum("jkc,kc->jc", wrows[:, lo:hi], rows[0, m - lo : m - hi : -1]).astype(np.int64)
                y = block if lo == 1 else y + block
        else:
            half = (m - 1) // 2  # the k < n/2, paired with n-k
            for lo in range(1, max(half, 1) + 1, _KSUM_TERMS):
                hi = min(lo + _KSUM_TERMS, half + 1)
                lower, upper = rows[:, lo:hi], rows[:, m - lo : m - hi : -1]
                for j in range(size):
                    np.einsum("kc,lkc->lc", lower[j], upper[: size - j], out=sums[starts[j] : starts[j + 1]])
                block = sums.astype(np.int64)
                pairs = block if lo == 1 else pairs + block
            if m % 2 == 0:
                mid = rows[:, m // 2]
                pairs = 2 * pairs + (mid[pair_j] * mid[pair_l]).astype(np.int64)
            y = mix @ (pairs % q)
        fac, tau = steps[m, :2].astype(np.int64)
        y = y % q * fac % q
        for s in range(1, size):  # y[s:] becomes F_s(0), ..., F_s(size-1-s); y[r] ends as F_r(0)
            y[s:] += tau * y[s - 1 : -1]  # below 2^41 after one step from residues, 2^62 after two
            if s % 2 == 0 or s == s_max:
                y %= q
        rows[:, m] = y
    steps[1:, 0], steps[1, 0] = np.maximum(n[:-1], 1), crt  # crt (n-1)! once more, in the slot the loop is done with
    scale = _running_products(steps[1:, :1], q)[:, 0]
    spare = rows[0, 1:].view(np.int64)  # order 0 is not returned: its bytes hold each order's products
    for s in range(1, size):  # N[s][i] = (i-1)! m[s][i]
        np.multiply(scale, rows[s, 1:], out=spare, casting="unsafe")  # below 2^40, exact
        spare %= q
        rows[s, 1:] = spare
    return rows[1:, 1:]


def _rational_rows(counts: WeightedCounts, toll: TollSpec, variant: str, n_max: int, s_max: int) -> List[List]:
    """Exact rows[s][n] = E V_n^s = N[s][n] / (S_n * D^s) as reduced Fractions.

    The recurrence runs modulo P primes, in chunks whose 8-byte rows fit
    ``_CHUNK_BYTES`` (one-sided twice over, with the weighted copy).  Each
    chunk is one pass over n, and each pass pays the per-n numpy calls
    again.  A cost is at most n-1 tolls t_m <= t_n plus n size-1 costs, so
    |N[s][n]| <= S_n * ((n-1) tau_n + n |tau_1|)^s, and P is the fewest
    primes whose product M exceeds twice that.  Each N is rebuilt once by
    the Chinese remainder theorem, N = sum_i u_i M/p_i mod M with u_i =
    N (M/p_i)^(-1) mod p_i, as the symmetric residue (t_1 < 0 makes N < 0
    at odd s).  The sum is one float product of the u_i with the base-2^16
    digits of the M/p_i for ``_CRT_BLOCK`` values, exact as each digit sum
    stays below P * 2^36 < 2^53.  Numpy carries each digit sum's excess
    over 2^16 into the next digit until none is left, so each value then
    costs one ``int.from_bytes``, one reduction mod M and its Fraction.
    """
    if s_max > 43:  # y_r adds 2^r residues in int64
        raise OutOfRange(f"exact moments need s_max <= 43, got {s_max}")
    primes = _residue_primes(counts, toll, n_max, s_max)
    modulus = math.prod(int(p) for p in primes)
    crt = np.array([pow(modulus // p % p, -1, p) for p in map(int, primes)], dtype=np.int64)  # (M/p)^(-1) mod p
    residues = np.empty((s_max, n_max, len(primes)), dtype=np.float32)  # u_i < 2^20, exact in float32
    per_chunk = max(1, _CHUNK_BYTES // ((s_max + 1) * (n_max + 1) * 8 * (2 if variant == ONE_SIDED else 1)))
    for chunk in np.array_split(np.arange(len(primes)), -(-len(primes) // per_chunk)):
        residues[:, :, chunk] = _residue_rows(counts, toll, variant, n_max, s_max, primes[chunk], crt[chunk])
    digits = (modulus.bit_length() + len(primes).bit_length() + 15) // 16  # of the sum, below P * M as u_i < p_i
    basis = np.empty((len(primes), digits))  # base-2^16 digits of M/p
    for row, p in zip(basis, map(int, primes)):
        row[:] = np.frombuffer((modulus // p).to_bytes(2 * digits, "little"), dtype="<u2")
    flat = residues.reshape(s_max * n_max, len(primes))
    denom, half = Fraction(toll.t1).denominator, modulus // 2
    out: List[List] = [[None] + [Fraction(1)] * n_max] + [[None] for _ in range(s_max)]
    for lo in range(0, len(flat), _CRT_BLOCK):
        sums = (flat[lo : lo + _CRT_BLOCK].astype(np.float64) @ basis).astype(np.int64)
        carry = sums >> 16
        while carry.any():  # until every digit is below 2^16
            sums &= 0xFFFF
            sums[:, 1:] += carry[:, :-1]
            carry = sums >> 16
        data, width = sums.astype("<u2").tobytes(), 2 * digits
        for i, at in enumerate(range(0, len(data), width), lo):
            x = int.from_bytes(data[at : at + width], "little") % modulus
            s, n = divmod(i, n_max)
            out[s + 1].append(Fraction(x - modulus if x > half else x, counts.scaled[n + 1] * denom ** (s + 1)))
    return out


# ---------------------------------------------------------------------------
# Float kernel
# ---------------------------------------------------------------------------


#: Terms per partial product of the two-sided float k-sum.
_BLOCK = 128

#: Bytes of one block of the float toll mix; it sets the sizes n per block.
_TOLL_BYTES = 32 << 10


def _toll_mix(tolls: np.ndarray, scale: np.ndarray, size: int):
    """Yield (n, M_n) for n >= 2, with M_n[s, r] = C(s,r) * t_n^(s-r) * scale_n.

    The matrices are built for one block of consecutive n at a time, a
    C-contiguous array of at most ``_TOLL_BYTES``, so the toll mix never
    holds all n at once.
    """
    orders = np.arange(size)
    comb = np.array([[math.comb(s, r) for r in range(size)] for s in range(size)], dtype=tolls.dtype)
    gaps = np.maximum(orders[:, None] - orders, 0)  # s - r; the cells r > s take t^0 = 1 times C(s,r) = 0
    step = max(1, _TOLL_BYTES // (size * size * tolls.itemsize))
    for lo in range(2, len(tolls), step):
        powers = tolls[lo : lo + step, None] ** orders
        block = np.multiply(comb, powers.take(gaps, axis=1), order="C")  # the layout sets the BLAS path of each M_n @ y
        block *= scale[lo : lo + step, None, None]
        yield from enumerate(block, lo)


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
    on sliding-window views of the two arrays, with the zero columns
    padding the first block, and the partials are added at the end, in
    the product with the mix.  That bounds the rounding of the k-sum by (b + n/b) u
    in place of (n-1) u (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., SIAM 2002, sec. 4.2).  The fold alone, one
    product per n over k <= h, left 2-8x the blocked cancellation error
    in the alpha = 0 central moments at n = 10^4, so the blocks buy the
    accuracy and the fold the speed.

    Order 0 is the counts recurrence itself, y_0 = a_n with a_1 = rho, and
    every order is divided by it, so the implied split law has mass 1 up
    to one rounding.  The division runs in place on F, which is returned
    as the table (one-sided transposed, two-sided from column b on), and
    the toll mix comes from :func:`_toll_mix` one block of n at a time.
    So the kernel holds O(n s): F, its mirror or weighted copy, and one
    toll block, plus, two-sided, the mix weights, (s+1)^3 n / 2b entries,
    9.8 MB in float64 at s = 30, n = 10^4.
    """
    size = s_max + 1
    k = np.arange(n_max + 1, dtype=dtype)
    a1, alpha0 = _weight_terms(counts.family, dtype)
    w = a1 * (k - 1) + alpha0
    scale = np.zeros(n_max + 1, dtype=dtype)
    scale[2:] = (a1 * (k[2:] - 2) + 2 * alpha0 if variant == TWO_SIDED else dtype(1)) / (k[2:] - 1)
    tolls = toll.float_values(n_max, dtype=dtype)
    first = dtype(counts.rho) * tolls[1] ** np.arange(size)

    if variant == ONE_SIDED:
        f = np.zeros((n_max + 1, size), dtype=dtype)
        f[1] = first
        left = w[:, None] * f  # w_k F[k]
        right = np.zeros(n_max + 1, dtype=dtype)  # right[n_max - k] = a_k
        right[n_max - 1] = first[0]
        for n, toll_n in _toll_mix(tolls, scale, size):
            f[n] = toll_n @ (left[1:n].T @ right[n_max - n + 1 : n_max])
            right[n_max - n] = f[n, 0]
            left[n] = w[n] * f[n]
        f[1:] /= f[1:, :1].copy()
        return f.T

    b, cells = _BLOCK, size * size
    most = -(-((n_max - 1) // 2) // b)  # blocks in the largest half-sum
    mix = _mix(size, dtype)
    # parts[0] holds the middle term of an even n, weighted by mix / 2, and parts[1:] the block partials
    weights = np.hstack([mix / 2] + [mix] * most)
    parts = np.zeros((most + 1, size, size), dtype=dtype)
    flat = parts.reshape(-1)
    fwd = np.zeros((size, b + n_max + 1), dtype=dtype)  # fwd[:, b + k] = F_k
    rev = np.zeros_like(fwd)  # rev[:, b + n_max - k] = F_k
    fwd[:, b + 1] = rev[:, b + n_max - 1] = first
    left = sliding_window_view(fwd, b, axis=1).transpose(1, 0, 2)  # left[c] = fwd[:, c : c + b]
    right = sliding_window_view(rev, b, axis=1).transpose(1, 2, 0)  # right[c] = rev[:, c : c + b].T
    for n, toll_n in _toll_mix(tolls, scale, size):
        half = (n - 1) // 2
        blocks = -(-half // b)
        lo = b + half + 1 - blocks * b  # fwd column of the first k, padded to whole blocks
        mirror = lo + n_max - n  # rev column of F_{n-k} for that k
        np.matmul(left[lo : lo + blocks * b : b], right[mirror : mirror + blocks * b : b], out=parts[1 : blocks + 1])
        used = slice(cells * (n % 2), cells * (blocks + 1))
        if n % 2 == 0:
            mid = fwd[:, b + n // 2]
            np.multiply.outer(mid, mid, out=parts[0])
        fwd[:, b + n] = rev[:, b + n_max - n] = toll_n @ (weights[:, used] @ flat[used])
    fwd[:, b + 1 :] /= fwd[0, b + 1 :].copy()
    return fwd[:, b:]


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
    if not 0 <= s <= table.s_max:
        raise OutOfRange(f"s must be in [0, {table.s_max}], got {s}")
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
