"""Exact moment recurrences for both destruction variants.

Claims covered:
    - hand-computed small cases (one-sided ordered alpha=0 mean 11/4 with
      the default size-1 cost; two-sided Cayley alpha=1 mean 8 at n=3)
    - exhaustive brute-force equivalence on all trees x cut sequences
    - the alpha=0 two-sided degeneracy: cost is exactly n-1 under the
      edges-only boundary and exactly 2n-1 under the default; the two
      conventions differ by the deterministic shift n * t1
    - the residue kernel (the recurrence modulo primes below 2^20, its
      two-sided sums folded over k <-> n-k, each value rebuilt by the
      Chinese remainder theorem) equals a plain Fraction transcription of
      the recurrences that sums every ordered term directly: for kinds A,
      B and C (a0 zero, positive and negative) and a toll with its own
      denominators, on Cayley trees at alpha=2 up to n=60, and at its
      edges (n_max of 1, 2 and 3, s_max = 0, negative values from
      t_1 = -1/3 at odd s, tau_n = n^4, L = 8, and a size-1 cost of
      10^12/7); the float table follows it to 1e-12 up to n=150
    - the residue kernel's tables do not depend on how the primes are
      chunked: with a byte budget of one or two primes per chunk they
      equal the default one-chunk tables (both variants, three families,
      n=80, s=3, t_1 = 2/5), and no chunk's 8-byte rows exceed the budget
    - its float64 k-sums are exact: the cap of 8192 products below 2^40
      keeps each sum below 2^53, and with the cap cut to 3 products, so
      that every k-sum adds its blocks in int64, the tables still equal
      the default ones and the Fraction oracle (both variants, three
      families, n=80, s=3, t_1 = 2/5)
    - the Chinese remaindering's blocks of 64 values meet the oracle at
      their edges: s*n = 64, 65 and 128, with negative values from
      t_1 = -1/3 at odd s, and moduli whose bits fill their top 16-bit
      digit, so that the digit sums carry past it
    - the primes' product exceeds twice every |N[s][n]| of the real
      table, rebuilt from its Fractions as E V_n^s * S_n * D^s, and every
      prime lies between MAX_EXACT_CUTOFF and 2^20; exact tables reach
      s_max = 43, where the int64 binomial mix still holds, and stop there
    - float tables track rational tables to 1e-12 at n=200 with the
      two-sided k-sum blocked by 1, 3 and the default 128 terms, equal
      them at n <= 3, and track them to 1e-13 (n=300, alpha=1, s<=3,
      three families, both variants)
    - the float kernel does not cancel: at alpha=0 the two-sided cost is
      deterministic and its float central moments stay below 2.5e-14 of
      the mean's powers at n=10^4
    - two-sided float64 rows match the long-double rows to 5e-15 at
      n=2000 (s<=4, alpha in {0, 1/2, 1}, three families)
    - the float kernel holds O(n s): under tracemalloc a table at s = 20
      (n = 2000 in float64, n = 600 in long double, both variants) peaks
      below the size of the whole toll mix alone; building that mix one n
      per block changes no bit, shape, dtype or zero column 0 of a table
    - two-sided float tables go past s = 67, where the binomial mix
      leaves int64, and match brute force to 1e-12 up to s = 70
    - Jensen, toll monotonicity, one-sided <= two-sided means
    - re-rooting: on Cayley trees the exact two-sided alpha=1 mean is n
      times the one-sided alpha=0 mean for n <= 60, for three size-1
      costs; on ordered trees it is not
    - shifted moments by binomial expansion, exact in rational mode
    - range errors carry their message: a table's n or s out of range
      (also a negative order of shifted moments), a table past its
      counts or with s_max < 0, an exact value of a non-rational toll,
      and the brute-force enumerator at size 0 or an unknown variant
    - TollSpec rejects a non-finite size-1 cost and keeps negative ones
    - a toll or a float table that passes the float64 range raises
      ConfigError naming the first n (and s), with no numpy warning;
      long double or a smaller s_max reaches those entries
"""

import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from treecut import moments
from treecut.bruteforce import enumerate_trees, family_moments, tree_moments
from treecut.counts import MAX_EXACT_CUTOFF, compute_counts
from treecut.errors import ConfigError, OutOfRange
from treecut.family import binary, cayley, make_family, ordered
from treecut.moments import (
    ONE_SIDED,
    TWO_SIDED,
    TollSpec,
    one_sided_moments,
    shifted_moments,
    two_sided_moments,
)

FAMILIES = [cayley(), binary(), ordered()]


@pytest.fixture(scope="module")
def tables():
    return {spec.kind: compute_counts(spec, 200, exact_cutoff=200) for spec in FAMILIES}


def test_one_sided_hand_values(tables):
    table = one_sided_moments(tables["C"], TollSpec(alpha=0), 5, 2, mode="rational")
    # Y_1 = 1, Y_2 = 2, mu_3 = 1 + (1/4)*1 + (3/4)*2
    assert table.moment(2, 1) == 2
    assert table.moment(3, 1) == Fraction(11, 4)
    cay = one_sided_moments(tables["A"], TollSpec(alpha=0), 3, 2, mode="rational")
    assert cay.moment(2, 2) == 4  # Y_2 == 2 deterministically


def test_two_sided_hand_values(tables):
    table = two_sided_moments(tables["A"], TollSpec(alpha=1), 4, 2, mode="rational")
    assert table.moment(2, 1) == 4  # X_2 = 2 + X_1 + X_1*
    assert table.moment(3, 1) == 8


def test_zeroth_moment_and_boundary(tables):
    for variant_maker in (one_sided_moments, two_sided_moments):
        table = variant_maker(tables["B"], TollSpec(alpha=2), 30, 3, mode="rational")
        assert all(table.moment(n, 0) == 1 for n in range(1, 31))
        assert table.moment(1, 3) == 1  # t_1^s


@pytest.mark.parametrize("alpha", [0, 1, 2])
@pytest.mark.parametrize("size_one", [None, 0])
def test_bruteforce_equivalence_small(tables, alpha, size_one):
    toll = TollSpec(alpha=alpha, size_one_cost=size_one)
    for spec in (ordered(), cayley()):
        counts = tables[spec.kind]
        one = one_sided_moments(counts, toll, 4, 2, mode="rational")
        two = two_sided_moments(counts, toll, 4, 2, mode="rational")
        for n in range(1, 5):
            oracle_one = family_moments(spec, n, toll, 2, ONE_SIDED)
            oracle_two = family_moments(spec, n, toll, 2, TWO_SIDED)
            for s in range(3):
                assert one.moment(n, s) == oracle_one[s]
                assert two.moment(n, s) == oracle_two[s]


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: s.label())
def test_alpha0_two_sided_degeneracy(spec, tables):
    counts = tables[spec.kind]
    edges_only = two_sided_moments(counts, TollSpec(alpha=0, size_one_cost=0), 120, 2, mode="rational")
    default = two_sided_moments(counts, TollSpec(alpha=0), 120, 2, mode="rational")
    for n in range(1, 121):
        assert edges_only.moment(n, 1) == n - 1
        assert edges_only.moment(n, 2) == (n - 1) ** 2  # zero variance
        assert default.moment(n, 1) == 2 * n - 1  # extra n * t1
    # the boundary charge is a deterministic shift: central moments agree
    central_edges = shifted_moments(edges_only, lambda n: n - 1, 2)
    central_default = shifted_moments(default, lambda n: 2 * n - 1, 2)
    assert central_edges == central_default == [0] * 120


def test_one_sided_boundary_shift(tables):
    # one-sided costs differ between the conventions by exactly t1
    counts = tables["C"]
    a = one_sided_moments(counts, TollSpec(alpha=1), 50, 1, mode="rational")
    b = one_sided_moments(counts, TollSpec(alpha=1, size_one_cost=0), 50, 1, mode="rational")
    assert all(a.moment(n, 1) - b.moment(n, 1) == 1 for n in range(1, 51))


@pytest.mark.parametrize("variant_maker", [one_sided_moments, two_sided_moments])
def test_float_matches_rational(tables, variant_maker, monkeypatch):
    counts = tables["C"]
    toll = TollSpec(alpha=1)
    exact = variant_maker(counts, toll, 200, 3, mode="rational")
    # blocks of 1 and 3 terms put block edges inside the two-sided half-sums at both parities of n
    for block in (1, 3, moments._BLOCK):
        monkeypatch.setattr(moments, "_BLOCK", block)
        floats = variant_maker(counts, toll, 200, 3, mode="float")
        worst = max(
            abs(floats.moment(n, s) / float(exact.moment(n, s)) - 1)
            for n in range(1, 201)
            for s in range(4)
        )
        assert worst < 1e-12, block
        for n_max in (1, 2, 3):
            small = variant_maker(counts, toll, n_max, 3, mode="float")
            assert [small.moment(n, s) for n in range(1, n_max + 1) for s in range(4)] == [
                float(exact.moment(n, s)) for n in range(1, n_max + 1) for s in range(4)
            ], (block, n_max)


@pytest.fixture(scope="module")
def tables300():
    return {spec.kind: compute_counts(spec, 300, exact_cutoff=300) for spec in FAMILIES}


@pytest.mark.parametrize("variant_maker", [one_sided_moments, two_sided_moments])
@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: s.label())
def test_float_matches_rational_n300(tables300, spec, variant_maker):
    counts = tables300[spec.kind]
    toll = TollSpec(alpha=1)
    exact = variant_maker(counts, toll, 300, 3, mode="rational")
    floats = variant_maker(counts, toll, 300, 3, mode="float")
    worst = max(
        abs(floats.moment(n, s) / float(exact.moment(n, s)) - 1)
        for n in range(1, 301)
        for s in range(4)
    )
    assert worst <= 1e-13


@pytest.mark.parametrize("spec", [ordered(), cayley()], ids=lambda s: s.label())
def test_float_central_moments_alpha0_n10000(spec):
    # the cost is exactly 2n - 1, so every central moment is 0
    n = 10_000
    counts = compute_counts(spec, n, exact_cutoff=1)
    table = two_sided_moments(counts, TollSpec(alpha=0), n, 4, mode="float")
    mean = table.moment(n, 1)
    for s in (2, 3, 4):
        assert abs(shifted_moments(table, lambda _: mean, s, [n])[0]) / mean**s <= 2.5e-14


def test_paired_equals_direct(tables):
    counts = tables["A"]
    toll = TollSpec(alpha=2)
    paired = two_sided_moments(counts, toll, 60, 3, mode="rational")
    assert paired.rows == _reference_two_sided(counts, toll, 60, 3)
    exact = two_sided_moments(counts, toll, 150, 3, mode="rational")
    pf = two_sided_moments(counts, toll, 150, 3, mode="float")
    assert np.allclose(pf.row(3)[1:], exact.row(3)[1:], rtol=1e-12)


def test_jensen_inequality(tables):
    for spec in FAMILIES:
        for alpha in (0.0, 0.5, 1.0, 2.0):
            for maker in (one_sided_moments, two_sided_moments):
                table = maker(tables[spec.kind], TollSpec(alpha=alpha), 200, 2, mode="float")
                mu1 = table.row(1)[1:]
                mu2 = table.row(2)[1:]
                assert np.all(mu2 >= mu1**2 * (1 - 1e-12))


def test_mean_monotone_in_alpha(tables):
    grid = [0.0, 0.25, 0.5, 1.0, 1.5, 2.0]
    for maker in (one_sided_moments, two_sided_moments):
        for n in (10, 50, 200):
            values = [
                maker(tables["C"], TollSpec(alpha=a), n, 1, mode="float").moment(n, 1)
                for a in grid
            ]
            assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


def test_two_sided_dominates_one_sided(tables):
    for spec in FAMILIES:
        for alpha in (0.0, 1.0):
            toll = TollSpec(alpha=alpha)
            one = one_sided_moments(tables[spec.kind], toll, 150, 1, mode="float")
            two = two_sided_moments(tables[spec.kind], toll, 150, 1, mode="float")
            assert all(two.moment(n, 1) >= one.moment(n, 1) - 1e-9 for n in range(1, 151))


@pytest.mark.parametrize("size_one", [None, 0, Fraction(2, 5)], ids=["default", "edges-only", "2/5"])
def test_cayley_rerooting_identity(tables, size_one):
    # A Cayley tree is equally likely rooted at each of its n vertices, and the
    # two-sided alpha=1 cost charges each vertex once per cut that reaches it:
    # summing the one-sided alpha=0 cost over all roots gives E X_n = n * E Y_n.
    def means(spec):
        counts = tables[spec.kind]
        two = two_sided_moments(counts, TollSpec(alpha=1, size_one_cost=size_one), 60, 1, mode="rational")
        one = one_sided_moments(counts, TollSpec(alpha=0, size_one_cost=size_one), 60, 1, mode="rational")
        return [two.moment(n, 1) for n in range(1, 61)], [n * one.moment(n, 1) for n in range(1, 61)]

    x, n_y = means(cayley())
    assert x == n_y
    x, n_y = means(ordered())  # re-rooting changes the law of an ordered tree
    assert x[2] != n_y[2]


def test_shifted_moments_identities(tables):
    table = one_sided_moments(tables["C"], TollSpec(alpha=0), 10, 2, mode="rational")
    raw = shifted_moments(table, lambda n: 0, 2)
    assert raw == [table.moment(n, 2) for n in range(1, 11)]
    variance = shifted_moments(table, lambda n: table.moment(n, 1), 2)
    assert variance[2] == table.moment(3, 2) - Fraction(11, 4) ** 2
    assert all(v >= 0 for v in variance)
    with pytest.raises(OutOfRange):
        shifted_moments(table, lambda n: 0, 3)



def _small_table(tables):
    return one_sided_moments(tables["C"], TollSpec(alpha=0), 10, 2, mode="rational")


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda tables: _small_table(tables).moment(11, 1), OutOfRange, "n must be in [1, 10], got 11"),
        (lambda tables: _small_table(tables).moment(5, 3), OutOfRange, "s must be in [0, 2], got 3"),
        (lambda tables: _small_table(tables).row(-1), OutOfRange, "s must be in [0, 2], got -1"),
        # a negative order is out of range, not an empty binomial sum of 0
        (lambda tables: shifted_moments(_small_table(tables), lambda n: 0, -1, [5]), OutOfRange,
         "s must be in [0, 2], got -1"),
        (lambda tables: one_sided_moments(tables["C"], TollSpec(alpha=0), 201, 1, mode="float"), OutOfRange,
         "n_max must be in [1, 200], got 201"),
        (lambda tables: two_sided_moments(tables["C"], TollSpec(alpha=0), 10, -1, mode="float"), OutOfRange,
         "s_max must be >= 0, got -1"),
        (lambda tables: TollSpec(alpha=0.5).exact_value(3), ConfigError, "toll is not exactly rational; use float mode"),
        (lambda tables: enumerate_trees(0), ValueError, "tree size must be >= 1"),
        (lambda tables: tree_moments((), TollSpec(alpha=0), 1, "bogus"), ValueError, "unknown variant 'bogus'"),
    ],
    ids=["moment-n", "moment-s", "row-s", "shifted-s", "table-n_max", "table-s_max", "exact-toll",
         "enumerate-0", "tree-variant"],
)
def test_range_errors(tables, call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call(tables)


def test_toll_spec_validation():
    with pytest.raises(ConfigError):
        TollSpec(alpha=-1)
    with pytest.raises(ConfigError):
        TollSpec(alpha=math.inf)
    assert TollSpec(alpha=2).exact_value(3) == 9
    assert not TollSpec(alpha=0.5).is_rational
    assert TollSpec(alpha=2.0).is_rational
    values = TollSpec(alpha=2).float_values(4)
    assert list(values[1:]) == [1.0, 4.0, 9.0, 16.0]
    # 6^400 passes float64: an infinite toll would turn a whole table, or the sampler's sums, into NaN
    with pytest.raises(ConfigError, match=r"toll n\^400.0 passes the float64 range from n = 6"):
        TollSpec(alpha=400.0).float_values(8)
    assert np.isfinite(TollSpec(alpha=400.0).float_values(8, dtype=np.longdouble)).all()


def test_overflowing_float_table_raises():
    counts = compute_counts(ordered(), 8, exact_cutoff=1)
    for maker in (one_sided_moments, two_sided_moments):
        with pytest.raises(ConfigError, match=r"toll n\^400.0"):
            maker(counts, TollSpec(alpha=400.0), 8, 2, mode="float")
    # at alpha = 100, t_6^4 = 6^400 passes float64 while the orders below 4 stay finite
    toll = TollSpec(alpha=100)
    with pytest.raises(ConfigError, match="from n = 6, s = 4; long double or a smaller s_max reaches further"):
        one_sided_moments(counts, toll, 8, 4, mode="float")
    with pytest.raises(ConfigError, match="passes the float64 range"):
        two_sided_moments(counts, toll, 8, 4, mode="float")
    for maker in (one_sided_moments, two_sided_moments):
        assert np.isfinite(maker(counts, toll, 8, 4, mode="float", dtype=np.longdouble).rows).all()
    assert np.isfinite(one_sided_moments(counts, toll, 8, 3, mode="float").rows).all()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_size_one_cost_must_be_finite(value):
    with pytest.raises(ConfigError):
        TollSpec(alpha=1, size_one_cost=value)
    assert TollSpec(alpha=1, size_one_cost=-0.5).t1 == -0.5  # negative finite costs stay allowed


def test_rational_mode_requires_rational_toll(tables):
    with pytest.raises(ConfigError):
        one_sided_moments(tables["C"], TollSpec(alpha=0.5), 10, 1, mode="rational")
    short = compute_counts(ordered(), 50, exact_cutoff=20)
    with pytest.raises(ConfigError):
        one_sided_moments(short, TollSpec(alpha=1), 50, 1, mode="rational")
    with pytest.raises(ConfigError):  # choosing the mode is the caller's: "auto" is the CLI's, not the library's
        one_sided_moments(short, TollSpec(alpha=1), 20, 1, mode="auto")


def test_extended_precision_mode(tables):
    toll = TollSpec(alpha=1)
    base = two_sided_moments(tables["C"], toll, 120, 2, mode="float")
    wide = two_sided_moments(tables["C"], toll, 120, 2, mode="float", dtype=np.longdouble)
    assert wide.rows.dtype == np.longdouble
    assert np.allclose(wide.row(2)[1:], base.row(2)[1:], rtol=1e-10)
    # the blocked two-sided k-sum keeps float64 within a few roundings of long double
    n = 2000
    for spec in FAMILIES:
        counts = compute_counts(spec, n, exact_cutoff=1)
        for alpha in (0, 0.5, 1):
            toll = TollSpec(alpha=alpha)
            base = two_sided_moments(counts, toll, n, 4, mode="float").rows[:, 1:]
            wide = two_sided_moments(counts, toll, n, 4, mode="float", dtype=np.longdouble).rows[:, 1:]
            assert np.max(np.abs(base / wide - 1)) <= 5e-15, (spec.label(), alpha)


@pytest.mark.parametrize("maker", [one_sided_moments, two_sided_moments])
@pytest.mark.parametrize("n_max, dtype", [(2000, np.float64), (600, np.longdouble)])
def test_float_table_memory_below_toll_mix(maker, n_max, dtype):
    # the kernel holds its order-major arrays and one block of the toll mix, so its traced peak stays
    # below the (n+1) x (s+1) x (s+1) toll mix that a kernel holding every n at once would need
    s_max = 20
    counts = compute_counts(ordered(), n_max, exact_cutoff=1)
    tracemalloc.start()
    try:
        maker(counts, TollSpec(alpha=1), n_max, s_max, mode="float", dtype=dtype)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (n_max + 1) * (s_max + 1) ** 2 * np.dtype(dtype).itemsize


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_toll_blocks_leave_float_tables_unchanged(tables, dtype, monkeypatch):
    # each toll matrix is the same elementwise product in any block, so one n per block changes no bit
    toll, n_max, s_max = TollSpec(alpha=0.37, size_one_cost=0.5), 200, 4
    makers = (one_sided_moments, two_sided_moments)
    whole = [make(tables["C"], toll, n_max, s_max, mode="float", dtype=dtype) for make in makers]
    assert all(table.rows.shape == (s_max + 1, n_max + 1) and table.rows.dtype == dtype for table in whole)
    assert all(np.all(table.rows[:, 0] == 0) for table in whole)
    monkeypatch.setattr(moments, "_TOLL_BYTES", 1)
    for make, table in zip(makers, whole):
        assert np.array_equal(make(tables["C"], toll, n_max, s_max, mode="float", dtype=dtype).rows, table.rows)


@pytest.fixture(scope="module")
def brute_force_s70():
    """Brute-force two-sided moments of ordered trees at n = 5, alpha = 1, s <= 70 (4-6 s, so built once)."""
    return family_moments(ordered(), 5, TollSpec(alpha=1), 70, TWO_SIDED)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_two_sided_float_orders_past_int64_binomials(tables, brute_force_s70, dtype):
    # the binomial mix needs C(67, 33) > 2^63 at s = 67 and C(68, 34) > 2^64 at s = 68
    toll, s_max, oracle = TollSpec(alpha=1), 70, brute_force_s70
    table = two_sided_moments(tables[ordered().kind], toll, 5, s_max, mode="float", dtype=dtype)
    for s in range(s_max + 1):
        assert float(table.moment(5, s)) == pytest.approx(float(oracle[s]), rel=1e-12), s


# ---------------------------------------------------------------------------
# Reference: the moment recurrences transcribed on Fractions
# ---------------------------------------------------------------------------


def _reference_frame(counts, toll, n_max, s_max):
    t = counts.exact
    tolls = [None] + [toll.exact_value(n) for n in range(1, n_max + 1)]
    weights = [None] + [counts.family.a1 * k + counts.family.a0 for k in range(1, n_max + 1)]
    rows = [[None] * (n_max + 1) for _ in range(s_max + 1)]
    for n in range(1, n_max + 1):
        rows[0][n] = Fraction(1)
    for s in range(1, s_max + 1):
        rows[s][1] = tolls[1] ** s
    return t, tolls, weights, rows


def _reference_one_sided(counts, toll, n_max, s_max):
    t, tolls, weights, rows = _reference_frame(counts, toll, n_max, s_max)
    for n in range(2, n_max + 1):
        denom = (n - 1) * t[n]
        q = [weights[k] * t[k] * t[n - k] for k in range(1, n)]
        hit = [Fraction(1)]  # hit[j] = sum_k p_{n,k} E V_k^j
        for j in range(1, s_max + 1):
            hit.append(sum(qk * rows[j][k] for k, qk in zip(range(1, n), q)) / denom)
        for s in range(1, s_max + 1):
            rows[s][n] = sum(math.comb(s, j) * tolls[n] ** (s - j) * hit[j] for j in range(s + 1))
    return rows


def _reference_two_sided(counts, toll, n_max, s_max):
    t, tolls, weights, rows = _reference_frame(counts, toll, n_max, s_max)
    for n in range(2, n_max + 1):
        denom = (n - 1) * t[n]
        q = [weights[k] * t[k] * t[n - k] for k in range(1, n)]
        cross = {}
        for j in range(s_max + 1):
            for l in range(s_max + 1 - j):
                rj, rl = rows[j], rows[l]
                cross[(j, l)] = sum(qk * rj[k] * rl[n - k] for k, qk in zip(range(1, n), q)) / denom
        for s in range(1, s_max + 1):
            acc = Fraction(0)
            for s1 in range(s + 1):
                for s2 in range(s - s1 + 1):
                    coeff = math.comb(s, s1) * math.comb(s - s1, s2)
                    acc += coeff * tolls[n] ** s1 * cross[(s2, s - s1 - s2)]
            rows[s][n] = acc
    return rows


ORACLE_FAMILIES = [
    make_family("A", 2),
    make_family("C", 1, alpha1=2),  # gamma = 1/3
    make_family("B", "3/2", d=4),  # L = 8
    ordered(),
]


@pytest.mark.parametrize("spec", ORACLE_FAMILIES, ids=lambda s: s.label())
def test_integer_kernel_matches_fraction_reference(spec):
    # t_1 = 2/5 makes D = 5, so order s carries the scale D^s
    n, s_max = 40, 3
    counts = compute_counts(spec, n, exact_cutoff=n)
    for alpha in (1, 2):
        toll = TollSpec(alpha=alpha, size_one_cost=Fraction(2, 5))
        one = one_sided_moments(counts, toll, n, s_max, mode="rational")
        assert one.rows == _reference_one_sided(counts, toll, n, s_max)
        two = two_sided_moments(counts, toll, n, s_max, mode="rational")
        assert two.rows == _reference_two_sided(counts, toll, n, s_max)
        assert all(isinstance(v, Fraction) for row in two.rows for v in row[1:])


RESIDUE_EDGES = [
    (ordered(), 1, None, 1, 3),
    (ordered(), 1, None, 2, 3),
    (cayley(), 2, Fraction(2, 5), 3, 3),
    (binary(), 1, None, 12, 0),
    (ordered(), 1, Fraction(-1, 3), 30, 3),  # odd orders of a cost that can be negative
    (cayley(), 4, None, 30, 3),  # tau_n = n^4
    (make_family("B", "3/2", d=4), 2, Fraction(-1, 3), 30, 3),  # L = 8
    (ordered(), 0, Fraction(10**12, 7), 20, 3),  # the size-1 costs dominate the bound
]


@pytest.mark.parametrize(
    "spec, alpha, size_one, n_max, s_max", RESIDUE_EDGES,
    ids=["n1", "n2", "n3", "s0", "t1-negative", "alpha4", "B-L8", "t1-large"],
)
def test_residue_kernel_edge_cases(spec, alpha, size_one, n_max, s_max):
    counts = compute_counts(spec, n_max, exact_cutoff=n_max)
    toll = TollSpec(alpha=alpha, size_one_cost=size_one)
    one = one_sided_moments(counts, toll, n_max, s_max, mode="rational")
    assert one.rows == _reference_one_sided(counts, toll, n_max, s_max)
    two = two_sided_moments(counts, toll, n_max, s_max, mode="rational")
    assert two.rows == _reference_two_sided(counts, toll, n_max, s_max)


@pytest.mark.parametrize(
    "spec, alpha, size_one, n_max, s_max", RESIDUE_EDGES[4:], ids=["t1-negative", "alpha4", "B-L8", "t1-large"]
)
def test_residue_modulus_bound(spec, alpha, size_one, n_max, s_max):
    # the primes' product exceeds twice every |N[s][n]| = |E V_n^s| * S_n * D^s of the real table
    counts = compute_counts(spec, n_max, exact_cutoff=n_max)
    toll = TollSpec(alpha=alpha, size_one_cost=size_one)
    primes = [int(p) for p in moments._residue_primes(counts, toll, n_max, s_max)]
    modulus = math.prod(primes)
    scale = Fraction(toll.t1).denominator
    for maker in (one_sided_moments, two_sided_moments):
        table = maker(counts, toll, n_max, s_max, mode="rational")
        cells = [(n, s) for n in range(1, n_max + 1) for s in range(s_max + 1)]
        rebuilt = [table.moment(n, s) * counts.scaled[n] * scale**s for n, s in cells]
        assert all(v.denominator == 1 for v in rebuilt)
        assert modulus > 2 * max(abs(v) for v in rebuilt)
    assert min(primes) > MAX_EXACT_CUTOFF and max(primes) < 2**20 and len(set(primes)) == len(primes)
    assert all(p % d for p in primes for d in range(2, math.isqrt(p) + 1))


def test_residue_order_limit():
    # the binomial mix of y_r adds 2^r residues below 2^20, which int64 holds up to r = 43
    counts = compute_counts(cayley(), 5, exact_cutoff=5)
    toll = TollSpec(alpha=3, size_one_cost=Fraction(-7, 2))
    table = two_sided_moments(counts, toll, 5, 43, mode="rational")
    assert table.rows == _reference_two_sided(counts, toll, 5, 43)
    with pytest.raises(OutOfRange):
        one_sided_moments(counts, toll, 5, 44, mode="rational")


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: s.label())
def test_residue_chunks_leave_tables_unchanged(spec, monkeypatch):
    # a budget of one one-sided prime's rows: one prime per one-sided chunk, two per two-sided chunk
    n_max, s_max = 80, 3
    counts = compute_counts(spec, n_max, exact_cutoff=n_max)
    toll = TollSpec(alpha=1, size_one_cost=Fraction(2, 5))
    makers = {ONE_SIDED: one_sided_moments, TWO_SIDED: two_sided_moments}
    kernel, chunks = moments._residue_rows, []

    def spy(counts, toll, variant, n_max, s_max, q, crt):
        chunks.append((variant, len(q)))
        copies = 2 if variant == ONE_SIDED else 1  # the one-sided kernel also holds the weighted rows
        assert copies * (s_max + 1) * (n_max + 1) * len(q) * 8 <= moments._CHUNK_BYTES  # 8-byte rows
        return kernel(counts, toll, variant, n_max, s_max, q, crt)

    monkeypatch.setattr(moments, "_residue_rows", spy)
    whole = {v: make(counts, toll, n_max, s_max, mode="rational").rows for v, make in makers.items()}
    primes = len(moments._residue_primes(counts, toll, n_max, s_max))
    assert chunks == [(ONE_SIDED, primes), (TWO_SIDED, primes)]
    chunks.clear()
    monkeypatch.setattr(moments, "_CHUNK_BYTES", (s_max + 1) * (n_max + 1) * 8 * 2)
    for variant, make in makers.items():
        assert make(counts, toll, n_max, s_max, mode="rational").rows == whole[variant]
        sizes = [size for v, size in chunks if v == variant]
        assert sum(sizes) == primes and max(sizes) == (1 if variant == ONE_SIDED else 2)


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: s.label())
def test_residue_ksum_blocks_leave_tables_unchanged(spec, monkeypatch):
    # the cap keeps a float64 k-sum of products below 2^40 exact; a cap of 3 splits every longer k-sum
    assert moments._KSUM_TERMS * (2**20 - 1) ** 2 < 2**53
    n_max, s_max = 80, 3
    counts = compute_counts(spec, n_max, exact_cutoff=n_max)
    toll = TollSpec(alpha=1, size_one_cost=Fraction(2, 5))
    oracles = {one_sided_moments: _reference_one_sided, two_sided_moments: _reference_two_sided}
    whole = {make: make(counts, toll, n_max, s_max, mode="rational").rows for make in oracles}
    monkeypatch.setattr(moments, "_KSUM_TERMS", 3)
    for make, oracle in oracles.items():
        blocked = make(counts, toll, n_max, s_max, mode="rational").rows
        assert blocked == whole[make] == oracle(counts, toll, n_max, s_max)


@pytest.mark.parametrize(
    "spec, alpha, size_one, n_max, s_max",
    [
        (cayley(), 1, Fraction(-1, 3), 64, 1),  # s * n = 64: one whole block
        (ordered(), 0, Fraction(-1, 3), 13, 5),  # 65: one value past it
        (ordered(), 2, Fraction(-1, 3), 32, 4),  # 128: two whole blocks
        (binary(), 1, None, 64, 2),  # 128, all values positive
    ],
    ids=["sn64", "sn65", "sn128", "sn128-positive"],
)
def test_residue_crt_block_edges(spec, alpha, size_one, n_max, s_max):
    # the first three fill the modulus M to a whole number of 16-bit digits, so the digit sums carry past its top
    assert moments._CRT_BLOCK == 64
    counts = compute_counts(spec, n_max, exact_cutoff=n_max)
    toll = TollSpec(alpha=alpha, size_one_cost=size_one)
    one = one_sided_moments(counts, toll, n_max, s_max, mode="rational")
    assert one.rows == _reference_one_sided(counts, toll, n_max, s_max)
    two = two_sided_moments(counts, toll, n_max, s_max, mode="rational")
    assert two.rows == _reference_two_sided(counts, toll, n_max, s_max)
    if size_one is not None:
        assert any(v < 0 for s in range(1, s_max + 1, 2) for v in two.rows[s][1:])
