"""Weighted counts and splitting distributions.

Claims covered:
    - the closed-form counts, exact and integer-scaled, equal a plain
      Fraction transcription of the convolution recurrence up to n=120
      for kinds A, B and C (a0 zero, positive and negative, integer and
      fractional parameters)
    - the counts, stepped by ratios of a few small factors or by the
      balanced product, give the same integers as multiplying each
      closed-form product left to right, and the same reduced Fractions
      as S_n / ((n-1)! L^(n-1)), for ratio steps d = 1, 3 and 8 and for
      the families that keep the direct product (n <= 400, and n = 2500)
    - they match the Catalan / Cayley closed forms and the
      Lagrange-inversion oracle, exactly
    - splitting probabilities are nonnegative (also for kind C, whose
      a0 is negative) and sum to one exactly; the normalization doubles
      as a certificate of the count recurrence
    - symmetrized distributions are palindromic and normalized
    - the exact splitting law equals the first-cut law found by
      enumerating every tree and edge (n <= 7)
    - the exact splitting law, plain and symmetrized, equals
      W_k * C(n-2, k-1) * S_k * S_{n-k} / S_n on the integer scale of the
      moment kernel for every k, though the row forms only k <= n/2
      (n <= 600, nine families, odd and even n)
    - log-scale values agree with the exact rationals and stay stable
      far past double-precision overflow
    - the float weights keep alpha0 beside a huge alpha1 (kind C,
      alpha0 = 1/3, alpha1 = 10^12/3): ln T_2, the float split rows and
      float moment tables match the exact ones to 1e-13
    - ln T_n and a split probability out of range raise OutOfRange
      with the range in the message
"""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from treecut.bruteforce import all_cuts, enumerate_trees, tree_size, tree_weight
from treecut.counts import (
    MAX_EXACT_CUTOFF,
    _integer_weights,
    _ratio_step,
    _split_row,
    _weight_scale,
    compute_counts,
    lagrange_counts,
    split_distribution,
)
from treecut.errors import OutOfRange, OverflowPolicyError
from treecut.family import binary, cayley, make_family, ordered, solve_constants
from treecut.moments import TollSpec, one_sided_moments, two_sided_moments

FAMILIES = [cayley(), binary(), ordered()]

_LN2 = math.log(2.0)


def _ln_fraction(x: Fraction) -> float:
    """Natural log of a positive Fraction, safe for huge numerators."""

    def ln_int(i: int) -> float:
        bits = i.bit_length()
        if bits <= 900:
            return math.log(i)
        shift = bits - 900
        return math.log(i >> shift) + shift * _LN2

    return ln_int(x.numerator) - ln_int(x.denominator)


def _recurrence_counts(spec, n_max):
    """Oracle: (n-1) T_n = sum_k (a1*k + a0) T_k T_{n-k}, T_1 = 1, in Fractions."""
    t = [Fraction(0), Fraction(1)]
    for n in range(2, n_max + 1):
        t.append(sum((spec.a1 * k + spec.a0) * t[k] * t[n - k] for k in range(1, n)) / (n - 1))
    return t


@pytest.fixture(scope="module")
def tables():
    return {spec.kind: compute_counts(spec, 120, exact_cutoff=120) for spec in FAMILIES}


def test_reference_sequences(tables):
    assert [tables["C"].exact_t(n) for n in range(1, 6)] == [1, 1, 2, 5, 14]
    assert [tables["A"].exact_t(n) for n in range(1, 5)] == [1, 1, Fraction(3, 2), Fraction(8, 3)]
    assert [tables["B"].exact_t(n) for n in range(1, 4)] == [1, 2, 5]


def test_closed_forms(tables):
    for n in range(1, 21):
        assert tables["C"].exact_t(n) == math.comb(2 * (n - 1), n - 1) // n  # Catalan
        assert tables["A"].exact_t(n) == Fraction(n ** (n - 1), math.factorial(n))
        assert tables["B"].exact_t(n) == Fraction(math.comb(2 * n, n - 1), n)


@pytest.mark.parametrize(
    "spec",
    [
        make_family("A", 1),
        make_family("A", "7/3"),
        make_family("B", "3/2", d=4),
        make_family("B", 5, d=7),
        ordered(),  # gamma = 1
        make_family("C", 3, alpha1=2),  # gamma = 3
        make_family("C", 1, alpha1=2),  # gamma = 1/3
        make_family("C", "2/3", alpha1="5/7"),
    ],
    ids=lambda s: s.label(),
)
def test_closed_form_matches_recurrence(spec):
    n_max = 120
    counts = compute_counts(spec, n_max, exact_cutoff=n_max)
    oracle = _recurrence_counts(spec, n_max)
    assert counts.exact == oracle[: n_max + 1]
    scale = math.lcm(spec.a0.denominator, spec.a1.denominator)
    assert counts.scaled[1:] == [math.factorial(n - 1) * scale ** (n - 1) * oracle[n] for n in range(1, n_max + 1)]
    assert all(isinstance(v, int) for v in counts.scaled)


# d = |L*a0| / gcd(L*a1, L*a0) is the step of the ratio S_n / S_{n-d}: 1 for ordered, binary, B(3, d=3) and
# B(3/2, d=4), 3 for C(1, 2), 8 for C(2/3, 5/7); Cayley (a0 = 0), C(1/3, 10^12/3) and B(1, d=65536) keep the
# direct product
RATIO_CASES = [
    ordered(),
    binary(),
    cayley(),
    make_family("B", 3, d=3),
    make_family("B", "3/2", d=4),
    make_family("C", 1, alpha1=2),
    make_family("C", "2/3", alpha1="5/7"),
    make_family("C", Fraction(1, 3), alpha1=Fraction(10**12, 3)),
    make_family("B", 1, d=65536),
]


@pytest.mark.parametrize("spec", RATIO_CASES, ids=lambda s: s.label())
def test_scaled_counts_equal_left_to_right_product(spec):
    scale = _weight_scale(spec)
    la1, la0 = _integer_weights(spec)

    def left_to_right(n):
        return (la1 + la0) * math.prod([la1 * n + la0 * i for i in range(2, n)])

    def reduced(s, n):  # T_n = S_n / ((n-1)! * L^(n-1)), reduced by one big gcd
        return Fraction(s, math.factorial(n - 1) * scale ** (n - 1))

    counts = compute_counts(spec, 400, exact_cutoff=400)
    assert counts.scaled == [0, 1] + [left_to_right(n) for n in range(2, 401)]
    assert [(t.numerator, t.denominator) for t in counts.exact[1:]] == [
        (t.numerator, t.denominator) for t in (reduced(s, n) for n, s in enumerate(counts.scaled[1:], 1))
    ]
    if _ratio_step(la1, la0, 2500):  # a long chain of ratios; the direct product is the same code at any n
        far = compute_counts(spec, 2500, exact_cutoff=2500)
        assert far.scaled[2500] == left_to_right(2500)
        t, oracle = far.exact[2500], reduced(far.scaled[2500], 2500)
        assert (t.numerator, t.denominator) == (oracle.numerator, oracle.denominator)


@pytest.mark.parametrize(
    "spec",
    FAMILIES + [make_family("A", "1/2"), make_family("B", "3/2", d=3), make_family("C", "1/2", alpha1=1)],
    ids=lambda s: s.label(),
)
def test_lagrange_oracle(spec):
    counts = compute_counts(spec, 30, exact_cutoff=30)
    oracle = lagrange_counts(spec, 30)
    assert all(counts.exact_t(n) == oracle[n] for n in range(1, 31))


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: s.label())
def test_normalization_and_nonnegativity(spec, tables):
    counts = tables[spec.kind]
    for n in range(2, 61):
        dist = split_distribution(counts, n)
        assert sum(dist.probs) == 1  # exact rationals
        assert all(p >= 0 for p in dist.probs)
        assert dist.prob(1) == dist.probs[0]


def first_cut_distribution(spec, n):
    """Exact law of the root-side size after one uniform cut, k = 1..n-1.

    Averages the per-tree edge counts over the weighted family; this is
    the ground truth the splitting-probability formula must reproduce.
    """
    total_weight = Fraction(0)
    hist = [Fraction(0)] * n  # hist[k], k = 1..n-1
    for tree in enumerate_trees(n):
        w = tree_weight(spec, tree)
        if w == 0:
            continue
        total_weight += w
        for kept, _ in all_cuts(tree):
            hist[tree_size(kept)] += w
    return [h / (total_weight * (n - 1)) for h in hist[1:]]


@pytest.mark.parametrize(
    "spec", FAMILIES + [make_family("C", 1, alpha1=2)], ids=lambda s: s.label()
)
def test_split_law_matches_enumeration(spec):
    counts = compute_counts(spec, 7, exact_cutoff=7)
    for n in range(2, 8):
        assert list(split_distribution(counts, n).probs) == first_cut_distribution(spec, n)


@pytest.mark.parametrize("spec", RATIO_CASES, ids=lambda s: s.label())
def test_exact_row_on_the_integer_scale(spec):
    # the order-0 summand of the exact moment kernel: W_k * C(n-2, k-1) * S_k * S_{n-k} / S_n, L cancels;
    # it forms every k, where the row itself mirrors its half k <= n/2
    counts = compute_counts(spec, 600, exact_cutoff=600)
    (la1, la0), s = _integer_weights(spec), counts.scaled
    for n in (2, 3, 4, 5, 17, 64, 65, 120, 600):
        expected = [Fraction((la1 * k + la0) * math.comb(n - 2, k - 1) * s[k] * s[n - k], s[n]) for k in range(1, n)]
        assert list(split_distribution(counts, n).probs) == expected
        symmetrized = [(p + q) / 2 for p, q in zip(expected, expected[::-1])]
        assert split_distribution(counts, n, symmetrized=True).probs == symmetrized


def test_kind_c_weights_positive_despite_negative_a0():
    spec = ordered()
    assert spec.a0 < 0
    for k in range(1, 40):
        assert spec.a1 * k + spec.a0 > 0


def test_reference_rows(tables):
    assert list(split_distribution(tables["C"], 3).probs) == [Fraction(1, 4), Fraction(3, 4)]
    assert list(split_distribution(tables["A"], 4).probs) == [
        Fraction(3, 16),
        Fraction(1, 4),
        Fraction(9, 16),
    ]
    sym = split_distribution(tables["A"], 4, symmetrized=True)
    assert list(sym.probs) == [Fraction(3, 8), Fraction(1, 4), Fraction(3, 8)]


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: s.label())
def test_symmetrized_palindromic(spec, tables):
    for n in (7, 12, 31):
        sym = split_distribution(tables[spec.kind], n, symmetrized=True)
        assert sym.probs == sym.probs[::-1]
        assert sum(sym.probs) == 1


def test_log_values_match_exact():
    counts = compute_counts(ordered(), 400, exact_cutoff=400)
    worst = max(
        abs(counts.log_t(n) - _ln_fraction(counts.exact_t(n))) for n in range(1, 401)
    )
    assert worst < 1e-10  # relative, since these are logs


def test_log_values_survive_overflow_scale():
    counts = compute_counts(ordered(), 3000, exact_cutoff=10)
    # T_n ~ c * 4^n / n^(3/2); ln T_3000 ~ 3000 ln 4, far past 1e308
    expected = 3000 * math.log(4) - 1.5 * math.log(3000) + math.log(0.1410474)
    assert counts.log_t(3000) == pytest.approx(expected, abs=0.01)
    row = _split_row(counts, 3000, exact=False)
    assert row.sum() == pytest.approx(1.0, abs=1e-10)
    assert row.min() > 0


def test_float_probs_match_exact_at_cutoff_boundary():
    counts = compute_counts(cayley(), 300, exact_cutoff=300)
    exact = split_distribution(counts, 300).as_array()
    floats = _split_row(counts, 300, exact=False)
    assert abs(exact - floats).max() < 1e-12


def test_float_weights_keep_alpha0_beside_a_huge_alpha1():
    # kind C at alpha0 = 1/3, alpha1 = 10^12/3: a1*k + a0 in doubles cancelled alpha0 down to w_1 wrong in
    # its fourth digit (ln T_2 off by 2.4e-4); written from w_1 = alpha0 every float path stays exact
    spec = make_family("C", Fraction(1, 3), alpha1=Fraction(10**12, 3))
    n = 12
    counts = compute_counts(spec, n, exact_cutoff=n)
    assert abs(counts.log_t(2) - math.log(1 / 3)) <= 1e-13
    for m in range(2, n + 1):
        exact = split_distribution(counts, m).as_array()
        assert np.abs(_split_row(counts, m, exact=False) / exact - 1).max() <= 1e-13
    for maker in (one_sided_moments, two_sided_moments):
        rational = maker(counts, TollSpec(alpha=1), n, 3, mode="rational")
        floats = maker(counts, TollSpec(alpha=1), n, 3, mode="float")
        for m in range(1, n + 1):
            for s in range(4):
                assert floats.moment(m, s) == pytest.approx(float(rational.moment(m, s)), rel=1e-13)


def test_range_errors():
    counts = compute_counts(ordered(), 50, exact_cutoff=20)
    with pytest.raises(OutOfRange):
        counts.exact_t(21)
    with pytest.raises(OutOfRange):
        split_distribution(counts, 51)
    with pytest.raises(OutOfRange):
        split_distribution(counts, 1)
    with pytest.raises(OutOfRange):
        compute_counts(ordered(), 0)
    with pytest.raises(OverflowPolicyError):
        compute_counts(ordered(), 10, exact_cutoff=MAX_EXACT_CUTOFF + 1)
    with pytest.raises(OutOfRange):
        compute_counts(ordered(), 10, exact_cutoff=-1)
    assert compute_counts(ordered(), 10, exact_cutoff=0).exact_limit == 0


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda counts: counts.log_t(51), "n must be in [1, 50], got 51"),
        (lambda counts: counts.log_t(0), "n must be in [1, 50], got 0"),
        (lambda counts: split_distribution(counts, 5).prob(5), "k must be in [1, 4], got 5"),
    ],
    ids=["log_t-high", "log_t-zero", "prob-k"],
)
def test_accessor_range_errors(call, message):
    with pytest.raises(OutOfRange, match=re.escape(message)):
        call(compute_counts(ordered(), 50, exact_cutoff=20))


def test_counts_positive_and_anchored():
    for spec in FAMILIES:
        counts = compute_counts(spec, 200, exact_cutoff=50)
        assert counts.exact_t(1) == 1
        assert all(counts.exact_t(n) > 0 for n in range(1, 51))
        assert all(math.isfinite(counts.log_t(n)) for n in range(1, 201))


def test_counts_share_the_constants_rho():
    # kind C's Phi(tau) in doubles as (1 - beta*tau)^-gamma or as (alpha0/a1)^-gamma differs in the last
    # bits on 101 of these 355 kind C families; the counts must scale by the rho the constants report
    sixths = sorted({Fraction(p, q) for p in range(1, 7) for q in range(1, 7)})
    specs = [ordered(), cayley(), binary(), make_family("B", 3, d=3)]
    specs += [make_family("A", Fraction(1, 3)), make_family("A", 5)]
    specs += [make_family("C", a0, alpha1=a1) for a0 in sixths for a1 in sixths if 2 * a1 > a0]
    assert len(specs) == 6 + 355
    for spec in specs:
        assert compute_counts(spec, 2, exact_cutoff=1).rho == solve_constants(spec).rho, spec.label()
