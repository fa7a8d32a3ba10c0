"""Acceptance gate: one test per shipped criterion, at its stated size.

Each test runs the corresponding battery function, prints its one-line
verdict, and asserts it passed within its runtime bound; one more test
checks that a criterion fails when it overruns its budget.  The failure
paths of criteria 1, 3, 7, 8, 10 and 11 are each reached by breaking one
of the criterion's inputs (a table, the counts, a fit, a quadrature, the
sampler): the result is a FAIL with its exact detail text.  Criterion 5 is
marked xfail(strict): at its stipulated n = 10^4 the one-sided alpha = 0
mean ratio genuinely sits ~3.9% from the Rayleigh value (the finite-n
correction is (0.19 + 0.40 ln n)/sqrt(n), log factor included), outside
the required 2% band.  The check is implemented faithfully and fails;
if it ever starts passing, the strict xfail turns that into an error so
the analysis gets revisited.
"""

import dataclasses
import math
import re

import pytest

from treecut import analysis, limits, simulate, verify
from treecut.counts import compute_counts, lagrange_counts


def _run(criterion):
    result = criterion()
    print()
    print(result.line())
    return result


def test_criterion_01_degenerate_exactness():
    assert _run(verify.criterion_01_degenerate_exactness).passed


def test_criterion_02_bruteforce_equivalence():
    assert _run(verify.criterion_02_bruteforce_equivalence).passed


def test_criterion_03_count_oracles():
    assert _run(verify.criterion_03_count_oracles).passed


def test_criterion_04_randomness_preservation():
    assert _run(verify.criterion_04_randomness_preservation).passed


@pytest.mark.xfail(
    strict=True,
    reason="unattainable as stated: the log-carrying finite-n correction is "
    "~3.9% at the stipulated n = 10^4, outside the 2% band (see ledger)",
)
def test_criterion_05_one_sided_rayleigh():
    assert _run(verify.criterion_05_one_sided_rayleigh).passed


def test_criterion_06_two_sided_alpha1():
    assert _run(verify.criterion_06_two_sided_alpha1).passed


def test_criterion_07_family_independence():
    assert _run(verify.criterion_07_family_independence).passed


def test_criterion_08_half_mean_growth():
    assert _run(verify.criterion_08_half_mean_growth).passed


def test_criterion_09_one_sided_alpha1():
    assert _run(verify.criterion_09_one_sided_alpha1).passed


def test_criterion_10_j_integrals():
    result = _run(verify.criterion_10_j_integrals)
    assert result.passed and "; 25 index triples," in result.details  # every admissible J with 2 <= s <= 4


def test_criterion_11_monte_carlo():
    assert _run(verify.criterion_11_monte_carlo).passed


def test_criterion_budget_overrun_fails(monkeypatch):
    monkeypatch.setattr(verify, "ALL_CRITERIA", {})

    @verify._criterion(98, "within budget", budget=None)
    def within():
        return True, "values ok", [{"n": 1}]

    @verify._criterion(99, "overrun", budget=0)
    def overrun():
        return True, "values ok"

    assert verify.ALL_CRITERIA == {98: within, 99: overrun}
    ok = within()
    assert ok.number == 98 and ok.passed and ok.details == "values ok" and ok.rows == [{"n": 1}]
    late = overrun()
    assert isinstance(late, verify.CriterionResult) and not late.passed
    assert re.fullmatch(r"values ok; RUNTIME \d+\.\ds >= 0s", late.details)


# ---------------------------------------------------------------------------
# Failure paths: each criterion reports a broken input as a FAIL with its detail text
# ---------------------------------------------------------------------------


def _fails_with(criterion, details):
    result = criterion()
    assert result.passed is False
    assert result.details == details


class _MeanOneHigh:
    """A two-sided alpha = 0 table whose mean is n, one more than the edge count."""

    def moment(self, n, s):
        return n**s


def test_criterion_01_reports_wrong_mean(monkeypatch):
    monkeypatch.setattr(verify, "two_sided_moments", lambda *args, **kwargs: _MeanOneHigh())
    _fails_with(
        verify.criterion_01_degenerate_exactness,
        "cayley n=1: mean=1 var=0; binary n=1: mean=1 var=0; ordered n=1: mean=1 var=0",
    )


class _CountsOneHigh:
    """Exact counts each one more than the family's."""

    def __init__(self, counts):
        self.counts = counts

    def exact_t(self, n):
        return self.counts.exact_t(n) + 1


def _lagrange_one_high(spec, n_max):
    oracle = list(lagrange_counts(spec, n_max))
    oracle[5] += 1
    return oracle


@pytest.mark.parametrize(
    "name, patch, details",
    [
        ("lagrange_counts", _lagrange_one_high,
         "cayley: Lagrange mismatch; binary: Lagrange mismatch; ordered: Lagrange mismatch"),
        ("compute_counts", lambda *args, **kwargs: _CountsOneHigh(compute_counts(*args, **kwargs)),
         "cayley: Lagrange mismatch; binary: Lagrange mismatch; ordered: Lagrange mismatch; "
         "ordered vs Catalan; cayley vs n^(n-1)/n!"),
    ],
    ids=["lagrange", "closed-form"],
)
def test_criterion_03_reports_count_mismatch(monkeypatch, name, patch, details):
    monkeypatch.setattr(verify, name, patch)
    _fails_with(verify.criterion_03_count_oracles, details)


def test_criterion_07_reports_growing_gap(monkeypatch):
    check = analysis.family_independence_check
    monkeypatch.setattr(
        analysis, "family_independence_check",
        lambda a, b, s: dataclasses.replace(check(a, b, s), rows=check(a, b, s).rows[::-1]),
    )
    _fails_with(
        verify.criterion_07_family_independence,
        "s=1 not strictly decreasing; s=2 not strictly decreasing; s=3 not strictly decreasing",
    )


def test_criterion_08_reports_bad_fit(monkeypatch):
    fit = analysis.estimate_delta
    monkeypatch.setattr(
        analysis, "estimate_delta",
        lambda table, constants: dataclasses.replace(
            fit(table, constants), free_coefficient=0.0, delta=1.0, delta_half=2.0
        ),
    )
    _fails_with(
        verify.criterion_08_half_mean_growth,
        "ordered: free-fit coefficient off by 100.00%; ordered: delta unstable (1 vs 2); "
        "cayley: free-fit coefficient off by 100.00%; cayley: delta unstable (1 vs 2)",
    )


@pytest.mark.parametrize(
    "name, details",
    [
        ("j_integral_adaptive", "scheme disagreement 1.00e-06"),
        ("j_integral", "J(0,1,1) != pi/2; J(0,2,1) != 3pi/8; scheme disagreement 1.00e-06"),
    ],
    ids=["adaptive-off", "tanh-sinh-off"],
)
def test_criterion_10_reports_quadrature_gap(monkeypatch, name, details):
    exact = limits.j_integral
    # both schemes read the tanh-sinh rule, one of them offset, so the gap is the offset alone
    monkeypatch.setattr(limits, "j_integral_adaptive", exact)
    monkeypatch.setattr(limits, name, lambda *index: exact(*index) + 1e-6)
    _fails_with(verify.criterion_10_j_integrals, details)


def test_criterion_11_reports_replay_and_mean(monkeypatch):
    # the replay's standard error differs, and an infinite mean sits infinitely many SE from the DP
    monkeypatch.setattr(
        simulate, "run_experiment",
        lambda config: simulate.SampleStats(config.samples, [math.inf], [float(config.workers)]),
    )
    _fails_with(
        verify.criterion_11_monte_carlo,
        "one_sided: workers=1 vs workers=4 not identical; one_sided: mean off by inf SE; "
        "two_sided: workers=1 vs workers=4 not identical; two_sided: mean off by inf SE",
    )
