"""Acceptance gate: one test per shipped criterion, at its stated size.

Each test runs the corresponding battery function, prints its one-line
verdict, and asserts it passed within its runtime bound; one more test
checks that a criterion fails when it overruns its budget.  Criterion 5 is
marked xfail(strict): at its stipulated n = 10^4 the one-sided alpha = 0
mean ratio genuinely sits ~3.9% from the Rayleigh value (the finite-n
correction is (0.19 + 0.40 ln n)/sqrt(n), log factor included), outside
the required 2% band.  The check is implemented faithfully and fails;
if it ever starts passing, the strict xfail turns that into an error so
the analysis gets revisited.
"""

import re

import pytest

from treecut import verify


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
