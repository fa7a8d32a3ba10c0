"""The acceptance battery: every shipped claim as a runnable check.

Each criterion function is self-contained, returns a CriterionResult,
and never raises on a value failure (it reports it); checks 1-3 are
exact, 4 and 11 are statistical with fixed seeds, and 5-10 compare
dynamic programming against limit formulas at finite n.  One decorator
times every criterion, fails it when it overruns its wall-clock budget
(noting the overrun in its details), and registers it by number in
ALL_CRITERIA.

Criterion 5 is expected to FAIL as specified: the one-sided alpha = 0
mean ratio carries a (0.19 + 0.40 ln n)/sqrt(n) correction (measured by
fitting the DP values; the log factor matches the known expansion of
this quantity), which is ~3.9% at n = 10^4 - outside the required 2%
band at the stipulated n.  The check is kept faithful rather than
widened; see the result details for the measured numbers.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np
from scipy.special import chdtrc

from . import analysis, bruteforce, limits, simulate
from .counts import compute_counts, lagrange_counts, split_distribution
from .errors import ConfigError
from .family import binary, cayley, ordered, solve_constants
from .moments import ONE_SIDED, TWO_SIDED, TollSpec, one_sided_moments, two_sided_moments

SEED = 20250811


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    elapsed: float
    details: str
    rows: List[Dict] = field(default_factory=list)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.number:2d} ({self.elapsed:6.1f}s) {self.name}: {self.details}"


#: Every criterion by number, filled in by :func:`_criterion`.
ALL_CRITERIA: Dict[int, Callable[[], CriterionResult]] = {}


def _criterion(number: int, name: str, budget: Optional[float] = None):
    """Make a criterion of a body that returns ``(ok, details[, rows])``.

    The result is timed with a monotonic clock; a criterion that takes
    ``budget`` seconds or more fails, and its details note the overrun.
    """

    def wrap(body: Callable[[], tuple]) -> Callable[[], CriterionResult]:
        @functools.wraps(body)
        def run() -> CriterionResult:
            start = time.perf_counter()
            ok, details, *rest = body()
            elapsed = time.perf_counter() - start
            if budget is not None and elapsed >= budget:
                ok = False
                details = f"{details}; RUNTIME {elapsed:.1f}s >= {budget:g}s"
            return CriterionResult(number, name, ok, elapsed, details, *rest)

        ALL_CRITERIA[number] = run
        return run

    return wrap


def _reference_families():
    return [("cayley", cayley()), ("binary", binary()), ("ordered", ordered())]


def _report_rows(number: int, family: str, report) -> List[Dict]:
    return [
        {
            "criterion": number,
            "family": family,
            "variant": report.variant,
            "alpha": report.alpha,
            "n": row.n,
            "s": row.s,
            "normalized": row.normalized,
            "limit": row.limit,
            "rel_error": row.rel_error,
        }
        for row in report.rows
    ]


@_criterion(1, "degenerate exactness (two-sided, alpha=0)", budget=10.0)
def criterion_01_degenerate_exactness():
    """Two-sided, alpha = 0, edges-only boundary: cost is exactly n - 1."""
    toll = TollSpec(alpha=0, size_one_cost=0)
    bad: List[str] = []
    for name, spec in _reference_families():
        counts = compute_counts(spec, 300, exact_cutoff=300)
        table = two_sided_moments(counts, toll, 300, 2, mode="rational")
        for n in range(1, 301):
            mean = table.moment(n, 1)
            var = table.moment(n, 2) - mean * mean
            if mean != n - 1 or var != 0:
                bad.append(f"{name} n={n}: mean={mean} var={var}")
                break
    if bad:
        return False, "; ".join(bad)
    return True, "mean = n-1 and variance = 0 exactly (rationals), 3 families, n <= 300"


@_criterion(2, "brute-force oracle equivalence (n<=5)", budget=60.0)
def criterion_02_bruteforce_equivalence():
    """DP moments equal exhaustive tree x cut-sequence enumeration."""
    mismatches = 0
    checked = 0
    for name, spec in (("ordered", ordered()), ("cayley", cayley())):
        counts = compute_counts(spec, 5, exact_cutoff=5)
        for alpha in (0, 1, 2):
            toll = TollSpec(alpha=alpha)
            one = one_sided_moments(counts, toll, 5, 2, mode="rational")
            two = two_sided_moments(counts, toll, 5, 2, mode="rational")
            for n in range(1, 6):
                oracle_one = bruteforce.family_moments(spec, n, toll, 2, ONE_SIDED)
                oracle_two = bruteforce.family_moments(spec, n, toll, 2, TWO_SIDED)
                for s in range(3):
                    checked += 2
                    mismatches += one.moment(n, s) != oracle_one[s]
                    mismatches += two.moment(n, s) != oracle_two[s]
    return mismatches == 0, f"{checked} exact comparisons, {mismatches} mismatches"


@_criterion(3, "count oracles")
def criterion_03_count_oracles():
    """Closed-form counts vs Lagrange inversion, Catalan and Cayley numbers."""
    bad: List[str] = []
    for name, spec in _reference_families():
        counts = compute_counts(spec, 30, exact_cutoff=30)
        oracle = lagrange_counts(spec, 30)
        if any(counts.exact_t(n) != oracle[n] for n in range(1, 31)):
            bad.append(f"{name}: Lagrange mismatch")
    wo = compute_counts(ordered(), 20, exact_cutoff=20)
    if any(wo.exact_t(n) != math.comb(2 * (n - 1), n - 1) // n for n in range(1, 21)):
        bad.append("ordered vs Catalan")
    wa = compute_counts(cayley(), 20, exact_cutoff=20)
    if any(wa.exact_t(n) != Fraction(n ** (n - 1), math.factorial(n)) for n in range(1, 21)):
        bad.append("cayley vs n^(n-1)/n!")
    if bad:
        return False, "; ".join(bad)
    return True, "closed form == Lagrange (n<=30, 3 families); Catalan and Cayley closed forms (n<=20)"


@_criterion(4, "randomness preservation (explicit cuts, n=10)", budget=30.0)
def criterion_04_randomness_preservation():
    """Explicit cutting of ordered trees reproduces the splitting law."""
    n, samples = 10, 100_000
    spec = ordered()
    toll = TollSpec(alpha=0)
    survey = simulate.explicit_cut_survey(spec, toll, n, ONE_SIDED, samples, SEED)
    counts = compute_counts(spec, n, exact_cutoff=n)
    probs = split_distribution(counts, n).as_array()
    expected = samples * probs
    stat = float(np.sum((survey.histogram[1:] - expected) ** 2 / expected))
    p_value = float(chdtrc(n - 2, stat))
    dp_mean = float(one_sided_moments(counts, toll, n, 1, mode="float").moment(n, 1))
    z = abs(survey.cost_mean - dp_mean) / survey.cost_se
    ok = p_value > 1e-3 and z <= 4.0
    return ok, f"chi2 p={p_value:.3g} (need > 1e-3), mean off by {z:.2f} SE (need <= 4)"


@_criterion(5, "one-sided alpha=0 Rayleigh limit at n=1e4", budget=120.0)
def criterion_05_one_sided_rayleigh():
    """One-sided alpha = 0 vs the Rayleigh limit at n = 10^4 (2% band).

    Expected to fail: the finite-n correction is ~(0.19+0.40 ln n)/sqrt(n),
    i.e. ~3.9% at n = 10^4.  Kept as specified.
    """
    n = 10_000
    spec = cayley()
    counts = compute_counts(spec, n, exact_cutoff=1)
    table = one_sided_moments(counts, TollSpec(alpha=0), n, 2, mode="float")
    r1 = table.moment(n, 1) / math.sqrt(n) / math.sqrt(math.pi / 2.0)
    r2 = table.moment(n, 2) / n / 2.0
    ok = abs(r1 - 1) <= 0.02 and abs(r2 - 1) <= 0.02
    details = (
        f"mu1/sqrt(n) off by {abs(r1 - 1) * 100:.2f}%, mu2/n off by {abs(r2 - 1) * 100:.2f}% "
        f"(need <= 2%; finite-n correction ~ (0.19+0.40 ln n)/sqrt(n) = "
        f"{(0.19 + 0.40 * math.log(n)) / math.sqrt(n) * 100:.1f}% at n=1e4)"
    )
    return ok, details


def _limit_moment_oracle(alpha: float, s_max: int) -> List[float]:
    """Independent transcription of the two-sided limit recurrence."""
    from math import comb, gamma, sqrt, pi

    ap = alpha + 0.5
    m = [1.0, gamma(alpha - 0.5) / (sqrt(2.0) * gamma(alpha))]
    for s in range(2, s_max + 1):
        tot = 0.0
        for k in range(1, s):
            tot += comb(s, k) * gamma(k * ap - 0.5) * gamma((s - k) * ap - 0.5) / gamma(s * ap - 0.5) * m[k] * m[s - k]
        m.append(tot / (4 * sqrt(pi)) + s * gamma(s * ap - 1.0) / (sqrt(2.0) * gamma(s * ap - 0.5)) * m[s - 1])
    return m


@_criterion(6, "two-sided alpha=1 limit (ordered, n=2000)", budget=300.0)
def criterion_06_two_sided_alpha1():
    """Two-sided alpha = 1 normalized moments vs the limit, s <= 3, 3%."""
    n = 2000
    spec = ordered()
    constants = solve_constants(spec)
    counts = compute_counts(spec, n, exact_cutoff=1)
    table = two_sided_moments(counts, TollSpec(alpha=1), n, 3, mode="float")
    package = limits.limit_moments_two_sided(1.0, 3).m
    oracle = _limit_moment_oracle(1.0, 3)
    report = analysis.normalize_moments(table, constants, grid=[250, 500, 1000, 2000])
    errors = [abs(row.normalized / oracle[row.s] - 1) for row in report.rows if row.n == n]
    oracle_gap = max(abs(a - b) for a, b in zip(package, oracle))
    ok = max(errors) <= 0.03 and oracle_gap < 1e-10
    details = (
        f"rel errors s=1..3: {', '.join(f'{e * 100:.2f}%' for e in errors)} (need <= 3%); "
        f"recurrence vs inline oracle gap {oracle_gap:.1e}"
    )
    return ok, details, _report_rows(6, "ordered", report)


@_criterion(7, "family independence (alpha=1)")
def criterion_07_family_independence():
    """Normalized-moment gap between families shrinks along the grid."""
    grid = [250, 500, 1000, 2000]
    toll = TollSpec(alpha=1)
    reports = {}
    for name, spec in (("cayley", cayley()), ("ordered", ordered())):
        counts = compute_counts(spec, 2000, exact_cutoff=1)
        table = two_sided_moments(counts, toll, 2000, 3, mode="float")
        reports[name] = analysis.normalize_moments(table, solve_constants(spec), grid=grid)
    failures = []
    rows: List[Dict] = []
    for s in (1, 2, 3):
        check = analysis.family_independence_check(reports["cayley"], reports["ordered"], s)
        if not check.strictly_decreasing:
            failures.append(f"s={s} not strictly decreasing")
        rows.extend(
            {"criterion": 7, "family": "cayley-ordered", "variant": TWO_SIDED,
             "alpha": 1.0, "n": row.n, "s": s, "normalized": row.difference,
             "limit": 0.0, "rel_error": row.difference}
            for row in check.rows
        )
    if failures:
        return False, "; ".join(failures), rows
    return True, "normalized gap strictly decreasing over n in {250,500,1000,2000}, s <= 3", rows


@_criterion(8, "alpha=1/2 mean growth (n in [500,4000])")
def criterion_08_half_mean_growth():
    """alpha = 1/2 mean: free-fit leading coefficient and delta stability."""
    failures = []
    summaries = []
    for name, spec in (("ordered", ordered()), ("cayley", cayley())):
        constants = solve_constants(spec)
        counts = compute_counts(spec, 4000, exact_cutoff=1)
        table = two_sided_moments(counts, TollSpec(alpha=0.5), 4000, 1, mode="float")
        fit = analysis.estimate_delta(table, constants)
        target = constants.sigma / math.sqrt(2.0 * math.pi)
        off = abs(fit.free_coefficient / target - 1)
        if off > 0.03:
            failures.append(f"{name}: free-fit coefficient off by {off * 100:.2f}%")
        if fit.stability > 0.05:
            failures.append(f"{name}: delta unstable ({fit.delta:.4g} vs {fit.delta_half:.4g})")
        summaries.append(
            f"{name}: free {fit.free_coefficient:.5f} vs {target:.5f} ({off * 100:.2f}%), "
            f"delta {fit.delta:.5f} (half-range {fit.delta_half:.5f})"
        )
    return not failures, "; ".join(failures or summaries)


@_criterion(9, "one-sided alpha=1 limit (ordered, n=2000)")
def criterion_09_one_sided_alpha1():
    """One-sided alpha = 1 normalized moments vs the closed product, 3%."""
    n = 2000
    spec = ordered()
    constants = solve_constants(spec)
    counts = compute_counts(spec, n, exact_cutoff=1)
    table = one_sided_moments(counts, TollSpec(alpha=1), n, 2, mode="float")
    lm = limits.limit_moments_one_sided(1.0, 2)
    report = analysis.normalize_moments(table, constants, grid=[250, 500, 1000, 2000])
    targets = {1: math.sqrt(math.pi / 8.0), 2: 8.0 / 15.0}
    formula_ok = all(abs(lm.m[s] - target) <= 1e-12 for s, target in targets.items())
    errors = [abs(row.normalized / targets[row.s] - 1) for row in report.rows if row.n == n]
    ok = formula_ok and max(errors) <= 0.03
    details = f"rel errors s=1,2: {', '.join(f'{e * 100:.2f}%' for e in errors)} (need <= 3%)"
    return ok, details, _report_rows(9, "ordered", report)


@_criterion(10, "J-integral correctness")
def criterion_10_j_integrals():
    """J-integral Beta cases and dual-quadrature agreement, s <= 4."""
    failures = []
    if abs(limits.j_integral(0, 1, 1) - math.pi / 2.0) > 1e-8:
        failures.append("J(0,1,1) != pi/2")
    if abs(limits.j_integral(0, 2, 1) - 3.0 * math.pi / 8.0) > 1e-8:
        failures.append("J(0,2,1) != 3pi/8")
    worst = 0.0
    cases = 0
    for s in range(2, 5):
        for s1 in range(s + 1):
            for s2 in range(s - s1 + 1):
                s3 = s - s1 - s2
                if s2 >= s or s3 >= s:
                    continue
                gap = abs(limits.j_integral(s1, s2, s3) - limits.j_integral_adaptive(s1, s2, s3))
                worst = max(worst, gap)
                cases += 1
    if worst > 1e-8:
        failures.append(f"scheme disagreement {worst:.2e}")
    if failures:
        return False, "; ".join(failures)
    return True, f"Beta cases exact to 1e-8; {cases} index triples, max scheme gap {worst:.1e}"


@_criterion(11, "Monte Carlo consistency (n=200, 1e5 samples)")
def criterion_11_monte_carlo():
    """Size-process sampler vs DP at n=200, and worker-count determinism."""
    spec = ordered()
    n, samples = 200, 100_000
    counts = compute_counts(spec, n, exact_cutoff=1)
    toll = TollSpec(alpha=1)
    failures = []
    notes = []
    for variant in (ONE_SIDED, TWO_SIDED):
        config = simulate.ExperimentConfig(
            family=spec, variant=variant, alpha=1.0, n=n, samples=samples,
            seed=SEED, engine=simulate.SIZE_PROCESS, workers=1,
        )
        stats = simulate.run_experiment(config, counts=counts)
        replay = simulate.run_experiment(dataclasses.replace(config, workers=4), counts=counts)
        if stats != replay:
            failures.append(f"{variant}: workers=1 vs workers=4 not identical")
        maker = one_sided_moments if variant == ONE_SIDED else two_sided_moments
        dp = float(maker(counts, toll, n, 1, mode="float").moment(n, 1))
        z = abs(stats.moment_estimates[0] - dp) / stats.standard_errors[0]
        if z > 4.0:
            failures.append(f"{variant}: mean off by {z:.2f} SE")
        notes.append(f"{variant} off by {z:.2f} SE, replay identical")
    return not failures, "; ".join(failures or notes)


def run_battery(
    numbers: Optional[Sequence[int]] = None,
    report: Optional[Callable[[CriterionResult], None]] = None,
) -> List[CriterionResult]:
    """Run the selected criteria (all by default), in order of their numbers.

    Raises ConfigError when the selection is empty or names a criterion
    that does not exist.
    """
    wanted = sorted(ALL_CRITERIA if numbers is None else set(numbers))
    if not wanted:
        raise ConfigError("no criterion selected")
    unknown = [number for number in wanted if number not in ALL_CRITERIA]
    if unknown:
        raise ConfigError(f"no criterion numbered {unknown}; the criteria are {sorted(ALL_CRITERIA)}")
    results = []
    for number in wanted:
        result = ALL_CRITERIA[number]()
        results.append(result)
        if report is not None:
            report(result)
    return results
