"""The acceptance battery: every shipped claim as a runnable check.

Each criterion function is self-contained, returns a CriterionResult,
and never raises on a value failure (it reports it); checks 1-3 are
exact, 4 and 11 are statistical with fixed seeds, and 5-10 compare
dynamic programming against limit formulas at finite n; 6 also holds
the alpha = 1 limit recurrence to the Airy law.  One decorator times
every criterion, fails it when it overruns its wall-clock budget
(noting the overrun in its details), and registers it by number in
ALL_CRITERIA.

Criterion 5 is expected to FAIL as specified: the one-sided alpha = 0
mean ratio carries a (0.19 + 0.40 ln n)/sqrt(n) correction, which is
~3.9% at n = 10^4 - outside the required 2% band at the stipulated n.
The log factor comes from the mean itself: its ln n term is 1/2 * ln n
on every family (fitted 0.49986-0.50000 on float tables to n = 4*10^4),
so in the ratio to sigma*sqrt(pi/2)*sqrt(n) it is
0.40 = (1/2)/(sigma*sqrt(pi/2)) on Cayley trees, where sigma = 1; 0.19
is fitted to the DP values.  The check is kept faithful rather than
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


#: The grid of n on which criteria 6, 7 and 9 normalize; its last point is the n they judge.
_GRID = (250, 500, 1000, 2000)


def _float_table(spec, variant: str, alpha, n: int, s_max: int):
    counts = compute_counts(spec, n, exact_cutoff=1)
    maker = one_sided_moments if variant == ONE_SIDED else two_sided_moments
    return maker(counts, TollSpec(alpha=alpha), n, s_max, mode="float")


def _normalized(spec, variant: str, s_max: int):
    """The alpha = 1 float table of ``spec`` up to _GRID[-1], normalized on _GRID."""
    table = _float_table(spec, variant, 1, _GRID[-1], s_max)
    return analysis.normalize_moments(table, solve_constants(spec), grid=_GRID)


def _errors_at_end(report, oracle) -> List[float]:
    """|normalized / oracle[s] - 1| at _GRID[-1], for each s of ``report``."""
    return [abs(row.normalized / oracle[row.s] - 1) for row in report.rows if row.n == _GRID[-1]]


#: The columns of a convergence row, in the order ``treecut verify --out-csv`` writes them.
ROW_FIELDS = ("criterion", "family", "variant", "alpha", "n", "s", "normalized", "limit", "rel_error")


def _report_rows(number: int, family: str, report) -> List[Dict]:
    return [
        dict(zip(ROW_FIELDS, (number, family, report.variant, report.alpha, row.n, row.s, row.normalized,
                              row.limit, row.rel_error)))
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
    """Explicit cutting of ordered trees reproduces the splitting law.

    One explicit-engine experiment gives both checks: its first-cut
    root sides against the split probabilities (chi-square), and its
    one-sided alpha = 0 cost mean against the DP.
    """
    from scipy.special import chdtrc

    n, samples = 10, 100_000
    spec = ordered()
    stats = simulate.run_experiment(
        simulate.ExperimentConfig(
            family=spec, variant=ONE_SIDED, alpha=0.0, n=n, samples=samples, seed=SEED, engine=simulate.EXPLICIT,
            s_max=1,
        )
    )
    counts = compute_counts(spec, n, exact_cutoff=n)
    probs = split_distribution(counts, n).as_array()
    expected = samples * probs
    stat = float(np.sum((np.array(stats.first_cut[1:]) - expected) ** 2 / expected))
    p_value = float(chdtrc(n - 2, stat))
    dp_mean = float(one_sided_moments(counts, TollSpec(alpha=0), n, 1, mode="float").moment(n, 1))
    z = abs(stats.moment_estimates[0] - dp_mean) / stats.standard_errors[0]
    ok = p_value > 1e-3 and z <= 4.0
    return ok, f"chi2 p={p_value:.3g} (need > 1e-3), mean off by {z:.2f} SE (need <= 4)"


@_criterion(5, "one-sided alpha=0 Rayleigh limit at n=1e4", budget=120.0)
def criterion_05_one_sided_rayleigh():
    """One-sided alpha = 0 vs the Rayleigh limit at n = 10^4 (2% band).

    Expected to fail: the finite-n correction is ~(0.19+0.40 ln n)/sqrt(n),
    i.e. ~3.9% at n = 10^4.  Kept as specified.
    """
    n = 10_000
    table = _float_table(cayley(), ONE_SIDED, 0, n, 2)
    r1 = table.moment(n, 1) / math.sqrt(n) / math.sqrt(math.pi / 2.0)
    r2 = table.moment(n, 2) / n / 2.0
    ok = abs(r1 - 1) <= 0.02 and abs(r2 - 1) <= 0.02
    details = (
        f"mu1/sqrt(n) off by {abs(r1 - 1) * 100:.2f}%, mu2/n off by {abs(r2 - 1) * 100:.2f}% "
        f"(need <= 2%; finite-n correction ~ (0.19+0.40 ln n)/sqrt(n) = "
        f"{(0.19 + 0.40 * math.log(n)) / math.sqrt(n) * 100:.1f}% at n=1e4)"
    )
    return ok, details


def _limit_moment_oracle(s_max: int) -> List[float]:
    """Two-sided alpha = 1 limit moments m_s = 2^s E B_ex^s, by the Airy law.

    The limit is twice the Brownian excursion area B_ex, whose moments
    are E B_ex^s = 4 sqrt(pi) 2^(-s/2) s! / Gamma((3s-1)/2) K_s, with
    K_1 = 1/8 and K_s = (3s-4)/4 K_(s-1) + sum_(j=1)^(s-1) K_j K_(s-j)
    (Janson, Probab. Surveys 4, 2007), kept exact in Fractions.
    """
    k = [Fraction(0), Fraction(1, 8)]
    for s in range(2, s_max + 1):
        k.append(Fraction(3 * s - 4, 4) * k[s - 1] + sum(k[j] * k[s - j] for j in range(1, s)))
    scale = 4.0 * math.sqrt(math.pi)
    return [1.0] + [scale * 2 ** (s / 2) * float(math.factorial(s) * k[s]) / math.gamma((3 * s - 1) / 2)
                    for s in range(1, s_max + 1)]


@_criterion(6, "two-sided alpha=1 limit (ordered, n=2000)", budget=300.0)
def criterion_06_two_sided_alpha1():
    """Two-sided alpha = 1 normalized moments vs the Airy limit, s <= 3, 3%."""
    package = limits.limit_moments_two_sided(1.0, 3).m
    oracle = _limit_moment_oracle(3)
    report = _normalized(ordered(), TWO_SIDED, 3)
    errors = _errors_at_end(report, oracle)
    oracle_gap = max(abs(a - b) for a, b in zip(package, oracle))
    ok = max(errors) <= 0.03 and oracle_gap < 1e-10
    details = (
        f"rel errors s=1..3: {', '.join(f'{e * 100:.2f}%' for e in errors)} (need <= 3%); "
        f"recurrence vs Airy law (Janson's K_s) gap {oracle_gap:.1e}"
    )
    return ok, details, _report_rows(6, "ordered", report)


@_criterion(7, "family independence (alpha=1)")
def criterion_07_family_independence():
    """Normalized-moment gap between families shrinks along the grid."""
    reports = {name: _normalized(spec, TWO_SIDED, 3) for name, spec in (("cayley", cayley()), ("ordered", ordered()))}
    failures = []
    rows: List[Dict] = []
    for s in (1, 2, 3):
        check = analysis.family_independence_check(reports["cayley"], reports["ordered"], s)
        if not check.strictly_decreasing:
            failures.append(f"s={s} not strictly decreasing")
        rows.extend(
            dict(zip(ROW_FIELDS, (7, "cayley-ordered", TWO_SIDED, 1.0, row.n, s, row.difference, 0.0, row.difference)))
            for row in check.rows
        )
    passed = f"normalized gap strictly decreasing over n in {{{','.join(map(str, _GRID))}}}, s <= 3"
    return not failures, "; ".join(failures) or passed, rows


@_criterion(8, "alpha=1/2 mean growth (n in [500,4000])")
def criterion_08_half_mean_growth():
    """alpha = 1/2 mean: free-fit leading coefficient and delta stability."""
    failures = []
    summaries = []
    for name, spec in (("ordered", ordered()), ("cayley", cayley())):
        constants = solve_constants(spec)
        fit = analysis.estimate_delta(_float_table(spec, TWO_SIDED, 0.5, 4000, 1), constants)
        target = limits.predicted_mean(constants, 0.5, TWO_SIDED).coefficient
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
    lm = limits.limit_moments_one_sided(1.0, 2)
    targets = {1: math.sqrt(math.pi / 8.0), 2: 8.0 / 15.0}
    formula_ok = all(abs(lm.m[s] - target) <= 1e-12 for s, target in targets.items())
    report = _normalized(ordered(), ONE_SIDED, 2)
    errors = _errors_at_end(report, targets)
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
    indices = [index for s in range(2, 5) for index in limits._j_indices(s)]
    worst = max(abs(limits.j_integral(*index) - limits.j_integral_adaptive(*index)) for index in indices)
    if worst > 1e-8:
        failures.append(f"scheme disagreement {worst:.2e}")
    passed = f"Beta cases exact to 1e-8; {len(indices)} index triples, max scheme gap {worst:.1e}"
    return not failures, "; ".join(failures) or passed


@_criterion(11, "Monte Carlo consistency (n=200, 1e5 samples)")
def criterion_11_monte_carlo():
    """Size-process sampler vs DP at n=200, and worker-count determinism."""
    spec = ordered()
    n, samples = 200, 100_000
    failures = []
    notes = []
    for variant in (ONE_SIDED, TWO_SIDED):
        config = simulate.ExperimentConfig(
            family=spec, variant=variant, alpha=1.0, n=n, samples=samples,
            seed=SEED, engine=simulate.SIZE_PROCESS, workers=1,
        )
        stats = simulate.run_experiment(config)
        replay = simulate.run_experiment(dataclasses.replace(config, workers=4))
        if stats != replay:
            failures.append(f"{variant}: workers=1 vs workers=4 not identical")
        dp = float(_float_table(spec, variant, 1, n, 1).moment(n, 1))
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
