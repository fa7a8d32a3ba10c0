"""Convergence analysis: finite-n moment tables vs limit predictions.

Normalization depends on the regime.  With alpha' = alpha + 1/2 and
sigma from the family constants:

* one-sided, any alpha >= 0:      mu_n^[s] / (sigma^s n^(s alpha'))
* two-sided, alpha > 1/2:         mu_n^[s] / (sigma^s n^(s alpha'))
* two-sided, 0 < alpha < 1/2:     E(X_n - mu*n)^s / (sigma^s n^(s alpha'))
* two-sided, alpha = 1/2:         E(X_n - (sigma/sqrt(2 pi)) n ln n - delta*n)^s
                                  / (sigma^s n^s)
* two-sided, alpha = 0:           mu_n^[s] / n^s  (deterministic cost)

The linear coefficients mu (alpha < 1/2) and delta (alpha = 1/2) have no
closed form here; they are least-squares estimates fitted on a geometric
grid of n, using the known correction exponents as the remaining model
terms.  Fitted values are estimates and are reported as such, with
residuals and a half-range refit for stability checks.  The fits run in
double precision, on rational tables too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .errors import ConfigError, IllConditioned, MissingShift
from .family import FamilyConstants
from .limits import (
    HALF_POLE_WINDOW,
    LimitMoments,
    limit_moments_one_sided,
    limit_moments_two_sided,
    limit_moments_two_sided_half,
)
from .moments import ONE_SIDED, TWO_SIDED, MomentTable, shifted_moments

#: Column-normalized design matrices worse than this are rejected.
CONDITION_LIMIT = 1e3

#: Default number of geometric grid points between n_max/8 and n_max.
GRID_POINTS = 16


def fit_grid(n_max: int, points: int = GRID_POINTS, low_factor: int = 8) -> np.ndarray:
    """Geometric grid of distinct integers in [n_max/low_factor, n_max]."""
    lo = max(2, n_max // low_factor)
    grid = np.unique(np.geomspace(lo, n_max, points).astype(int))
    if grid.size < 4:
        raise ConfigError(f"fit grid from n_max={n_max} has fewer than 4 points")
    return grid


def _scaled_lstsq(design: np.ndarray, y: np.ndarray, cond_limit: float = CONDITION_LIMIT):
    """Least squares on column-normalized design; guards conditioning."""
    scale = np.linalg.norm(design, axis=0)
    scaled = design / scale
    sv = np.linalg.svd(scaled, compute_uv=False)
    cond = sv[0] / sv[-1]
    if cond > cond_limit:
        raise IllConditioned(
            f"design matrix condition {cond:.3g} exceeds {cond_limit:.0e} "
            "(model terms nearly collinear; alpha too close to 1/2?)"
        )
    coef, *_ = np.linalg.lstsq(scaled, y, rcond=None)
    coef = coef / scale
    fitted = design @ coef
    residual = float(np.sqrt(np.mean(((fitted - y) / y) ** 2)))
    return coef, residual, cond


@dataclass(frozen=True)
class MuFit:
    """Estimated linear cost coefficient for two-sided alpha < 1/2."""

    value: float
    residual: float  # rms relative fit residual
    value_half: float  # same fit restricted to n <= n_max/2
    condition: float

    @property
    def stability(self) -> float:
        """Relative change of the estimate when n_max is halved."""
        return abs(self.value - self.value_half) / abs(self.value)


@dataclass(frozen=True)
class DeltaFit:
    """Estimated linear term at alpha = 1/2, plus a free-fit cross-check."""

    delta: float
    residual: float
    delta_half: float
    fixed_coefficient: float  # the imposed n*ln(n) coefficient sigma/sqrt(2 pi)
    free_coefficient: float  # n*ln(n) coefficient when also fitted
    free_coefficient_half: float

    @property
    def stability(self) -> float:
        return abs(self.delta - self.delta_half) / abs(self.delta)


def estimate_mu(table: MomentTable, grid: Optional[Sequence[int]] = None) -> MuFit:
    """Fit mu in mu_n^[1] ~ mu*n + A*n^(alpha+1/2) + B*n^alpha.

    Needs alpha < 1/2 and n_max >= 512.  The fit runs in double
    precision on the float moments, rational tables included.
    """
    alpha = float(table.toll.alpha)
    if table.toll.override is not None:
        raise ConfigError("mu estimation needs the power toll t_n = n^alpha")
    if not alpha < 0.5:
        raise ConfigError(f"mu is the linear coefficient for alpha < 1/2, got alpha={alpha}")
    if table.n_max < 512:
        raise ConfigError(f"mu estimation needs n_max >= 512, got {table.n_max}")
    grid = fit_grid(table.n_max) if grid is None else np.asarray(list(grid), dtype=int)
    mu1 = table.row(1)

    def fit(points: np.ndarray):
        nn = points.astype(float)
        design = np.column_stack([nn, nn ** (alpha + 0.5), nn**alpha])
        return _scaled_lstsq(design, mu1[points])

    coef, residual, cond = fit(grid)
    half = grid[grid <= table.n_max // 2]
    coef_half, _, _ = fit(half)
    return MuFit(
        value=float(coef[0]),
        residual=residual,
        value_half=float(coef_half[0]),
        condition=float(cond),
    )


def estimate_delta(
    table: MomentTable,
    constants: FamilyConstants,
    grid: Optional[Sequence[int]] = None,
) -> DeltaFit:
    """Fit delta in mu_n^[1] ~ (sigma/sqrt(2 pi)) n ln n + delta*n + ...

    The n*ln(n) coefficient is pinned to its known value; remaining model
    terms are sqrt(n)*ln(n) and sqrt(n).  A free fit (leading coefficient
    also estimated) is returned as a cross-check; delta itself is an
    estimate with no independently known value.
    """
    alpha = float(table.toll.alpha)
    if table.variant != TWO_SIDED or abs(alpha - 0.5) > 1e-12:
        raise ConfigError("delta estimation applies to two-sided tables at alpha = 1/2")
    if table.n_max < 1000:
        raise ConfigError(f"delta estimation needs n_max >= 1000, got {table.n_max}")
    grid = fit_grid(table.n_max) if grid is None else np.asarray(list(grid), dtype=int)
    mu1 = table.row(1)
    lead = constants.sigma / math.sqrt(2.0 * math.pi)

    def fit(points: np.ndarray):
        # the n*ln(n)/n basis is collinear over one decade of n (condition
        # ~1e4); that is still far from double-precision rank loss
        nn = points.astype(float)
        logs = np.log(nn)
        y = mu1[points]
        free_design = np.column_stack([nn * logs, nn, np.sqrt(nn) * logs, np.sqrt(nn)])
        free_coef, _, _ = _scaled_lstsq(free_design, y, cond_limit=1e7)
        fixed_design = np.column_stack([nn, np.sqrt(nn) * logs, np.sqrt(nn)])
        fixed_coef, residual, _ = _scaled_lstsq(fixed_design, y - lead * nn * logs, cond_limit=1e7)
        return float(fixed_coef[0]), float(free_coef[0]), residual

    delta, free, residual = fit(grid)
    half = grid[grid <= table.n_max // 2]
    delta_half, free_half, _ = fit(half)
    return DeltaFit(
        delta=delta,
        residual=residual,
        delta_half=delta_half,
        fixed_coefficient=lead,
        free_coefficient=free,
        free_coefficient_half=free_half,
    )


@dataclass(frozen=True)
class ReportRow:
    n: int
    s: int
    normalized: float
    limit: float
    rel_error: float  # |normalized - limit| / |limit|, abs error when limit = 0


@dataclass(frozen=True)
class ConvergenceReport:
    family: str
    variant: str
    alpha: float
    rows: List[ReportRow]
    fitted: Dict[str, float]

    def series(self, s: int) -> List[ReportRow]:
        return [row for row in self.rows if row.s == s]


def _regime_limits(variant: str, alpha: float, s_max: int) -> Optional[LimitMoments]:
    if variant == ONE_SIDED:
        return limit_moments_one_sided(alpha, s_max)
    if alpha == 0:
        return None  # deterministic; handled inline
    if abs(alpha - 0.5) < HALF_POLE_WINDOW:
        return limit_moments_two_sided_half(s_max)
    return limit_moments_two_sided(alpha, s_max)


def normalize_moments(
    table: MomentTable,
    constants: FamilyConstants,
    grid: Optional[Sequence[int]] = None,
    s_values: Optional[Sequence[int]] = None,
    mu: Optional[float] = None,
    delta: Optional[float] = None,
) -> ConvergenceReport:
    """Normalized moments on a grid of n, next to their limit values.

    For the shifted two-sided regimes (0 < alpha < 1/2 and alpha = 1/2)
    the linear coefficient is fitted on demand; pass ``mu``/``delta`` to
    override.  MissingShift is raised when the table is too short to fit
    and no coefficient was supplied.
    """
    alpha = float(table.toll.alpha)
    sigma = constants.sigma
    grid = fit_grid(table.n_max, low_factor=8) if grid is None else np.asarray(list(grid), dtype=int)
    s_values = range(1, table.s_max + 1) if s_values is None else s_values
    s_max = max(s_values)
    ap = alpha + 0.5
    fitted: Dict[str, float] = {}

    shift = None
    if table.variant == TWO_SIDED and 0 < alpha and abs(alpha - 0.5) < HALF_POLE_WINDOW:
        if delta is None:
            try:
                delta = estimate_delta(table, constants).delta
            except ConfigError as exc:
                raise MissingShift(f"alpha = 1/2 normalization needs delta: {exc}") from exc
        lead = sigma / math.sqrt(2.0 * math.pi)
        shift = lambda n: lead * n * math.log(n) + delta * n
        fitted["delta"] = float(delta)
        norm_power = 1.0
    elif table.variant == TWO_SIDED and 0 < alpha < 0.5:
        if mu is None:
            try:
                mu = estimate_mu(table).value
            except ConfigError as exc:
                raise MissingShift(f"alpha < 1/2 normalization needs mu: {exc}") from exc
        shift = lambda n: mu * n
        fitted["mu"] = float(mu)
        norm_power = ap
    else:
        norm_power = ap

    limits = _regime_limits(table.variant, alpha, s_max)
    rows: List[ReportRow] = []
    for s in s_values:
        if table.variant == TWO_SIDED and alpha == 0:
            # deterministic cost: per edge plus the size-1 boundary charge
            limit_value = (1.0 + float(table.toll.t1)) ** s
            values = {int(n): float(table.moment(int(n), s)) / float(n) ** s for n in grid}
        else:
            limit_value = limits.m[s]
            if shift is not None:
                centered = shifted_moments(table, shift, s, n_values=[int(n) for n in grid])
                values = {
                    int(n): float(c) / (sigma**s * float(n) ** (s * norm_power))
                    for n, c in zip(grid, centered)
                }
            else:
                values = {
                    int(n): float(table.moment(int(n), s)) / (sigma**s * float(n) ** (s * norm_power))
                    for n in grid
                }
        for n in grid:
            value = values[int(n)]
            err = abs(value - limit_value) / abs(limit_value) if limit_value != 0 else abs(value)
            rows.append(ReportRow(n=int(n), s=s, normalized=value, limit=limit_value, rel_error=err))
    return ConvergenceReport(
        family=table.family.label(),
        variant=table.variant,
        alpha=alpha,
        rows=rows,
        fitted=fitted,
    )


@dataclass(frozen=True)
class IndependenceRow:
    n: int
    difference: float


@dataclass(frozen=True)
class IndependenceTable:
    s: int
    rows: List[IndependenceRow]

    @property
    def decreasing(self) -> bool:
        """Final difference strictly below the first."""
        return self.rows[-1].difference < self.rows[0].difference

    @property
    def strictly_decreasing(self) -> bool:
        return all(a.difference > b.difference for a, b in zip(self.rows, self.rows[1:]))


def family_independence_check(
    report_a: ConvergenceReport, report_b: ConvergenceReport, s: int
) -> IndependenceTable:
    """|normalized_a(n) - normalized_b(n)| on the common grid, per n.

    Families share a limit after normalization, so the gap between two
    families' normalized moments must shrink as n grows.
    """
    a = {row.n: row.normalized for row in report_a.series(s)}
    b = {row.n: row.normalized for row in report_b.series(s)}
    common = sorted(set(a) & set(b))
    if len(common) < 2:
        raise ConfigError("reports share fewer than two grid points")
    rows = [IndependenceRow(n=n, difference=abs(a[n] - b[n])) for n in common]
    return IndependenceTable(s=s, rows=rows)
