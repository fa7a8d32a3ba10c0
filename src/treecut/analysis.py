"""Convergence analysis: finite-n moment tables vs limit predictions.

Normalization depends on the regime of :func:`treecut.limits.regime`,
where alpha within HALF_POLE_WINDOW = 1e-6 of 1/2 is the alpha = 1/2
regime.  With alpha' = alpha + 1/2 and sigma from the family constants:

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
    ONE_SIDED,
    TWO_SIDED,
    TWO_SIDED_EDGES,
    TWO_SIDED_HALF,
    TWO_SIDED_LINEAR,
    limit_moments_one_sided,
    limit_moments_two_sided,
    limit_moments_two_sided_half,
    predicted_mean,
    regime,
)
from .moments import MomentTable, shifted_moments

#: Column-normalized design matrices worse than this are rejected.
CONDITION_LIMIT = 1e3

#: Number of geometric grid points between n_max/8 and n_max.
GRID_POINTS = 16


def fit_grid(n_max: int) -> np.ndarray:
    """Geometric grid of GRID_POINTS distinct integers in [n_max/8, n_max]."""
    points = np.geomspace(max(2, n_max // 8), n_max, GRID_POINTS).astype(int)
    grid = np.array(sorted(set(points.tolist())))  # np.unique would import numpy.ma (~12 ms)
    if grid.size < 4:
        raise ConfigError(f"fit grid from n_max={n_max} has fewer than 4 points")
    return grid


def _scaled_lstsq(design: np.ndarray, y: np.ndarray, cond_limit: float):
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
    return coef, residual


def _fit_mean(table: MomentTable, regimes: Sequence[str], n_min: int, what: str) -> np.ndarray:
    """The mean row E V_n of a table that the fit of ``what`` applies to."""
    kind = regime(table.variant, float(table.toll.alpha))
    if kind not in regimes:
        raise ConfigError(f"{what} estimation applies to {' and '.join(regimes)} tables, not {kind}")
    if table.n_max < n_min:
        raise ConfigError(f"{what} estimation needs n_max >= {n_min}, got {table.n_max}")
    return table.row(1)


def _grid_fit(mean: np.ndarray, n_max: int, columns, offset=lambda nn: 0.0, cond_limit: float = CONDITION_LIMIT):
    """Fit E V_n - offset(n) on the list ``columns(n)``, over fit_grid(n_max) and its half.

    ``n`` reaches both functions as a float array.  Returns ``(coef,
    residual)`` on the whole grid and the coefficients refitted on the
    points n <= n_max/2.  The conditioning guard is ``_scaled_lstsq``'s.
    """
    grid = fit_grid(n_max)
    fits = []
    for points in (grid, grid[grid <= n_max // 2]):
        nn = points.astype(float)
        fits.append(_scaled_lstsq(np.column_stack(columns(nn)), mean[points] - offset(nn), cond_limit))
    return fits[0], fits[1][0]


@dataclass(frozen=True)
class MuFit:
    """Estimated linear cost coefficient for two-sided alpha < 1/2."""

    value: float
    residual: float  # rms relative fit residual
    value_half: float  # same fit restricted to n <= n_max/2

    @property
    def stability(self) -> float:
        """Relative change of the estimate when n_max is halved."""
        return abs(self.value - self.value_half) / abs(self.value)


@dataclass(frozen=True)
class DeltaFit:
    """Estimated linear term at alpha = 1/2, plus a free-fit cross-check."""

    delta: float
    delta_half: float
    free_coefficient: float  # n*ln(n) coefficient when also fitted

    @property
    def stability(self) -> float:
        return abs(self.delta - self.delta_half) / abs(self.delta)


def estimate_mu(table: MomentTable) -> MuFit:
    """Fit mu in mu_n^[1] ~ mu*n + A*n^(alpha+1/2) + B*n^alpha.

    Needs a two-sided table with alpha < 1/2 and n_max >= 512.  The fit
    runs in double precision on the float moments, rational tables
    included.
    """
    mean = _fit_mean(table, (TWO_SIDED_EDGES, TWO_SIDED_LINEAR), 512, "mu")
    alpha = float(table.toll.alpha)
    (coef, residual), coef_half = _grid_fit(mean, table.n_max, lambda nn: [nn, nn ** (alpha + 0.5), nn**alpha])
    return MuFit(value=float(coef[0]), residual=residual, value_half=float(coef_half[0]))


def estimate_delta(table: MomentTable, constants: FamilyConstants) -> DeltaFit:
    """Fit delta in mu_n^[1] ~ (sigma/sqrt(2 pi)) n ln n + delta*n + ...

    The n*ln(n) coefficient is pinned to its known value; remaining model
    terms are sqrt(n)*ln(n) and sqrt(n).  A free fit (leading coefficient
    also estimated) is returned as a cross-check; delta itself is an
    estimate with no independently known value.  The n*ln(n)/n basis is
    collinear over one decade of n (condition ~1e4), still far from
    double-precision rank loss, so both fits accept conditions up to 1e7.
    """
    mean = _fit_mean(table, (TWO_SIDED_HALF,), 1000, "delta")
    lead = predicted_mean(constants, 0.5, TWO_SIDED).coefficient

    def lower(nn: np.ndarray) -> List[np.ndarray]:
        return [nn, np.sqrt(nn) * np.log(nn), np.sqrt(nn)]

    (free, _), _ = _grid_fit(mean, table.n_max, lambda nn: [nn * np.log(nn)] + lower(nn), cond_limit=1e7)
    (fixed, _), fixed_half = _grid_fit(mean, table.n_max, lower, lambda nn: lead * nn * np.log(nn), 1e7)
    return DeltaFit(delta=float(fixed[0]), delta_half=float(fixed_half[0]), free_coefficient=float(free[0]))


@dataclass(frozen=True)
class ReportRow:
    n: int
    s: int
    normalized: float
    limit: float
    rel_error: float  # |normalized - limit| / |limit|, abs error when limit = 0


@dataclass(frozen=True)
class ConvergenceReport:
    variant: str
    alpha: float
    rows: List[ReportRow]
    fitted: Dict[str, float]

    def series(self, s: int) -> List[ReportRow]:
        return [row for row in self.rows if row.s == s]


def normalize_moments(
    table: MomentTable,
    constants: FamilyConstants,
    grid: Optional[Sequence[int]] = None,
    mu: Optional[float] = None,
    delta: Optional[float] = None,
) -> ConvergenceReport:
    """Normalized moments on a grid of n, next to their limit values.

    Every order s = 1..s_max of the table is reported as
    E(V_n - shift(n))^s / (scale^s n^(s*power)), with the shift, scale,
    power and limit of the table's :func:`treecut.limits.regime`.  For
    the shifted two-sided regimes (0 < alpha < 1/2 and alpha = 1/2) the
    linear coefficient is fitted on demand; pass ``mu``/``delta`` to
    override.  MissingShift is raised when the table is too short to fit
    and no coefficient was supplied.
    """
    alpha = float(table.toll.alpha)
    kind = regime(table.variant, alpha)
    grid = fit_grid(table.n_max) if grid is None else np.asarray(list(grid), dtype=int)
    s_max = table.s_max
    shift, scale, power, fitted = None, constants.sigma, alpha + 0.5, {}
    if kind == TWO_SIDED_EDGES:  # deterministic cost: per edge plus the size-1 boundary charge
        scale, power = 1.0, 1.0
        limit = [(1.0 + float(table.toll.t1)) ** s for s in range(s_max + 1)]
    elif kind == TWO_SIDED_HALF:
        if delta is None:
            try:
                delta = estimate_delta(table, constants).delta
            except ConfigError as exc:
                raise MissingShift(f"alpha = 1/2 normalization needs delta: {exc}") from exc
        lead = predicted_mean(constants, 0.5, TWO_SIDED).coefficient
        shift, power, fitted = (lambda n: lead * n * math.log(n) + delta * n), 1.0, {"delta": float(delta)}
        limit = limit_moments_two_sided_half(s_max).m
    elif kind == TWO_SIDED_LINEAR:
        if mu is None:
            try:
                mu = estimate_mu(table).value
            except ConfigError as exc:
                raise MissingShift(f"alpha < 1/2 normalization needs mu: {exc}") from exc
        shift, fitted = (lambda n: mu * n), {"mu": float(mu)}
        limit = limit_moments_two_sided(alpha, s_max).m
    elif kind == ONE_SIDED:
        limit = limit_moments_one_sided(alpha, s_max).m
    else:
        limit = limit_moments_two_sided(alpha, s_max).m

    ns = [int(n) for n in grid]
    rows: List[ReportRow] = []
    for s in range(1, s_max + 1):
        raw = [table.moment(n, s) for n in ns] if shift is None else shifted_moments(table, shift, s, n_values=ns)
        for n, moment in zip(ns, raw):
            value = float(moment) / (scale**s * float(n) ** (s * power))
            err = abs(value - limit[s]) / abs(limit[s]) if limit[s] != 0 else abs(value)
            rows.append(ReportRow(n=n, s=s, normalized=value, limit=limit[s], rel_error=err))
    return ConvergenceReport(table.variant, alpha, rows, fitted)


@dataclass(frozen=True)
class IndependenceRow:
    n: int
    difference: float


@dataclass(frozen=True)
class IndependenceTable:
    s: int
    rows: List[IndependenceRow]

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
