"""Double-exponential quadrature on (0, 1) with exact endpoint complements.

The tanh-sinh substitution x = (1 + tanh((pi/2) sinh t))/2 pushes both
endpoints out double-exponentially, which absorbs algebraic endpoint
singularities like x**(-1/2) or (1-x)**(-3/2+eps).  The integrand is
called as f(x, 1-x) where both arguments carry full *relative*
precision: x = 1/(1 + exp(-2u)) and 1-x = 1/(1 + exp(2u)) are computed
from u = (pi/2) sinh t independently, so 1-x is accurate even when it is
1e-280.  Levels halve the mesh until two successive estimates agree.

This is the rule behind :func:`treecut.limits.j_integral`; its
independent check, :func:`treecut.limits.j_integral_adaptive`, uses
SciPy's adaptive Gauss-Kronrod routine instead.
"""

from __future__ import annotations

import math
from typing import Callable, Tuple

import numpy as np

_HALF_PI = math.pi / 2.0
# |u| cap keeping exp(2u) finite; nodes beyond contribute < 1e-290 * f.
_T_MAX = 6.0


def _nodes(h: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Abscissae x, complements 1-x, and weights for mesh size h."""
    t = np.arange(-_T_MAX, _T_MAX + h / 2, h)
    u = _HALF_PI * np.sinh(t)
    x = 1.0 / (1.0 + np.exp(-2.0 * u))
    xm = 1.0 / (1.0 + np.exp(2.0 * u))
    # dx/dt = (pi/2) cosh(t) * sech(u)^2 / 2, written to avoid overflow
    sech2 = 4.0 * np.exp(-2.0 * np.abs(u)) / (1.0 + np.exp(-2.0 * np.abs(u))) ** 2
    w = h * _HALF_PI * np.cosh(t) * sech2 / 2.0
    keep = (x > 0.0) & (xm > 0.0)
    return x[keep], xm[keep], w[keep]


def tanh_sinh_01(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    tol: float = 1e-12,
    max_level: int = 10,
) -> float:
    """Integrate f(x, 1-x) over (0, 1); raises if levels fail to settle."""
    previous = None
    for level in range(max_level + 1):
        x, xm, w = _nodes(0.5 / 2**level)
        estimate = float(np.dot(w, f(x, xm)))
        if previous is not None and abs(estimate - previous) <= tol * max(1.0, abs(estimate)):
            return estimate
        previous = estimate
    raise ArithmeticError(f"tanh-sinh quadrature did not converge to {tol} (last={previous})")
