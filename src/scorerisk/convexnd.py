"""Minimization of convex functions on R^d with exact line searches.

Cyclic exact coordinate minimization with a Powell-style acceleration
line search along each sweep's net displacement. Each line problem is
convex and solved from a subgradient `grad` of the objective: the
directional slope t -> grad(x + t u) . u is nondecreasing, and
`convex1d.minimizer_interval` searches its sign change, so flat valleys
(piecewise-linear objectives) are handled without values of F.

Optimality is certified coordinate-wise: at the returned point the
one-sided difference quotients of F along every coordinate must bracket
zero; the residual reports the largest violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import convex1d


@dataclass(frozen=True)
class MinimizeResult:
    x: np.ndarray
    value: float
    foc_residual: float
    sweeps: int


def _line_bracket(slope: Callable[[float], float], step: float) -> tuple[float, float]:
    """Expand from 0 until the sign change of the nondecreasing slope
    lies inside [lo, hi]."""
    s0 = slope(0.0)
    if s0 == 0.0:
        return -step, step
    # walk downhill: forward when descending at 0, backward otherwise
    direction = 1.0 if s0 < 0.0 else -1.0
    t_prev, t = 0.0, direction * step
    while direction * slope(t) < 0.0 and abs(t) <= 1e12:
        t_prev, t = t, 2.0 * t
    return min(t_prev, t), max(t_prev, t)


def line_minimize(slope: Callable[[float], float], step: float, tol: float) -> float:
    """Midpoint of the minimizer interval over the real line of a convex
    function with nondecreasing slope selection `slope`."""
    lo, hi = _line_bracket(slope, step)
    a, b = convex1d.minimizer_interval(slope, lo, hi, tol)
    return 0.5 * (a + b)


def coordinate_certificate(
    F: Callable[[np.ndarray], float], x: np.ndarray, h: float
) -> float:
    """Largest coordinate-wise violation of dminus <= 0 <= dplus at x."""
    fx = F(x)
    worst = 0.0
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        dplus = (F(x + e) - fx) / h
        dminus = (fx - F(x - e)) / h
        worst = max(worst, dminus, -dplus)
    return worst


def minimize_convex(
    F: Callable[[np.ndarray], float],
    grad: Callable[[np.ndarray], np.ndarray],
    x0: Sequence[float],
    steps: Sequence[float],
    tol: float = 1e-8,
    max_sweeps: int = 400,
) -> MinimizeResult:
    """Minimize convex F, given a subgradient selection `grad` of F.

    Stops when a sweep moves x by at most tol in every coordinate, which
    is the resolution of the line searches.
    """
    x = np.asarray(x0, dtype=float).copy()
    steps = np.asarray(steps, dtype=float)
    d = x.size

    def line(u: np.ndarray, step: float) -> float:
        return line_minimize(lambda t: float(np.dot(grad(x + t * u), u)), step, tol)

    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        x_start = x.copy()
        for i in range(d):
            e = np.zeros(d)
            e[i] = 1.0
            x = x + line(e, float(steps[i])) * e
        delta = x - x_start
        dn = float(np.max(np.abs(delta)))
        if dn > 0.0:
            u = delta / dn
            x = x + line(u, max(dn, tol)) * u
        moved = float(np.max(np.abs(x - x_start)))
        if moved <= tol:
            break

    h = max(tol, 1e-9 * float(np.max(steps)))
    residual = coordinate_certificate(F, x, h)
    return MinimizeResult(x=x, value=F(x), foc_residual=residual, sweeps=sweeps)
