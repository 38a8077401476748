"""One-dimensional convex minimization by subgradient-sign bisection.

A convex function's minimizer set is where its slope changes sign. Any
selection of its subdifferential is nondecreasing, so the leftmost
minimizer is the first point where the selection is >= 0 and the
rightmost the last point where it is <= 0, and both are found by
bisecting that sign. Unlike golden-section search, this pins down the
*endpoints* of a flat valley, which piecewise-linear objectives produce
routinely, and an exact slope keeps its sign near a smooth minimum where
difference quotients of values would cancel to noise.

`min_value` locates the minimum value from function values alone, for
callers that have no slope.
"""

from __future__ import annotations

from typing import Callable

from .errors import DomainError

_MAX_BISECT = 200


def _sign_change(gprime: Callable[[float], float], a: float, b: float, tol: float,
                 descending: Callable[[float], bool]) -> float:
    """Midpoint of the final bracket where ``descending(gprime(y))`` flips
    from true to false; a or b when the flip lies outside [a, b]."""
    if tol <= 0.0:
        raise DomainError(f"tol must be > 0, got {tol!r}")
    if gprime(a) >= 0.0:
        return a
    if gprime(b) <= 0.0:
        return b
    lo, hi = a, b
    for _ in range(_MAX_BISECT):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if descending(gprime(mid)):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def leftmost_minimizer(gprime: Callable[[float], float], a: float, b: float,
                       tol: float) -> float:
    """First y in [a, b] with gprime(y) >= 0, for a nondecreasing slope
    selection gprime of a convex function; within tol."""
    return _sign_change(gprime, a, b, tol, lambda slope: slope < 0.0)


def rightmost_minimizer(gprime: Callable[[float], float], a: float, b: float,
                        tol: float) -> float:
    """Last y in [a, b] with gprime(y) <= 0; within tol."""
    return _sign_change(gprime, a, b, tol, lambda slope: slope <= 0.0)


def minimizer_interval(gprime: Callable[[float], float], a: float, b: float,
                       tol: float) -> tuple[float, float]:
    """Both endpoints of the minimizer set in [a, b]. Near a strict
    minimum the two bisections may cross by up to tol; a crossing
    collapses to its midpoint."""
    lo = leftmost_minimizer(gprime, a, b, tol)
    hi = rightmost_minimizer(gprime, a, b, tol)
    if lo > hi:
        lo = hi = 0.5 * (lo + hi)
    return lo, hi


def min_value(g: Callable[[float], float], a: float, b: float, tol: float) -> float:
    """Minimum value of convex g on [a,b] by ternary shrinking.

    The bracket converges to a (possibly flat) minimizer set; the value
    converges regardless of flatness.
    """
    if tol <= 0.0:
        raise DomainError(f"tol must be > 0, got {tol!r}")
    lo, hi = a, b
    for _ in range(_MAX_BISECT):
        if hi - lo <= tol:
            break
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if g(m1) < g(m2):
            hi = m2
        else:
            lo = m1
    return min(g(lo), g(0.5 * (lo + hi)), g(hi))
