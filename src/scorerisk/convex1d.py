"""One-dimensional convex minimization by an exact search on the slope sign.

A convex function's minimizer set is where its slope changes sign: its
right derivative is >= 0 from the leftmost minimizer on, and its left
derivative <= 0 up to the rightmost. `sign_change` keeps a bracket with
a nondecreasing slope selection descending at its left end only, and stops:

- at listed kinks, by a binary search over the slopes at the gap
  midpoints; where the function is linear between kinks, the kink where
  descending stops is the exact answer (width 0);
- otherwise by the Illinois regula falsi (Dowell & Jarratt, BIT 11,
  1971), bisecting after each step that fails to halve the bracket: at
  a zero of a strictly increasing slope, at two adjacent floats, or a
  few steps (none if it starts there) after the width drops under `tol`,
  which happens only where the slope jumps at a point no list holds.

So `tol` caps the work, and the final width is the precision reached.
`minimizer_interval` searches both ends, the second from where the first
stopped, evaluating each point once. `min_value` finds the minimum value
from values alone, without a slope.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DomainError

_MAX_STEPS = 200
_PAST_TOL = 3  # steps taken after the bracket is under tol
Kinks = Callable[[float, float], np.ndarray | None]


def sign_change(gprime: Callable[[float], float], lo: float, hi: float, tol: float, *,
                rightmost: bool = False, strict: bool = False,
                kinks: Kinks | None = None, linear: bool = False) -> tuple[float, float]:
    """Final bracket of the point where the slope selection `gprime`
    stops being < 0 (<= 0 with `rightmost`): (y, y) when y is exact, one
    end twice when the point lies outside [lo, hi]. `strict`: gprime is
    strictly increasing. `kinks(lo, hi)`: the sorted points inside where
    gprime may jump, or None while too many to list; with `linear`,
    gprime is constant between them.
    """
    if not tol > 0.0:
        raise DomainError(f"tol must be > 0, got {tol!r}")

    def descending(slope: float) -> bool:
        return slope <= 0.0 if rightmost else slope < 0.0

    def narrow(y: float) -> float:
        nonlocal lo, flo, hi, fhi
        if descending(f := gprime(y)):
            lo, flo = y, f
        else:
            hi, fhi = y, f
        return f

    flo, fhi = gprime(lo), gprime(hi)
    if not descending(flo):
        return lo, lo
    if descending(fhi):
        return hi, hi
    # tol caps the work: a bracket that starts under it takes no steps
    past_tol = _PAST_TOL if hi - lo <= tol else 0
    while kinks is not None and (listed := kinks(lo, hi)) is None and lo < 0.5 * (lo + hi) < hi:
        narrow(0.5 * (lo + hi))
    if kinks is not None and listed is not None:
        # gap i runs from points[i] to points[i + 1]; the sentinel gaps -1
        # and points.size - 1 stand for the known slopes at lo and hi
        points = np.concatenate(([lo], listed, [hi]))
        below, above = -1, points.size - 1
        while above - below > 1:
            i = (below + above) // 2
            y = 0.5 * (float(points[i]) + float(points[i + 1]))
            below, above = (i, above) if descending(narrow(y)) else (below, i)
        k = float(points[above])
        if linear:
            return k, k
        if lo < k < hi:
            narrow(k)  # the slope is continuous on either side of k from here
    moved, bisect = 0, False
    for _ in range(_MAX_STEPS):
        width = hi - lo
        mid = lo + 0.5 * width
        if not lo < mid < hi or width <= tol and (past_tol := past_tol + 1) > _PAST_TOL:
            break
        y = mid if bisect else lo + width * (flo / (flo - fhi))
        secant = lo < y < hi and y != mid
        y = y if secant else mid
        f = narrow(y)
        if strict and f == 0.0:
            return y, y
        side = -1 if descending(f) else 1
        if secant and side == moved:
            # Illinois: two secant steps in a row moved the same end, so
            # halve the slope kept at the other to make the next cross over
            flo, fhi = (flo, 0.5 * fhi) if side < 0 else (0.5 * flo, fhi)
        moved = side if secant else moved
        bisect = hi - lo > 0.5 * width
    return lo, hi


def minimizer_interval(slopes: Callable[[float], tuple[float, float]], a: float, b: float,
                       tol: float, *, strict: bool = False, kinks: Kinks | None = None,
                       linear: bool = False) -> tuple[float, float, float]:
    """Both ends of the minimizer set in [a, b] and the widest final
    bracket, from the pair (left, right) of derivative selections
    `slopes(y)`. The rightmost end, unless `strict`, is searched from the
    leftmost search's lower end to the first point seen where the left
    selection is > 0. `strict`, `kinks` and `linear` are `sign_change`'s;
    ends crossed near a strict minimum collapse to their midpoint."""
    seen: dict[float, tuple[float, float]] = {}

    def pair(y: float) -> tuple[float, float]:
        if y not in seen:
            seen[y] = slopes(y)
        return seen[y]

    search = dict(kinks=kinks, linear=linear)
    lo, left = sign_change(lambda y: pair(y)[1], a, b, tol, strict=strict, **search)
    if strict:
        return left, left, left - lo
    # an exact kink is returned unevaluated; the last point seen left of it
    # is that search's final lower end
    start = max(y for y in seen if y <= lo)
    end = min((y for y, (slope, _) in seen.items() if slope > 0.0), default=b)
    right, hi = sign_change(lambda y: pair(y)[0], start, end, tol, rightmost=True, **search)
    width = max(left - lo, hi - right)
    if left > right:
        left = right = 0.5 * (left + right)
    return left, right, width


def min_value(g: Callable[[float], float], a: float, b: float, tol: float) -> float:
    """Minimum value of convex g on [a,b] by ternary shrinking.

    The bracket converges to a (possibly flat) minimizer set; the value
    converges regardless of flatness.
    """
    if not tol > 0.0:
        raise DomainError(f"tol must be > 0, got {tol!r}")
    lo, hi = a, b
    for _ in range(_MAX_STEPS):
        if hi - lo <= tol:
            break
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if g(m1) < g(m2):
            hi = m2
        else:
            lo = m1
    return min(g(lo), g(0.5 * (lo + hi)), g(hi))
