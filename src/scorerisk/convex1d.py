"""One-dimensional convex minimization by an exact search on the slope sign.

A convex function's minimizer set is where its slope changes sign: its
right derivative is >= 0 from the leftmost minimizer on, and its left
derivative <= 0 up to the rightmost. `sign_change` keeps a bracket with
a nondecreasing slope selection descending at its left end only. Its
tangent step goes to where the supporting lines at the bracket ends
cross (Kelley, J. SIAM 8, 1960); where the function is piecewise linear
and one kink lies between the pieces at the ends, that is the kink. It
stops:

- at the kinks a caller lists in one sorted array, by a binary search
  over the slopes at the midpoints of the gaps inside the bracket; where
  the function is linear between kinks, the kink where descending stops
  is the exact answer (width 0). The search probes the gap holding the
  tangent crossing, first and after each probe that halved the gaps
  left, and the middle gap after one that did not;
- at any point whose two slopes bracket zero: both are subgradients, so
  the left is >= the left derivative and the right <= the right one, and
  left < 0 <= right makes the point the leftmost minimizer exactly
  (left <= 0 < right the rightmost), as at a listed kink the search found;
- past listed kinks where the function is not linear between them, by
  tangent steps: where it is piecewise linear, as under evar, they land
  on kinks no list holds;
- otherwise by the Illinois regula falsi (Dowell & Jarratt, BIT 11,
  1971). Each kind of step is followed by a bisection where it fails to
  halve the bracket. The last two stop at a zero of a strictly increasing
  slope, at two adjacent floats, or a few steps (none if it starts there)
  after the width drops under `tol`, which happens only where the slope
  jumps at a point no list holds.

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
_NUDGE = 2.0**-10  # where a tangent step lands on an end, step this share of the bracket inside
Slopes = Callable[[float], tuple[float, float, float]]


def sign_change(slopes: Slopes, lo: float, hi: float, tol: float, *,
                rightmost: bool = False, strict: bool = False,
                kinks: np.ndarray | None = None, linear: bool = False) -> tuple[float, float]:
    """Final bracket of the point where the slope selection stops being < 0
    (<= 0 with `rightmost`): (y, y) when y is exact, one end twice when the
    point lies outside [lo, hi]. `slopes(y)` is (left, right, g(y)), left
    <= right two subgradients of convex g at y; the selection searched is
    the right one (the left with `rightmost`). `strict`: it is strictly
    increasing. `kinks`: a sorted array of the points where it may jump,
    searched only inside (lo, hi); with `linear`, it is constant between
    them.
    """
    if not tol > 0.0:
        raise DomainError(f"tol must be > 0, got {tol!r}")
    side = 0 if rightmost else 1

    def descending(slope: float) -> bool:
        return slope <= 0.0 if rightmost else slope < 0.0

    def exact(pair: tuple[float, float, float]) -> bool:
        # g'-(y) <= left < 0 <= right <= g'+(y): y is the point (mirrored
        # for `rightmost`), whichever subgradients the pair holds
        return descending(pair[0]) and not descending(pair[1])

    def narrow(y: float) -> bool:
        nonlocal lo, at_lo, flo, hi, at_hi, fhi
        pair = slopes(y)
        if descending(pair[side]):
            lo, at_lo, flo = y, pair, pair[side]
        else:
            hi, at_hi, fhi = y, pair, pair[side]
        return exact(pair)

    def tangent() -> float:
        # where the supporting lines at lo and hi, each with the slope on the
        # bracket's side, cross; at an end g is linear up to a kink there (to
        # rounding), so a point just inside it, and the midpoint where the
        # bracket is too narrow for that
        width = hi - lo
        y = lo + (at_hi[2] - at_lo[2] - at_hi[0] * width) / (at_lo[1] - at_hi[0])
        if not lo < y < hi:
            y = lo + _NUDGE * width if y <= lo else hi - _NUDGE * width
        return y if lo < y < hi else lo + 0.5 * width

    at_lo, at_hi = slopes(lo), slopes(hi)
    flo, fhi = at_lo[side], at_hi[side]
    if not descending(flo):
        return lo, lo
    if descending(fhi):
        return hi, hi
    if exact(at_lo) or exact(at_hi):
        return (lo, lo) if rightmost else (hi, hi)
    # tol caps the work: a bracket that starts under it takes no steps
    past_tol = _PAST_TOL if hi - lo <= tol else 0
    if kinks is not None:
        # gap i runs from points[i] to points[i + 1]; the sentinel gaps -1
        # and points.size - 1 stand for the known slopes at lo and hi
        inside = kinks[np.searchsorted(kinks, lo, side="right"):np.searchsorted(kinks, hi)]
        points = np.concatenate(([lo], inside, [hi]))
        below, above = -1, points.size - 1
        guided = True  # probe the gap that holds the tangent crossing
        while above - below > 1:
            span = above - below
            i = (below + above) // 2
            if guided:
                i = int(np.searchsorted(points, tangent(), side="right")) - 1
                i = min(max(i, below + 1), above - 1)
            y = 0.5 * (float(points[i]) + float(points[i + 1]))
            if narrow(y):
                return y, y
            below, above = (i, above) if lo == y else (below, i)
            guided = 2 * (above - below) <= span
        k = float(points[above])
        if linear or lo < k < hi and narrow(k):
            return k, k
    # past the listed kinks g may still be piecewise linear, with kinks no
    # list holds: the tangent steps land on such a kink where it is the
    # only one between the bracket ends
    tangent_steps = kinks is not None
    moved, bisect = 0, False
    for _ in range(_MAX_STEPS):
        width = hi - lo
        mid = lo + 0.5 * width
        if not lo < mid < hi or width <= tol and (past_tol := past_tol + 1) > _PAST_TOL:
            break
        if bisect:
            y = mid
        elif tangent_steps:
            y = tangent()
        else:
            y = lo + width * (flo / (flo - fhi))
        secant = lo < y < hi and y != mid
        y = y if secant else mid
        if narrow(y):
            return y, y
        f, side_moved = (flo, -1) if lo == y else (fhi, 1)
        if strict and f == 0.0:
            return y, y
        if secant and side_moved == moved and not tangent_steps:
            # Illinois: two secant steps in a row moved the same end, so
            # halve the slope kept at the other to make the next cross over
            flo, fhi = (flo, 0.5 * fhi) if side_moved < 0 else (0.5 * flo, fhi)
        moved = side_moved if secant else moved
        bisect = hi - lo > 0.5 * width
    return lo, hi


def minimizer_interval(slopes: Slopes, a: float, b: float, tol: float, *, strict: bool = False,
                       kinks: np.ndarray | None = None,
                       linear: bool = False) -> tuple[float, float, float]:
    """Both ends of the minimizer set in [a, b] and the widest final
    bracket, from `slopes(y)` = (left, right, g(y)). The rightmost end,
    unless `strict`, is searched from the leftmost search's lower end to
    the first point seen where the left selection is > 0. `strict`,
    `kinks` and `linear` are `sign_change`'s; ends crossed near a strict
    minimum collapse to their midpoint."""
    seen: dict[float, tuple[float, float, float]] = {}

    def pair(y: float) -> tuple[float, float, float]:
        if y not in seen:
            seen[y] = slopes(y)
        return seen[y]

    search = dict(kinks=kinks, linear=linear)
    lo, left = sign_change(pair, a, b, tol, strict=strict, **search)
    if strict:
        return left, left, left - lo
    # a kink found under `linear` is returned unevaluated; the last point
    # seen left of it is that search's final lower end
    start = max(y for y in seen if y <= lo)
    end = min((y for y, (slope, _, _) in seen.items() if slope > 0.0), default=b)
    right, hi = sign_change(pair, start, end, tol, rightmost=True, **search)
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
