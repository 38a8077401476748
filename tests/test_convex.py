"""The shared convex kernels: the slope-sign bracket search and the ellipsoid method."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from scorerisk import DomainError
from scorerisk.convex1d import minimizer_interval, sign_change
from scorerisk.convexnd import minimize_convex

TOL = 1e-9


def flat_valley_slope(y: float) -> float:
    """Slope of (max(y - 2, 0)^2 + max(1 - y, 0)^2) / 2, which is flat
    exactly on [1, 2]."""
    return max(y - 2.0, 0.0) - max(1.0 - y, 0.0)


def both(slope, g):
    """`slopes(y)` = (left, right, g(y)) of a g whose slope selection has
    the same value on either side."""
    return lambda y: (slope(y), slope(y), g(y))


def smooth(y: float) -> float:
    """Slope of (y - 0.3)^2 + exp(y)."""
    return 2.0 * (y - 0.3) + math.exp(y)


def smooth_value(y: float) -> float:
    return (y - 0.3) ** 2 + math.exp(y)


def flat_valley(y: float) -> tuple[float, float, float]:
    slope = flat_valley_slope(y)
    return slope, slope, 0.5 * (max(y - 2.0, 0.0) ** 2 + max(1.0 - y, 0.0) ** 2)


def absolute_sum(kinks: np.ndarray):
    """`slopes(y)` of sum |y - k_i|: at a kink the left selection counts it
    as -1, the right as +1."""
    return lambda y: (float(np.sum(np.where(y > kinks, 1.0, -1.0))),
                      float(np.sum(np.where(y >= kinks, 1.0, -1.0))),
                      float(np.sum(np.abs(y - kinks))))


def lister(kinks: np.ndarray):
    return lambda lo, hi: kinks[(lo < kinks) & (kinks < hi)]


class TestMinimizerInterval:
    def test_flat_valley_gives_both_endpoints(self):
        lo, hi, width = minimizer_interval(flat_valley, -5.0, 7.0, TOL)
        assert lo == pytest.approx(1.0, abs=TOL)
        assert hi == pytest.approx(2.0, abs=TOL)
        assert width <= TOL

    def test_strictly_convex_gives_one_point(self):
        root = brentq(smooth, -4.0, 4.0, xtol=1e-15)
        for strict in (False, True):
            lo, hi, _ = minimizer_interval(both(smooth, smooth_value), -4.0, 4.0, TOL,
                                           strict=strict)
            assert lo == hi
            assert lo == pytest.approx(root, abs=TOL)

    def test_minimizer_outside_bracket_returns_nearest_end(self):
        assert sign_change(flat_valley, 3.0, 5.0, TOL) == (3.0, 3.0)
        assert sign_change(flat_valley, -3.0, 0.0, TOL, rightmost=True) == (0.0, 0.0)

    def test_rejects_nonpositive_tol(self):
        for tol in (0.0, math.nan):
            with pytest.raises(DomainError):
                minimizer_interval(flat_valley, 0.0, 3.0, tol)

    def test_listed_kinks_give_both_exact_ends_evaluating_each_point_once(self):
        # sum |y - k_i| over an even count is flat between the middle two
        # kinks; at a kink the left selection counts it as -1, the right as +1
        kinks = np.sort(np.random.default_rng(5).normal(0.0, 1.0, 8)) * math.pi
        points, pair = [], absolute_sum(kinks)

        def slopes(y):
            points.append(y)
            return pair(y)

        found = minimizer_interval(slopes, -10.0, 10.0, 1e-3, kinks=lister(kinks), linear=True)
        assert found == (kinks[3], kinks[4], 0.0)
        assert len(set(points)) == len(points)


class Counted:
    """`slopes` that counts its calls."""

    def __init__(self, slopes):
        self.slopes, self.calls = slopes, 0

    def __call__(self, y):
        self.calls += 1
        return self.slopes(y)


class TestSignChange:
    def test_listed_linear_kinks_give_the_exact_kink(self):
        # slope of sum |y - k_i|: constant between the kinks, zero only
        # between the 3rd and 4th, so the leftmost minimizer is kinks[2]
        kinks = np.sort(np.random.default_rng(3).normal(0.0, 1.0, 6)) * math.pi
        slope = Counted(absolute_sum(kinks))
        listed = lister(kinks)

        lo, hi = sign_change(slope, -10.0, 10.0, 1e-3, kinks=listed, linear=True)
        assert lo == hi == kinks[2]
        lo, hi = sign_change(slope, -10.0, 10.0, 1e-3, rightmost=True, kinks=listed, linear=True)
        assert lo == hi == kinks[3]
        assert slope.calls <= 2 * (2 + math.ceil(math.log2(kinks.size + 1)))

    def test_unlisted_jump_stops_within_tol(self):
        jump = 0.1 * math.pi
        slope = Counted(both(lambda y: -1.0 if y < jump else 2.0,
                             lambda y: max(jump - y, 2.0 * (y - jump))))
        tol = 1e-9
        lo, hi = sign_change(slope, -5.0, 7.0, tol)
        assert lo < jump <= hi
        assert hi - lo <= tol
        # each step that fails to halve the bracket is followed by a bisection
        assert slope.calls <= 2 * math.ceil(math.log2(12.0 / tol)) + 8

    def test_smooth_root_ends_at_adjacent_floats(self):
        # a loose tol caps the work but not the precision on a smooth
        # piece; bisection would need 58 steps to reach adjacent floats
        for strict in (False, True):
            slope = Counted(both(smooth, smooth_value))
            lo, hi = sign_change(slope, -4.0, 4.0, 1e-3, strict=strict)
            assert slope.calls <= 25
            assert lo <= hi <= math.nextafter(lo, math.inf)
            assert slope(lo)[1] <= 0.0 <= slope(hi)[1]

    @pytest.mark.parametrize("rightmost", [False, True])
    def test_listed_kink_is_certified_by_its_pair(self, rightmost):
        # sum |y - k_i| over an odd count is least at the median kink alone;
        # there left < 0 < right, so the kink the binary search found is
        # exact in either search without `linear` and without more steps
        kinks = np.sort(np.random.default_rng(3).normal(0.0, 1.0, 7)) * math.pi
        slope = Counted(absolute_sum(kinks))
        lo, hi = sign_change(slope, -10.0, 10.0, 1e-3, rightmost=rightmost, kinks=lister(kinks))
        assert lo == hi == kinks[3]
        assert slope.calls == 2 + math.ceil(math.log2(kinks.size + 1)) + 1

    def test_certified_kink_ends_the_rightmost_search_where_it_starts(self):
        kinks = np.sort(np.random.default_rng(3).normal(0.0, 1.0, 7)) * math.pi
        slope = Counted(absolute_sum(kinks))
        found = minimizer_interval(slope, -10.0, 10.0, 1e-3, kinks=lister(kinks))
        assert found == (kinks[3], kinks[3], 0.0)
        assert slope.calls == 2 + math.ceil(math.log2(kinks.size + 1)) + 1

    @pytest.mark.parametrize("rightmost", [False, True])
    def test_tangent_step_reaches_an_unlisted_kink(self, rightmost):
        # g = max(c - y, 3 (y - c)) is linear on either side of c, which no
        # list holds; the slope selection takes one side's value at c, as
        # evar's does where an outcome ties with the expectile
        c = 0.1 * math.pi
        slope = Counted(both(lambda y: -1.0 if y < c else 3.0,
                             lambda y: max(c - y, 3.0 * (y - c))))
        lo, hi = sign_change(slope, -5.0, 7.0, 1e-9, rightmost=rightmost,
                             kinks=lambda lo, hi: np.empty(0))
        assert lo <= c <= hi
        assert hi - lo <= 16 * math.ulp(c)
        assert slope.calls <= 14  # bisection to tol alone takes 34

    def test_tangent_steps_reach_the_vertex_of_a_polyhedral_function(self):
        rng = np.random.default_rng(7)
        for _ in range(8):
            a, b = np.sort(rng.normal(0.0, 3.0, 9)), rng.normal(0.0, 1.0, 9)
            slope = Counted(both(lambda y: float(a[np.argmax(a * y + b)]),
                                 lambda y: float(np.max(a * y + b))))
            lo, hi = sign_change(slope, -50.0, 50.0, 1e-9, kinks=lambda lo, hi: np.empty(0))
            i, j = np.triu_indices(9, 1)
            vertex = min((b[j] - b[i]) / (a[i] - a[j]), key=lambda y: float(np.max(a * y + b)))
            assert hi - lo <= 4 * math.ulp(vertex)
            assert abs(vertex - lo) <= 4 * math.ulp(vertex)
            assert slope.calls <= 20

    def test_tangent_steps_narrow_a_bracket_too_wide_to_list(self):
        # g = max(a y + b) over 60 lines has its kinks among their 1 770
        # crossings, listed only where 16 or fewer lie inside the bracket;
        # bisecting until then took 18-21 evaluations on these draws
        rng = np.random.default_rng(7)
        for _ in range(20):
            a, b = np.sort(rng.normal(0.0, 3.0, 60)), rng.normal(0.0, 1.0, 60)
            i, j = np.triu_indices(60, 1)
            crossings = np.sort((b[j] - b[i]) / (a[i] - a[j]))

            def pair(y, a=a, b=b):
                values = a * y + b
                active = a[values == values.max()]
                return float(active.min()), float(active.max()), float(values.max())

            def refusing(lo, hi, crossings=crossings):
                inside = crossings[(lo < crossings) & (crossings < hi)]
                return inside if inside.size <= 16 else None

            slope = Counted(pair)
            lo, hi = sign_change(slope, -50.0, 50.0, 1e-9, kinks=refusing, linear=True)
            vertex = min(crossings, key=lambda y: float(np.max(a * y + b)))
            assert lo == hi
            assert abs(lo - vertex) <= 1e-15
            assert slope.calls <= 14

    def test_differentiable_slope_is_never_certified(self):
        # left == right everywhere, so no pair brackets zero: the tangent
        # steps end on a bracket under tol, not on one point
        slope = Counted(both(smooth, smooth_value))
        lo, hi = sign_change(slope, -4.0, 4.0, 1e-9, kinks=lambda lo, hi: np.empty(0))
        assert lo < hi <= lo + 1e-9
        assert slope(lo)[1] < 0.0 <= slope(hi)[1]


class TestMinimizeConvex:
    def test_separable_quadratic(self):
        # optimum centres far outside the starting ellipsoid need restarts
        scale = np.array([1.0, 10.0, 0.01])
        for offset in (0.0, 1e3, 1e5):
            center = np.array([1.5, -0.25, 40.0]) + offset
            forms = [
                lambda x: (float(np.sum(scale * (x - center) ** 2)),
                           2.0 * scale * (x - center)),
                lambda x: (float(np.sum(scale * np.abs(x - center))),
                           scale * np.where(x >= center, 1.0, -1.0)),
            ]
            for F in forms:
                result = minimize_convex(F, np.zeros(3), np.ones(3), tol=TOL)
                np.testing.assert_allclose(result.x, center, rtol=0.0, atol=TOL)
                assert result.foc_residual <= 1e-6

    def test_flat_coordinate_stays_in_its_valley(self):
        # |x0| + flat valley in x1: any x1 in [1, 2] is optimal
        def F(x):
            value = abs(x[0]) + 0.5 * (max(x[1] - 2.0, 0.0) ** 2 + max(1.0 - x[1], 0.0) ** 2)
            return value, np.array([1.0 if x[0] >= 0.0 else -1.0, flat_valley_slope(x[1])])

        result = minimize_convex(F, np.array([3.0, -4.0]), np.ones(2), tol=TOL)
        assert abs(result.x[0]) <= TOL
        assert 1.0 - TOL <= result.x[1] <= 2.0 + TOL
        assert result.value == pytest.approx(0.0, abs=2 * TOL)
