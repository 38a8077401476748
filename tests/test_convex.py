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


def both(slope):
    """The (left, right) selection pair of a slope with no jumps."""
    return lambda y: (slope(y), slope(y))


class TestMinimizerInterval:
    def test_flat_valley_gives_both_endpoints(self):
        lo, hi, width = minimizer_interval(both(flat_valley_slope), -5.0, 7.0, TOL)
        assert lo == pytest.approx(1.0, abs=TOL)
        assert hi == pytest.approx(2.0, abs=TOL)
        assert width <= TOL

    def test_strictly_convex_gives_one_point(self):
        # slope of (y - 0.3)^2 + exp(y)
        def slope(y):
            return 2.0 * (y - 0.3) + np.exp(y)

        root = brentq(slope, -4.0, 4.0, xtol=1e-15)
        for strict in (False, True):
            lo, hi, _ = minimizer_interval(both(slope), -4.0, 4.0, TOL, strict=strict)
            assert lo == hi
            assert lo == pytest.approx(root, abs=TOL)

    def test_minimizer_outside_bracket_returns_nearest_end(self):
        assert sign_change(flat_valley_slope, 3.0, 5.0, TOL) == (3.0, 3.0)
        assert sign_change(flat_valley_slope, -3.0, 0.0, TOL, rightmost=True) == (0.0, 0.0)

    def test_rejects_nonpositive_tol(self):
        for tol in (0.0, math.nan):
            with pytest.raises(DomainError):
                minimizer_interval(both(flat_valley_slope), 0.0, 3.0, tol)

    def test_listed_kinks_give_both_exact_ends_evaluating_each_point_once(self):
        # sum |y - k_i| over an even count is flat between the middle two
        # kinks; at a kink the left selection counts it as -1, the right as +1
        kinks = np.sort(np.random.default_rng(5).normal(0.0, 1.0, 8)) * math.pi
        points = []

        def slopes(y):
            points.append(y)
            return (float(np.sum(np.where(y > kinks, 1.0, -1.0))),
                    float(np.sum(np.where(y >= kinks, 1.0, -1.0))))

        def listed(lo, hi):
            return kinks[(lo < kinks) & (kinks < hi)]

        found = minimizer_interval(slopes, -10.0, 10.0, 1e-3, kinks=listed, linear=True)
        assert found == (kinks[3], kinks[4], 0.0)
        assert len(set(points)) == len(points)


class Counted:
    """A slope that counts its calls."""

    def __init__(self, slope):
        self.slope, self.calls = slope, 0

    def __call__(self, y):
        self.calls += 1
        return self.slope(y)


class TestSignChange:
    def test_listed_linear_kinks_give_the_exact_kink(self):
        # slope of sum |y - k_i|: constant between the kinks, zero only
        # between the 3rd and 4th, so the leftmost minimizer is kinks[2]
        kinks = np.sort(np.random.default_rng(3).normal(0.0, 1.0, 6)) * math.pi
        slope = Counted(lambda y: float(np.sum(np.sign(y - kinks))))

        def listed(lo, hi):
            return kinks[(lo < kinks) & (kinks < hi)]

        lo, hi = sign_change(slope, -10.0, 10.0, 1e-3, kinks=listed, linear=True)
        assert lo == hi == kinks[2]
        lo, hi = sign_change(slope, -10.0, 10.0, 1e-3, rightmost=True, kinks=listed, linear=True)
        assert lo == hi == kinks[3]
        assert slope.calls <= 2 * (2 + math.ceil(math.log2(kinks.size + 1)))

    def test_unlisted_jump_stops_within_tol(self):
        jump = 0.1 * math.pi
        slope = Counted(lambda y: -1.0 if y < jump else 2.0)
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
            slope = Counted(lambda y: 2.0 * (y - 0.3) + math.exp(y))
            lo, hi = sign_change(slope, -4.0, 4.0, 1e-3, strict=strict)
            assert slope.calls <= 25
            assert lo <= hi <= math.nextafter(lo, math.inf)
            assert slope(lo) <= 0.0 <= slope(hi)


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
