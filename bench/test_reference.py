"""Self-tests of the benchmark's reference computations on hand-checked cases.

Run with ``python -m pytest bench/test_reference.py``; nothing here is timed.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import brentq

import reference as ref

QUARTET = np.array([1.0, 2.0, 3.0, 4.0])
U4 = np.full(4, 0.25)


def uniform(n):
    return np.full(n, 1.0 / n)


def test_es_absolute_quartet():
    # {1,2,3,4} under es:0.5/absolute: R = -2, D = 1.5, B = [2, 3]
    for y in (2.0, 2.5, 3.0):
        assert ref.objective("es:0.5", "absolute", QUARTET, U4, y) == pytest.approx(1.5)
    for y in (1.99, 3.01):
        assert ref.objective("es:0.5", "absolute", QUARTET, U4, y) > 1.5
    assert ref.es_deviation_lp(0.5, "absolute", QUARTET, U4) == pytest.approx(1.5, abs=1e-9)
    assert ref.deviation("es:0.5", "absolute", QUARTET, U4)[1] == pytest.approx(1.5)


def test_risk_measures_by_hand():
    assert ref.risk("el", QUARTET, U4) == -2.5
    assert ref.risk("es:0.5", QUARTET, U4) == pytest.approx(-1.5)
    # mass 0.25 of the outcome 1 and 0.05 of the outcome 2
    assert ref.risk("es:0.3", QUARTET, U4) == pytest.approx(-(0.25 + 0.1) / 0.3)
    assert ref.risk("ml", np.array([3.0, -1.0, 2.0]), uniform(3)) == 1.0
    # mean 1, semi-deviation sqrt(0.5)
    assert ref.risk("msd:1", np.array([0.0, 2.0]), uniform(2)) == pytest.approx(
        -1.0 + math.sqrt(0.5))
    # 0.25 (1 - e) = 0.75 e on {0, 1}
    assert ref.risk("evar:0.25", np.array([0.0, 1.0]), uniform(2)) == pytest.approx(-0.25)


def test_es_with_unequal_probabilities():
    z = np.array([5.0, -1.0, 2.0])
    p = np.array([0.5, 0.2, 0.3])
    # tail mass 0.4: all 0.2 of -1 and 0.2 of 2
    assert ref.risk("es:0.4", z, p) == pytest.approx(-(0.2 * -1.0 + 0.2 * 2.0) / 0.4)


def test_expectile_matches_brentq():
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.standard_t(3, 40)
        p = rng.dirichlet(np.ones(40))
        for alpha in (0.1, 0.5, 0.8):
            def eq(e):
                return alpha * p @ np.maximum(x - e, 0) - (1 - alpha) * p @ np.maximum(e - x, 0)
            assert ref.expectile(x, p, alpha) == pytest.approx(
                brentq(eq, x.min(), x.max(), xtol=1e-14), abs=1e-12)


def test_expectile_with_ties_and_constant():
    assert ref.expectile(np.array([2.0, 2.0, 2.0]), uniform(3), 0.3) == 2.0
    x = np.array([0.0, 0.0, 1.0, 1.0])
    assert ref.expectile(x, U4, 0.5) == pytest.approx(0.5)


def test_scores_by_hand():
    x = np.array([-2.0, 0.0, 3.0])
    assert list(ref.score("pinball:0.25", x)) == [1.5, 0.0, 0.75]
    assert list(ref.score("absolute", x)) == [2.0, 0.0, 3.0]
    assert list(ref.score("huber:1", x)) == [1.5, 0.0, 2.5]
    assert list(ref.score("expectile:0.25", x)) == [3.0, 0.0, 2.25]
    assert ref.score("huber:1", np.array([0.5]))[0] == 0.125
    assert ref.score("linex:1", np.array([1.0]))[0] == pytest.approx(math.exp(-1.0))
    # barron with shape 1 is the pseudo-Huber sqrt(x^2 + 1) - 1
    assert ref.score("barron:1", np.array([3.0]))[0] == pytest.approx(math.sqrt(10.0) - 1.0)


def test_closed_forms_by_hand():
    x = np.array([1.0, 2.0, 4.0])
    lo, hi, d = ref.closed_form("el", "squared", x, uniform(3))
    assert (lo, hi) == (pytest.approx(7 / 3), pytest.approx(7 / 3))
    assert d == pytest.approx(14 / 9)
    assert ref.closed_form("el", "absolute", QUARTET, U4)[:2] == (2.0, 3.0)
    assert ref.closed_form("el", "pinball:0.3", QUARTET, U4)[:2] == (2.0, 2.0)
    assert ref.closed_form("ml", "absolute", QUARTET, U4) == (2.5, 2.5, 1.5)
    # y = a max + (1-a) min, D = a (1-a) range
    lo, hi, d = ref.closed_form("ml", "pinball:0.25", np.array([0.0, 4.0]), uniform(2))
    assert (lo, d) == (1.0, 0.75)
    assert ref.objective("ml", "pinball:0.25", np.array([0.0, 4.0]), uniform(2), 1.0) == 0.75


def test_closed_forms_agree_with_search():
    rng = np.random.default_rng(11)
    x = rng.normal(0.3, 1.2, 60)
    p = rng.dirichlet(np.ones(60))
    for rho, s in [("el", "squared"), ("el", "linex:0.7"), ("el", "expectile:0.8"),
                   ("el", "pinball:0.3"), ("ml", "absolute"), ("ml", "cost:0.4"),
                   ("ml", "squared")]:
        lo, hi, d = ref.closed_form(rho, s, x, p)
        y, dmin = ref.deviation(rho, s, x, p)
        assert d == pytest.approx(dmin, rel=1e-9, abs=1e-12), (rho, s)
        assert lo - 1e-6 <= y <= hi + 1e-6, (rho, s)


def test_es_lp_matches_search():
    rng = np.random.default_rng(7)
    x = rng.standard_t(4, 80)
    p = rng.dirichlet(np.ones(80))
    for s in ("pinball:0.2", "absolute", "cost:0.7"):
        for alpha in (0.1, 0.5):
            lp = ref.es_deviation_lp(alpha, s, x, p)
            assert lp == pytest.approx(ref.deviation(f"es:{alpha}", s, x, p)[1], rel=1e-7)


def test_quantile_regression_lp_matches_enumeration():
    # an optimal line passes through two data points
    rng = np.random.default_rng(3)
    for alpha in (0.3, 0.5):
        x = rng.normal(size=7)
        y = 1.0 + 2.0 * x + rng.normal(size=7)
        p = uniform(7)
        best = math.inf
        for i, j in itertools.combinations(range(7), 2):
            slope = (y[j] - y[i]) / (x[j] - x[i])
            resid = y - (y[i] + slope * (x - x[i]))
            best = min(best, float(p @ ref.score(f"pinball:{alpha}", resid)))
        assert ref.quantile_regression_lp(alpha, y, x[:, None], p) == pytest.approx(best)


def test_chebyshev_regression_lp_by_hand():
    # (0, 0), (1, 1), (2, 0): the flat line at 0.5 equioscillates, max error 0.5
    A = np.array([[0.0], [1.0], [2.0]])
    assert ref.chebyshev_regression_lp(np.array([0.0, 1.0, 0.0]), A) == pytest.approx(0.5)
    # points on a line are fitted exactly
    assert ref.chebyshev_regression_lp(1.0 + 3.0 * A[:, 0], A) == pytest.approx(0.0, abs=1e-9)


def test_lstsq_and_min_variance_weights():
    rng = np.random.default_rng(2)
    A = rng.normal(size=(30, 2))
    y = 0.5 + A @ [1.0, -2.0]
    assert ref.weighted_lstsq(y, A, uniform(30)) == pytest.approx([0.5, 1.0, -2.0])
    # independent assets: weights proportional to 1 / variance
    V = np.array([[1.0, 2.0], [-1.0, 2.0], [1.0, -2.0], [-1.0, -2.0]])
    assert ref.min_variance_weights(V, U4) == pytest.approx([0.8, 0.2])
