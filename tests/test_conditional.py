"""Robust regression: oracles, equivariance, and the CD metric."""

import inspect
import os
import subprocess
import sys
import tracemalloc
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from scorerisk import (
    CoherentRiskMeasure,
    DimensionError,
    DomainError,
    ScoreFunction,
    SingularDesignError,
    cd_metric,
    conditional_risk,
    conditional_risk_row,
    fit,
    solve,
)

from scorerisk import convexnd
from scorerisk.convexnd import minimize_convex

from conftest import uvar, wvar

EL = CoherentRiskMeasure.el()
SQ = ScoreFunction.squared()


def weighted_least_squares(y, A, p):
    full = np.column_stack([np.ones(len(y)), A])
    return np.linalg.solve(full.T @ (p[:, None] * full), full.T @ (p * y))


def random_design(rng, m=None, n=None):
    m = m or int(rng.integers(8, 40))
    n = n or int(rng.integers(1, 4))
    p = rng.dirichlet(np.ones(m))
    A = rng.normal(0, 2, (m, n))
    y = 1.5 + A @ rng.normal(0, 1, n) + rng.normal(0, 0.7, m)
    Y = wvar(y, p)
    X = [Y.with_values(A[:, i]) for i in range(n)]
    return Y, X, A, y, p


class TestFit:
    def test_matches_normal_equations(self, rng):
        for _ in range(8):
            Y, X, A, y, p = random_design(rng)
            result = fit(EL, SQ, Y, X, tol=1e-10)
            coef = weighted_least_squares(y, A, p)
            assert result.mu_star == pytest.approx(coef[0], abs=1e-6)
            np.testing.assert_allclose(result.betas, coef[1:], atol=1e-6)

    def test_exact_affine_target(self):
        X1 = uvar([-1.0, 0.0, 1.0, 2.0])
        Y = X1.with_values(2.0 + 3.0 * X1.values)
        result = fit(EL, SQ, Y, [X1], tol=1e-10)
        assert result.mu_star == pytest.approx(2.0, abs=1e-8)
        assert result.betas[0] == pytest.approx(3.0, abs=1e-8)
        assert result.objective <= 1e-12
        assert result.cd == 1.0

    def test_converged_fit_stops_before_sweep_cap(self):
        # heteroscedastic noise: the fit stops on its own, with a
        # certified gap
        rng = np.random.default_rng([11, 3, 0])
        rng.standard_normal((1000, 3))
        rng.standard_t(5, 1000)
        mix = np.array([[1.0, 0.4, 0.0], [0.0, 1.0, 0.3], [0.0, 0.0, 1.0]])
        A = rng.standard_normal((1000, 3)) @ mix
        noise = (1.0 + 0.5 * np.abs(A[:, 0])) * rng.standard_normal(1000)
        Y = uvar(0.5 + A @ np.array([0.5, -1.0, 2.0]) + noise)
        X = [Y.with_values(a) for a in A.T]
        result = fit(EL, ScoreFunction.expectile(0.7), Y, X, tol=1e-8)
        cap = inspect.signature(minimize_convex).parameters["max_sweeps"].default
        assert result.iterations < cap
        assert result.foc_residual <= 1e-9 * (1.0 + result.objective)

    def test_one_score_evaluation_per_cut(self, monkeypatch):
        # each cut takes the value and the subgradient from one residual
        rng = np.random.default_rng(7)
        A = rng.standard_normal((1000, 3))
        Y = uvar(1.0 + A @ np.array([0.5, -1.0, 2.0]) + rng.standard_normal(1000))
        calls, cuts, inside = [0], [], [False]
        score_f, minimize = ScoreFunction.f, convexnd.minimize_convex

        def counted_f(self, x):
            calls[0] += inside[0]
            return score_f(self, x)

        def traced_minimize(*args, **kwargs):
            inside[0] = True
            try:
                result = minimize(*args, **kwargs)
            finally:
                inside[0] = False
            cuts.append(result.sweeps)
            return result

        monkeypatch.setattr(ScoreFunction, "f", counted_f)
        monkeypatch.setattr(convexnd, "minimize_convex", traced_minimize)
        fit(EL, SQ, Y, [Y.with_values(a) for a in A.T])
        assert len(cuts) == 1 and cuts[0] > 0
        assert calls[0] == cuts[0]

    def test_near_collinear_design_matches_least_squares(self):
        # the optimum lies far outside the starting ellipsoid along a
        # valley of curvature about 1e-6
        rng = np.random.default_rng(5)
        x1 = rng.standard_normal(500)
        x2 = x1 + 1e-3 * rng.standard_normal(500)
        y = 1e3 * (x1 - x2) + rng.standard_normal(500)
        Y = uvar(y)
        result = fit(EL, SQ, Y, [Y.with_values(x1), Y.with_values(x2)], tol=1e-8)
        B = np.column_stack([np.ones(500), x1, x2])
        theta = np.linalg.lstsq(B, y, rcond=None)[0]
        best = float(np.mean((y - B @ theta) ** 2))
        assert result.objective == pytest.approx(best, rel=1e-9)
        fitted = np.concatenate([[result.mu_star], result.betas])
        np.testing.assert_allclose(fitted, theta, rtol=0.0, atol=1e-6 * (1.0 + np.max(np.abs(theta))))

    def test_max_loss_fit_is_the_chebyshev_regression(self):
        # ml/squared minimizes max_i r_i^2: the square of the minimax
        # (Chebyshev) regression, a linear program in (theta, t)
        rng = np.random.default_rng([0, 3, 0])
        A = rng.standard_normal((1000, 3))
        y = 1.0 + A @ np.array([1.0, 2.0, 3.0]) + rng.standard_t(5, 1000)
        Y = uvar(y)
        result = fit(CoherentRiskMeasure.ml(), SQ, Y, [Y.with_values(a) for a in A.T])
        B = np.column_stack([np.ones(1000), A])
        ones = np.ones((1000, 1))
        lp = linprog(
            np.r_[np.zeros(4), 1.0],
            A_ub=np.block([[B, -ones], [-B, -ones]]),
            b_ub=np.r_[y, -y],
            bounds=[(None, None)] * 4 + [(0.0, None)],
            method="highs",
        )
        assert lp.success
        best = lp.fun ** 2
        assert abs(result.objective - best) <= 1e-6 * (1.0 + best)

    def test_mu_equals_negated_residual_risk(self, rng):
        for s, rho in product(
            (SQ, ScoreFunction.pinball(0.3)),
            (EL, CoherentRiskMeasure.es(0.4), CoherentRiskMeasure.ml()),
        ):
            Y, X, A, y, p = random_design(rng, m=20, n=2)
            result = fit(rho, s, Y, X, tol=1e-9)
            residual = Y.with_values(y - A @ result.betas)
            assert result.mu_star == pytest.approx(
                -solve(rho, s, residual, tol=1e-9).r_value, abs=1e-6
            )

    def test_predict_and_rows(self):
        X1 = uvar([0.0, 1.0, 2.0, 3.0])
        Y = X1.with_values(2.0 + 3.0 * X1.values)
        result = fit(EL, SQ, Y, [X1], tol=1e-10)
        assert conditional_risk_row(result, [1.0]) == pytest.approx(-5.0, abs=1e-7)
        np.testing.assert_allclose(conditional_risk(result, [X1]), -Y.values, atol=1e-7)
        np.testing.assert_allclose(result.predict(X1.values[:, None]), Y.values, atol=1e-7)
        with pytest.raises(DimensionError):
            conditional_risk_row(result, [1.0, 2.0])

    def test_conditional_risk_checks_its_regressors(self, rng):
        Y, X, A, y, p = random_design(rng, m=12, n=2)
        result = fit(EL, SQ, Y, X, tol=1e-9)
        elsewhere = uvar(A[:, 1])
        assert elsewhere.space != Y.space
        for regressors, message in (
            (X[:1], "got 1 regressors, fit has 2 betas"),
            ([*X, X[0]], "got 3 regressors, fit has 2 betas"),
            ([], "got 0 regressors, fit has 2 betas"),
            ([X[0], elsewhere], "one scenario space"),
        ):
            with pytest.raises(DimensionError, match=message):
                conditional_risk(result, regressors)

    def test_collinear_design_rejected(self, rng):
        X1 = uvar(rng.normal(0, 1, 10))
        X2 = X1.with_values(2.0 * X1.values - 1.0)
        Y = X1.with_values(rng.normal(0, 1, 10))
        with pytest.raises(SingularDesignError):
            fit(EL, SQ, Y, [X1, X2], tol=1e-8)

    def test_constant_regressor_rejected(self, rng):
        X1 = uvar(np.full(8, 3.0))
        Y = X1.with_values(rng.normal(0, 1, 8))
        with pytest.raises(SingularDesignError):
            fit(EL, SQ, Y, [X1], tol=1e-8)

    def test_input_validation(self, rng):
        Y = uvar(rng.normal(0, 1, 6))
        with pytest.raises(DomainError):
            fit(EL, SQ, Y, [], tol=1e-8)
        with pytest.raises(DomainError):
            fit(EL, SQ, Y, [Y.with_values(Y.values)], tol=0.0)
        other = uvar(rng.normal(0, 1, 5))
        with pytest.raises(DimensionError):
            fit(EL, SQ, Y, [other], tol=1e-8)


class TestQuantileRegression:
    """Expected loss with the pinball family: quantile regression."""

    def test_pinball_matches_pair_enumeration(self, rng):
        s_alpha = 0.35
        s = ScoreFunction.pinball(s_alpha)
        for _ in range(8):
            x = rng.normal(0, 1, 4)
            y = rng.normal(0, 1, 4)
            Y = uvar(y)
            X = [Y.with_values(x)]
            best = np.inf
            for i in range(4):
                for j in range(4):
                    if i == j or x[i] == x[j]:
                        continue
                    b = (y[i] - y[j]) / (x[i] - x[j])
                    mu = y[i] - b * x[i]
                    best = min(best, float(np.mean(s.f(y - mu - b * x))))
            result = fit(EL, s, Y, X, tol=1e-10)
            assert result.objective == pytest.approx(best, abs=1e-6)

    def test_linear_program_memory_is_linear(self, rng):
        # the quantile-regression fit must stay linear in m: one dense
        # m x m matrix alone would take 69 MiB
        m = 3000
        B = np.column_stack([np.ones(m), rng.normal(0, 1, (m, 3))])
        y = B @ np.array([0.5, 1.0, -2.0, 0.5]) + rng.standard_t(5, m)
        Y = uvar(y)
        X = [Y.with_values(B[:, j]) for j in range(1, 4)]
        tracemalloc.start()
        try:
            fit(EL, ScoreFunction.pinball(0.3), Y, X, tol=1e-8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 50 * 2**20

    def test_fit_does_not_import_scipy(self):
        code = (
            "import sys\n"
            "import numpy as np\n"
            "import scorerisk as sr\n"
            "x = np.linspace(-1.0, 1.0, 40)\n"
            "Y = sr.ScenarioVariable(sr.FiniteScenarioSpace.uniform(40), 1.0 + 2.0 * x + np.cos(7.0 * x))\n"
            "sr.fit(sr.CoherentRiskMeasure.el(), sr.ScoreFunction.pinball(0.5), Y, [Y.with_values(x)])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_median_regression_interpolates(self, rng):
        # absolute-loss fit of an exactly affine target is exact
        x = rng.normal(0, 1, 9)
        Y = uvar(1.0 - 2.0 * x)
        result = fit(EL, ScoreFunction.absolute(), Y, [Y.with_values(x)], tol=1e-9)
        assert result.mu_star == pytest.approx(1.0, abs=1e-7)
        assert result.betas[0] == pytest.approx(-2.0, abs=1e-7)
        assert result.objective <= 1e-10


def homogeneous_slopes(s):
    """(a, b) with f(x) = max(a x, -b x) for a positively homogeneous,
    piecewise linear score f."""
    return float(s.f(np.array([1.0]))[0]), float(s.f(np.array([-1.0]))[0])


def kinked_design(rng, m, d):
    A = rng.standard_normal((m, d))
    y = 1.0 + A @ np.arange(1.0, d + 1.0) + rng.standard_t(5, m)
    Y = wvar(y, rng.dirichlet(np.ones(m)))
    return Y, [Y.with_values(a) for a in A.T], np.column_stack([np.ones(m), A]), y


class TestEveryPair:
    """Kinked scores under measures other than expected loss: linear
    program oracles where the objective is polyhedral, certified gaps
    elsewhere."""

    def test_non_smooth_fits_beyond_expected_loss(self, rng):
        Y = uvar(rng.normal(0, 1, 8))
        X = [Y.with_values(rng.normal(0, 1, 8))]
        result = fit(CoherentRiskMeasure.es(0.5), ScoreFunction.pinball(0.4), Y, X, tol=1e-8)
        assert np.isfinite(result.objective)
        assert np.isfinite(result.foc_residual)

    def test_expected_shortfall_fit_is_the_rockafellar_uryasev_lp(self):
        # es:alpha of -f(r) is min_t t + E[(f(r) - t)+] / alpha, a linear
        # program in (theta, t, z) with z_i >= c (y_i - B_i theta) - t for
        # both slopes c of f and z >= 0
        rng = np.random.default_rng([0, 11, 0])
        for alpha, s in ((0.2, ScoreFunction.pinball(0.3)), (0.1, ScoreFunction.absolute())):
            for _ in range(2):
                Y, X, B, y = kinked_design(rng, 300, 3)
                result = fit(CoherentRiskMeasure.es(alpha), s, Y, X)
                a, b = homogeneous_slopes(s)
                block = [np.column_stack([-c * B, -np.ones(300)]) for c in (a, -b)]
                lp = linprog(
                    np.r_[np.zeros(4), 1.0, Y.space.p / alpha],
                    A_ub=np.hstack([np.vstack(block), np.vstack([-np.eye(300)] * 2)]),
                    b_ub=np.r_[-a * y, b * y],
                    bounds=[(None, None)] * 5 + [(0.0, None)] * 300,
                    method="highs",
                )
                assert lp.success
                assert abs(result.objective - lp.fun) <= 1e-9 * (1.0 + lp.fun)

    def test_max_loss_pinball_fit_is_the_minimax_lp(self):
        # ml of -f(r) is max_i f(r_i): min t with t >= c (y_i - B_i theta)
        rng = np.random.default_rng([0, 12, 0])
        s = ScoreFunction.pinball(0.3)
        a, b = homogeneous_slopes(s)
        for _ in range(3):
            Y, X, B, y = kinked_design(rng, 300, 2)
            result = fit(CoherentRiskMeasure.ml(), s, Y, X)
            lp = linprog(
                np.r_[np.zeros(3), 1.0],
                A_ub=np.vstack([np.column_stack([-c * B, -np.ones(300)]) for c in (a, -b)]),
                b_ub=np.r_[-a * y, b * y],
                bounds=[(None, None)] * 4,
                method="highs",
            )
            assert lp.success
            assert abs(result.objective - lp.fun) <= 1e-9 * (1.0 + lp.fun)

    def test_every_pair_certifies_its_gap(self):
        # the five measures with every kinked or flat score; msd and evar
        # have no linear program to check against
        Y, X, _, _ = kinked_design(np.random.default_rng([0, 13, 0]), 100, 2)
        for rho, s in product(
            ("el", "es:0.2", "evar:0.2", "msd:0.5", "ml"),
            ("pinball:0.3", "absolute", "cost:0.2", "huber:0.5", "barron:1"),
        ):
            result = fit(CoherentRiskMeasure.parse(rho), ScoreFunction.parse(s), Y, X)
            assert np.isfinite(result.objective)
            assert 0.0 <= result.foc_residual <= 1e-9 * (1.0 + result.objective), (rho, s)


class TestEquivariance:
    """Shift/scale/reparameterization behavior of the fitted coefficients."""

    def test_translation_of_target(self, rng):
        Y, X, A, y, p = random_design(rng, m=15, n=2)
        c = 2.75
        base = fit(EL, SQ, Y, X, tol=1e-9)
        shifted = fit(EL, SQ, Y.with_values(y + c), X, tol=1e-9)
        assert shifted.mu_star == pytest.approx(base.mu_star + c, abs=1e-5)
        np.testing.assert_allclose(shifted.betas, base.betas, atol=1e-5)

    def test_monotonicity_in_target(self, rng):
        Y, X, A, y, p = random_design(rng, m=15, n=2)
        Z = Y.with_values(y + rng.uniform(0.0, 1.0, 15))
        risk_y = conditional_risk(fit(EL, SQ, Y, X, tol=1e-9), X)
        risk_z = conditional_risk(fit(EL, SQ, Z, X, tol=1e-9), X)
        assert np.all(risk_y >= risk_z - 1e-5)

    def test_regressor_shift(self, rng):
        Y, X, A, y, p = random_design(rng, m=15, n=1)
        c = -1.4
        base = fit(EL, SQ, Y, X, tol=1e-9)
        shifted = fit(EL, SQ, Y.with_values(y + c * A[:, 0]), X, tol=1e-9)
        assert shifted.betas[0] == pytest.approx(base.betas[0] + c, abs=1e-5)
        assert shifted.mu_star == pytest.approx(base.mu_star, abs=1e-5)

    # Convexity of the conditional risk in the target is guaranteed only
    # for the squared score, whose fitted coefficients are affine in the
    # target (the bound holds with equality). For genuinely nonlinear
    # fits, pointwise counterexamples exist regardless of whether f' is
    # convex (high expectile) or concave (linex), so the property is not
    # asserted beyond the linear case; the two tests below pin verified
    # violations.
    def test_convexity_in_target(self, rng):
        Y, X, A, y, p = random_design(rng, m=12, n=1)
        Z = Y.with_values(rng.normal(0, 1.5, 12))
        lam = 0.3
        mix = Y.with_values(lam * y + (1 - lam) * Z.values)
        risk_mix = conditional_risk(fit(EL, SQ, mix, X, tol=1e-9), X)
        bound = lam * conditional_risk(fit(EL, SQ, Y, X, tol=1e-9), X) + (
            1 - lam
        ) * conditional_risk(fit(EL, SQ, Z, X, tol=1e-9), X)
        np.testing.assert_allclose(risk_mix, bound, atol=1e-5)

    def test_linex_breaks_convexity(self):
        # violation 0.1262, confirmed by an independent simplex-search
        # minimizer of the same objective
        s = ScoreFunction.linex(1.0)
        p = np.array([
            0.13320006, 0.01872562, 0.14811778, 0.04071118, 0.08408146,
            0.00804279, 0.05887878, 0.04711604, 0.01632382, 0.19401095,
            0.06488614, 0.03206868, 0.10106202, 0.03312441, 0.01965025,
        ])
        p = p / p.sum()
        A = np.array([
            [-0.73603726, -0.24956557], [1.33950191, -0.89757765],
            [0.87765412, 1.45837309], [2.08375992, -0.05500005],
            [-2.63037823, 3.15197306], [0.96511577, 0.42253616],
            [-1.03687782, 1.27084601], [0.51994866, 0.68713625],
            [1.79349348, 4.120053], [-4.61641506, -0.09913712],
            [-0.83838342, -2.53787861], [-1.82717468, -0.5158284],
            [1.65973565, 3.23952922], [-1.82241734, 1.25610833],
            [1.21023568, 0.00530673],
        ])
        y1 = np.array([
            0.15869795, -2.32292914, -0.49837576, 0.45891884, -4.4042586,
            -1.54841875, -1.88512038, 0.90227427, -5.91782825, 0.71287138,
            2.63247338, 1.39190608, -5.06570589, -0.60801063, -0.96205543,
        ])
        y2 = np.array([
            -0.67101344, -1.03602082, -3.23516289, 0.22834173, -2.00276606,
            2.6269266, -0.05884294, 3.47335964, 0.53215151, 1.61566177,
            -1.21305895, -0.96989703, -2.72935548, 0.95912139, 3.72037308,
        ])
        lam = 0.3932606418336053
        Y1 = wvar(y1, p)
        X = [Y1.with_values(A[:, 0]), Y1.with_values(A[:, 1])]
        mix = Y1.with_values(lam * y1 + (1 - lam) * y2)
        risk_mix = conditional_risk(fit(EL, s, mix, X, tol=1e-10), X)
        bound = lam * conditional_risk(fit(EL, s, Y1, X, tol=1e-10), X) + (
            1 - lam
        ) * conditional_risk(fit(EL, s, wvar(y2, p), X, tol=1e-10), X)
        assert np.max(risk_mix - bound) > 0.12

    def test_high_expectile_breaks_convexity(self):
        s = ScoreFunction.expectile(0.7)
        x = np.array([-1.5, -0.8, -0.2, 0.3, 0.9, 1.6])
        y1 = np.array([2.0, -1.0, 0.5, -0.4, 1.2, -2.0])
        y2 = np.array([-2.0, 1.5, -0.6, 0.8, -1.4, 2.2])
        Y1, Y2 = uvar(y1), uvar(y2)
        X = [Y1.with_values(x)]
        lam = 0.5
        mix = Y1.with_values(lam * y1 + (1 - lam) * y2)
        risk_mix = conditional_risk(fit(EL, s, mix, X, tol=1e-9), X)
        bound = lam * conditional_risk(fit(EL, s, Y1, X, tol=1e-9), X) + (
            1 - lam
        ) * conditional_risk(fit(EL, s, Y2, X, tol=1e-9), X)
        assert np.max(risk_mix - bound) > 1e-3

    def test_positive_homogeneity_of_betas(self, rng):
        s = ScoreFunction.pinball(0.4)
        x = rng.normal(0, 1, 10)
        Y = uvar(rng.normal(0, 1, 10))
        X = [Y.with_values(x)]
        lam = 3.0
        base = fit(EL, s, Y, X, tol=1e-9)
        scaled = fit(EL, s, Y.with_values(lam * Y.values), X, tol=1e-9)
        np.testing.assert_allclose(scaled.betas, lam * base.betas, atol=1e-5)

    def test_reparameterization(self, rng):
        for size in (2, 3):
            Y, X, A, y, p = random_design(rng, m=20, n=size)
            while True:
                M = rng.normal(0, 1, (size, size))
                if abs(np.linalg.det(M)) > 0.3:
                    break
            transformed = [Y.with_values(A @ M[:, j]) for j in range(size)]
            base = fit(EL, SQ, Y, X, tol=1e-9)
            reparam = fit(EL, SQ, Y, transformed, tol=1e-9)
            np.testing.assert_allclose(
                reparam.betas, np.linalg.solve(M, base.betas), atol=1e-5
            )

    def test_residual_refit_is_zero(self, rng):
        Y, X, A, y, p = random_design(rng, m=15, n=2)
        base = fit(EL, SQ, Y, X, tol=1e-9)
        residual = Y.with_values(y - base.mu_star - A @ base.betas)
        refit = fit(EL, SQ, residual, X, tol=1e-9)
        assert refit.mu_star == pytest.approx(0.0, abs=1e-5)
        np.testing.assert_allclose(refit.betas, 0.0, atol=1e-5)


class TestCdMetric:
    def test_matches_classical_r_squared(self, rng):
        Y, X, A, y, p = random_design(rng, m=30, n=1)
        result = fit(EL, SQ, Y, X, tol=1e-10)
        coef = weighted_least_squares(y, A, p)
        full = np.column_stack([np.ones(30), A])
        ssr = float(p @ (y - full @ coef) ** 2)
        sst = float(p @ (y - float(p @ y)) ** 2)
        assert result.cd == pytest.approx(1.0 - ssr / sst, abs=1e-6)
        assert cd_metric(EL, SQ, Y, X, result) == pytest.approx(result.cd, abs=1e-9)

    def test_independent_noise_near_zero(self, rng):
        y = rng.normal(0, 1, 40)
        x = rng.normal(0, 1, 40)
        Y = uvar(y)
        result = fit(EL, SQ, Y, [Y.with_values(x)], tol=1e-9)
        assert -0.05 <= result.cd <= 0.1

    def test_cd_bounded_above(self, rng):
        Y, X, A, y, p = random_design(rng)
        result = fit(EL, SQ, Y, X, tol=1e-9)
        assert result.cd <= 1.0

    def test_constant_target_rejected(self, rng):
        Y = uvar(np.full(6, 2.0))
        X = [Y.with_values(rng.normal(0, 1, 6))]
        dummy = fit(EL, SQ, uvar(rng.normal(0, 1, 6)), X, tol=1e-8)
        with pytest.raises(DomainError):
            cd_metric(EL, SQ, Y, X, dummy)
