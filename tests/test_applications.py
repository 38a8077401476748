"""Portfolio construction and hedging built on the regression machinery."""

import numpy as np
import pytest

from scorerisk import (
    CoherentRiskMeasure,
    DomainError,
    PortfolioWeights,
    ScoreFunction,
    SingularDesignError,
    ValidationError,
    min_deviation_portfolio,
    optimal_hedge,
    solve,
)

from conftest import uvar, wvar

EL = CoherentRiskMeasure.el()
SQ = ScoreFunction.squared()


def random_assets(rng, n_assets=3, m=25):
    p = rng.dirichlet(np.ones(m))
    V = rng.normal(0, 1, (m, n_assets)) @ rng.normal(0, 1, (n_assets, n_assets))
    V += rng.normal(0, 0.3, (m, n_assets))
    first = wvar(V[:, 0], p)
    return [first.with_values(V[:, i]) for i in range(n_assets)], V, p


def gmvp_oracle(V, p):
    mean = V.T @ p
    cov = V.T @ (p[:, None] * V) - np.outer(mean, mean)
    ones = np.ones(V.shape[1])
    raw = np.linalg.solve(cov, ones)
    w = raw / raw.sum()
    return w, float(w @ cov @ w)


class TestPortfolioWeights:
    def test_accepts_budget(self):
        w = PortfolioWeights([0.2, 0.3, 0.5])
        assert w.w.sum() == pytest.approx(1.0)
        with pytest.raises(ValueError):
            w.w[0] = 9.0  # frozen array

    def test_rejects_broken_budget(self):
        with pytest.raises(ValidationError):
            PortfolioWeights([0.5, 0.6])


class TestPortfolio:
    def test_direct_matches_regression(self, rng):
        for _ in range(6):
            assets, V, p = random_assets(rng)
            wd, dd = min_deviation_portfolio(EL, SQ, assets, method="direct", tol=1e-9)
            wr, dr = min_deviation_portfolio(EL, SQ, assets, method="regression", tol=1e-9)
            np.testing.assert_allclose(wd.w, wr.w, atol=1e-3)
            assert dd == pytest.approx(dr, abs=1e-4)

    def test_matches_minimum_variance_oracle(self, rng):
        # squared + expected loss: the deviation of a mix is its variance,
        # so the optimum is the global minimum-variance portfolio
        for _ in range(6):
            assets, V, p = random_assets(rng)
            w_star, var_star = gmvp_oracle(V, p)
            for method in ("direct", "regression"):
                w, d = min_deviation_portfolio(EL, SQ, assets, method=method, tol=1e-10)
                np.testing.assert_allclose(w.w, w_star, atol=1e-4)
                assert d == pytest.approx(var_star, abs=1e-6)

    def test_deviation_matches_solve_on_the_mix(self, rng):
        assets, V, p = random_assets(rng)
        for rho, s in ((EL, SQ), (CoherentRiskMeasure.es(0.4), ScoreFunction.huber(0.8))):
            w, d = min_deviation_portfolio(rho, s, assets, method="direct", tol=1e-9)
            mix = assets[0].with_values(V @ w.w)
            assert d == pytest.approx(solve(rho, s, mix, tol=1e-9).d_value, abs=1e-5)

    def test_two_asset_closed_form(self, rng):
        # with two assets the variance of w*X1 + (1-w)*X2 is a scalar
        # quadratic; verify against its vertex
        assets, V, p = random_assets(rng, n_assets=2)
        mean = V.T @ p
        cov = V.T @ (p[:, None] * V) - np.outer(mean, mean)
        w1 = (cov[1, 1] - cov[0, 1]) / (cov[0, 0] + cov[1, 1] - 2 * cov[0, 1])
        w, d = min_deviation_portfolio(EL, SQ, assets, method="direct", tol=1e-10)
        assert w.w[0] == pytest.approx(w1, abs=1e-5)

    def test_identical_assets_rejected(self, rng):
        base = uvar(rng.normal(0, 1, 10))
        with pytest.raises(DomainError):
            min_deviation_portfolio(EL, SQ, [base, base.with_values(base.values)])

    def test_shifted_assets(self, rng):
        # a pure cash shift between assets leaves every budget mix with
        # the same deviation; the regression route degenerates (constant
        # regressor) while the direct route still returns a valid budget
        base = uvar(rng.normal(0, 1, 12))
        shifted = base.with_values(base.values + 0.7)
        with pytest.raises(SingularDesignError):
            min_deviation_portfolio(EL, SQ, [base, shifted], method="regression")
        w, d = min_deviation_portfolio(EL, SQ, [base, shifted], method="direct", tol=1e-8)
        assert w.w.sum() == pytest.approx(1.0, abs=1e-8)
        assert d == pytest.approx(solve(EL, SQ, base, tol=1e-8).d_value, abs=1e-5)

    def test_input_validation(self, rng):
        single = uvar(rng.normal(0, 1, 6))
        with pytest.raises(DomainError):
            min_deviation_portfolio(EL, SQ, [single])
        other_space = uvar(rng.normal(0, 1, 7))
        with pytest.raises(DomainError):
            min_deviation_portfolio(EL, SQ, [single, other_space])
        pair = [single, single.with_values(rng.normal(0, 1, 6))]
        with pytest.raises(DomainError):
            min_deviation_portfolio(EL, SQ, pair, method="annealing")


class TestHedge:
    def test_perfect_hedge(self, rng):
        x1 = rng.normal(0, 1, 15)
        x2 = rng.normal(0, 1, 15)
        Y = uvar(0.4 + 2.0 * x1 - 1.3 * x2)
        instruments = [Y.with_values(x1), Y.with_values(x2)]
        result = optimal_hedge(EL, SQ, Y, instruments, tol=1e-10)
        assert result.residual_deviation <= 1e-10
        np.testing.assert_allclose(result.w, [2.0, -1.3], atol=1e-6)
        assert result.mu == pytest.approx(0.4, abs=1e-6)

    def test_single_instrument_matches_weighted_ols(self, rng):
        m = 20
        p = rng.dirichlet(np.ones(m))
        x = rng.normal(0, 1, m)
        Y = wvar(rng.normal(0, 1, m) + 0.8 * x, p)
        result = optimal_hedge(EL, SQ, Y, [Y.with_values(x)], tol=1e-10)
        mx, my = float(p @ x), float(p @ Y.values)
        beta = float(p @ ((x - mx) * (Y.values - my))) / float(p @ (x - mx) ** 2)
        assert result.w[0] == pytest.approx(beta, abs=1e-6)
        # cash position is the mean residual under expected loss
        assert result.mu == pytest.approx(my - beta * mx, abs=1e-6)

    def test_cash_invariance(self, rng):
        x = rng.normal(0, 1, 12)
        y = rng.normal(0, 1, 12)
        Y = uvar(y)
        instruments = [Y.with_values(x)]
        c = 1.9
        base = optimal_hedge(EL, SQ, Y, instruments, tol=1e-9)
        shifted = optimal_hedge(EL, SQ, Y.with_values(y + c), instruments, tol=1e-9)
        assert shifted.mu == pytest.approx(base.mu + c, abs=1e-5)
        np.testing.assert_allclose(shifted.w, base.w, atol=1e-5)
        assert shifted.residual_deviation == pytest.approx(
            base.residual_deviation, abs=1e-5
        )

    def test_scale_equivariance_homogeneous_score(self, rng):
        # positive homogeneity holds for every coherent measure
        s = ScoreFunction.pinball(0.3)
        x = rng.normal(0, 1, 10)
        y = rng.normal(0, 1, 10)
        Y = uvar(y)
        instruments = [Y.with_values(x)]
        lam = 2.5
        for rho in (EL, CoherentRiskMeasure.es(0.5), CoherentRiskMeasure.ml()):
            base = optimal_hedge(rho, s, Y, instruments, tol=1e-9)
            scaled = optimal_hedge(rho, s, Y.with_values(lam * y), instruments, tol=1e-9)
            assert scaled.mu == pytest.approx(lam * base.mu, abs=1e-5)
            np.testing.assert_allclose(scaled.w, lam * base.w, atol=1e-5)
            assert scaled.residual_deviation == pytest.approx(
                lam * base.residual_deviation, abs=1e-5
            )

    def test_more_instruments_never_hurt(self, rng):
        for rho, s in (
            (EL, SQ),
            (CoherentRiskMeasure.es(0.5), SQ),
            (CoherentRiskMeasure.es(0.5), ScoreFunction.pinball(0.3)),
            (CoherentRiskMeasure.ml(), ScoreFunction.absolute()),
        ):
            x1 = rng.normal(0, 1, 18)
            x2 = rng.normal(0, 1, 18)
            Y = uvar(rng.normal(0, 1, 18) + x1 - 0.5 * x2)
            one = optimal_hedge(rho, s, Y, [Y.with_values(x1)], tol=1e-9)
            two = optimal_hedge(
                rho, s, Y, [Y.with_values(x1), Y.with_values(x2)], tol=1e-9
            )
            assert two.residual_deviation <= one.residual_deviation + 1e-6
