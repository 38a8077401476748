"""Robust linear regression: conditional risk and deviation.

Fits (mu, beta) minimizing rho(-f(Y - mu - X beta)) for every coherent
risk measure rho and every score f of the catalog. The objective is
convex in theta = (mu, beta); where f is not strictly convex its
optimum may be flat, and the fit returns one minimizer together with
its certified gap.

Every fit minimizes over theta with the deep-cut ellipsoid method of
`convexnd`, on the exact subgradient of the objective; the
quantile-type fits need no LP solver. The search starts from (-R(Y), 0)
and the ball holding the box of half-widths range(Y) + 1 for mu and
(range(Y) + 1) / (range(X_j) + 1) for beta_j, and restarts 10 times
wider while the answer is not well inside it. `tol` bounds the final
ellipsoid's semi-axes, so every coefficient ends within tol of the
optimum when it is unique; `foc_residual` is the certified gap, the
objective minus the best cutting-plane lower bound, and `iterations`
the number of cuts, one call of F each. The cut count grows as d² in
the d coefficients: 0.2 s with 10 regressors and 0.7 s with 20 for an
el/squared fit on 1 000 rows, on one core of a shared 2-core x86-64 VM.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import convexnd, solver
from .errors import DimensionError, DomainError, SingularDesignError
from .risk import CoherentRiskMeasure, payoff_gradient
from .scores import ScoreFunction
from .spaces import ScenarioVariable

_COND_LIMIT = 1e12


@dataclass(frozen=True)
class RegressionFit:
    mu_star: float
    betas: np.ndarray
    objective: float
    cd: float
    foc_residual: float
    iterations: int

    def predict(self, design: np.ndarray) -> np.ndarray:
        design = np.atleast_2d(np.asarray(design, dtype=float))
        return self.mu_star + design @ self.betas


def _design_matrix(Y: ScenarioVariable, X: list[ScenarioVariable]) -> np.ndarray:
    if not X:
        raise DomainError("need at least one regressor")
    for xi in X:
        if xi.space != Y.space:
            raise DimensionError("regressors must live on the target's scenario space")
    return np.column_stack([xi.values for xi in X])


def _check_design(B: np.ndarray, p: np.ndarray) -> None:
    gram = B.T @ (p[:, None] * B)
    if np.linalg.cond(gram) > _COND_LIMIT:
        raise SingularDesignError(
            "design is collinear (intercept included); condition estimate above 1e12"
        )


def fit(rho: CoherentRiskMeasure, s: ScoreFunction, Y: ScenarioVariable,
        X: list[ScenarioVariable], tol: float = 1e-8) -> RegressionFit:
    if not 0.0 < tol < np.inf:
        raise DomainError(f"tol must be > 0 and finite, got {tol!r}")
    A = _design_matrix(Y, X)
    p = Y.space.p
    y = Y.values
    n = A.shape[1]
    B = np.column_stack([np.ones(A.shape[0]), A])
    _check_design(B, p)
    F = _affine_objective(rho, s, y, B, p)

    y_range = float(np.ptp(y)) + 1.0
    col_ranges = np.ptp(A, axis=0) + 1.0
    steps = np.concatenate([[y_range], y_range / col_ranges])

    unconditional = solver.solve(rho, s, Y, tol)
    theta0 = np.concatenate([[-unconditional.r_value], np.zeros(n)])

    result = convexnd.minimize_convex(F, theta0, steps, tol)
    betas = result.x[1:].copy()
    # pin mu at the leftmost minimizer of the residual problem so the
    # identity mu* = -R(Y - X beta*) holds even on flat optima
    residual = ScenarioVariable(Y.space, y - A @ betas)
    mu_star = solver.solve(rho, s, residual, tol).argmin_lo
    betas.setflags(write=False)
    theta_star = np.concatenate([[mu_star], betas])
    objective = min(result.value, F(theta_star)[0])

    base = unconditional.d_value
    if objective <= max(1e-12, 1e-9 * abs(base)):
        cd = 1.0
    elif base <= 0.0:
        cd = float("nan")
    else:
        cd = 1.0 - objective / base

    return RegressionFit(
        mu_star=mu_star,
        betas=betas,
        objective=objective,
        cd=cd,
        foc_residual=result.foc_residual,
        iterations=result.sweeps,
    )


def _affine_objective(rho: CoherentRiskMeasure, s: ScoreFunction, c: np.ndarray,
                      B: np.ndarray, p: np.ndarray):
    """F(theta) = (rho(-f(r)), B^T (grad_rho(-f(r)) * f'(r))) with affine
    residual r = c - B theta: both from one r, one f(r) and one payoff
    gradient, whose product with the payoff is rho's value (Euler's
    identity). rho is monotone and f convex, so any selection of f' gives
    a subgradient; the right derivative serves at kinks.
    """

    def F(theta: np.ndarray) -> tuple[float, np.ndarray]:
        r = c - B @ theta
        payoff = -s.f(r)
        grad = payoff_gradient(rho, payoff, p)
        return float(np.dot(grad, payoff)), B.T @ (grad * s.fprime_right(r))

    return F


def conditional_risk_row(fit_result: RegressionFit, x_row) -> float:
    """Pointwise conditional risk -(mu* + beta* . x) at one regressor row."""
    x_row = np.asarray(x_row, dtype=float)
    if x_row.shape != fit_result.betas.shape:
        raise DimensionError(
            f"row has {x_row.size} entries, fit has {fit_result.betas.size} betas"
        )
    return float(-(fit_result.mu_star + np.dot(fit_result.betas, x_row)))


def conditional_risk(fit_result: RegressionFit, X: list[ScenarioVariable]) -> np.ndarray:
    """Conditional risk across all outcomes: -(mu* + X beta*)."""
    n = fit_result.betas.size
    if len(X) != n:
        raise DimensionError(f"got {len(X)} regressors, fit has {n} betas")
    if any(xi.space != X[0].space for xi in X[1:]):
        raise DimensionError("regressors must live on one scenario space")
    A = np.column_stack([xi.values for xi in X])
    return -(fit_result.mu_star + A @ fit_result.betas)


def cd_metric(rho: CoherentRiskMeasure, s: ScoreFunction, Y: ScenarioVariable,
              X: list[ScenarioVariable], fit_result: RegressionFit,
              tol: float = 1e-8) -> float:
    """1 - conditional deviation / unconditional deviation, an R^2 analog."""
    base = solver.solve(rho, s, Y, tol).d_value
    if base <= 0.0:
        raise DomainError("unconditional deviation is zero: target is constant")
    return 1.0 - fit_result.objective / base
