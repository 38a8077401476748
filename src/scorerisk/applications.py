"""Minimum-deviation portfolios and optimal replication hedging.

Both problems reduce to the machinery already built: the portfolio
problem is a convex minimization over budget-constrained weights plus a
location, and the hedge is exactly the conditional regression fit. Each
portfolio solve is offered two ways (direct, and through the
regression-equivalence construction) so the two can cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import conditional, convexnd, solver
from .errors import DomainError, ValidationError
from .risk import CoherentRiskMeasure
from .scores import ScoreFunction
from .spaces import ScenarioVariable

_BUDGET_TOL = 1e-8


@dataclass(frozen=True)
class PortfolioWeights:
    w: np.ndarray

    def __init__(self, w) -> None:
        arr = np.asarray(w, dtype=float).copy()
        if abs(float(arr.sum()) - 1.0) > _BUDGET_TOL:
            raise ValidationError(
                f"portfolio weights must sum to 1 within {_BUDGET_TOL}, got {arr.sum()!r}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "w", arr)


@dataclass(frozen=True)
class HedgeResult:
    mu: float
    w: np.ndarray
    residual_deviation: float


def _stack_assets(assets: list[ScenarioVariable]) -> np.ndarray:
    space = assets[0].space
    for a in assets[1:]:
        if a.space != space:
            raise DomainError("all assets must live on the same scenario space")
    return np.column_stack([a.values for a in assets])


def min_deviation_portfolio(
    rho: CoherentRiskMeasure,
    s: ScoreFunction,
    assets: list[ScenarioVariable],
    method: str = "direct",
    tol: float = 1e-8,
) -> tuple[PortfolioWeights, float]:
    """Budget-constrained weights minimizing the deviation of the mix."""
    if len(assets) < 2:
        raise DomainError("portfolio needs at least two assets")
    if method not in ("direct", "regression"):
        raise DomainError(f"method must be 'direct' or 'regression', got {method!r}")
    V = _stack_assets(assets)
    if np.all(V == V[:, [0]]):
        raise DomainError("assets are all identical; portfolio is degenerate")
    if method == "direct":
        return _portfolio_direct(rho, s, assets, V, tol)
    return _portfolio_regression(rho, s, assets, V, tol)


def _portfolio_direct(rho, s, assets, V, tol):
    """Minimize rho(-f(sum w_i X_i - y)) over (w_1..w_{n-1}, y), with the
    budget substituted as w_n = 1 - sum of the others."""
    space = assets[0].space
    n = V.shape[1]
    # V w - y = V_n - B theta with theta = (w_1..w_{n-1}, y)
    B = np.column_stack([V[:, -1:] - V[:, :-1], np.ones(V.shape[0])])
    F = conditional._affine_objective(rho, s, V[:, -1], B, space.p)

    w0 = np.full(n - 1, 1.0 / n)
    equal = ScenarioVariable(space, V.mean(axis=1))
    y0 = solver.solve(rho, s, equal, tol).argmin_lo
    theta0 = np.concatenate([w0, [y0]])
    y_scale = float(np.ptp(equal.values)) + 1.0
    ranges = np.ptp(V, axis=0) + 1.0
    steps = np.concatenate([y_scale / ranges[:-1], [y_scale]])

    result = convexnd.minimize_convex(F, theta0, steps, tol)
    w = np.concatenate([result.x[:-1], [1.0 - result.x[:-1].sum()]])
    return PortfolioWeights(w), result.value


def _portfolio_regression(rho, s, assets, V, tol):
    """Equivalence route: regress the equal-weight average Y on the excess
    terms (Y - X_i) and map the coefficients back to budget weights.

    The excess regressors sum to zero, so one is dropped (its coefficient
    pinned at 0); the weight map is invariant to that normalization.
    """
    space = assets[0].space
    n = V.shape[1]
    y_bar = V.mean(axis=1)
    Y = ScenarioVariable(space, y_bar)
    regressors = [
        ScenarioVariable(space, y_bar - V[:, i]) for i in range(n - 1)
    ]
    fit_result = conditional.fit(rho, s, Y, regressors, tol)
    w_prime = np.concatenate([fit_result.betas, [0.0]])
    w = w_prime + (1.0 - w_prime.sum()) / n
    return PortfolioWeights(w), fit_result.objective


def optimal_hedge(
    rho: CoherentRiskMeasure,
    s: ScoreFunction,
    Y: ScenarioVariable,
    instruments: list[ScenarioVariable],
    tol: float = 1e-8,
) -> HedgeResult:
    """Hedge a claim Y with a cash position mu and instrument weights w.

    This is the conditional regression fit repackaged; the cash position
    equals the negated unconditional risk of the unhedged residual.
    """
    fit_result = conditional.fit(rho, s, Y, instruments, tol)
    return HedgeResult(
        mu=fit_result.mu_star,
        w=fit_result.betas,
        residual_deviation=fit_result.objective,
    )
