"""Scenario-based robust risk and deviation measures.

Minimizes a coherent risk measure applied to a scoring function of a
financial position, reporting the minimizer interval (risk) and the
minimum (deviation), with regression, portfolio, and hedging
applications on top.
"""

from .applications import (
    HedgeResult,
    PortfolioWeights,
    min_deviation_portfolio,
    optimal_hedge,
)
from .conditional import RegressionFit, cd_metric, conditional_risk, conditional_risk_row, fit
from .errors import (
    ContractError,
    DimensionError,
    DomainError,
    ScoreriskError,
    SingularDesignError,
    ValidationError,
)
from .risk import CoherentRiskMeasure, dual_maximizer
from .risk import evaluate as risk_value
from .scores import ScoreFunction, dminus_y, dplus_y
from .scores import evaluate as score_value
from .solver import SolveResult, acceptability_index, brute_force_oracle, minimax_check, solve
from .spaces import (
    FiniteScenarioSpace,
    MeasureWeights,
    ScenarioVariable,
    ess_bounds,
    expectation,
    left_quantile,
    load_csv,
)

__version__ = "0.1.0"

__all__ = [
    "CoherentRiskMeasure",
    "ContractError",
    "DimensionError",
    "DomainError",
    "FiniteScenarioSpace",
    "HedgeResult",
    "MeasureWeights",
    "PortfolioWeights",
    "RegressionFit",
    "ScenarioVariable",
    "ScoreFunction",
    "ScoreriskError",
    "SingularDesignError",
    "SolveResult",
    "ValidationError",
    "acceptability_index",
    "brute_force_oracle",
    "cd_metric",
    "conditional_risk",
    "conditional_risk_row",
    "dminus_y",
    "dplus_y",
    "dual_maximizer",
    "ess_bounds",
    "expectation",
    "fit",
    "left_quantile",
    "load_csv",
    "min_deviation_portfolio",
    "minimax_check",
    "optimal_hedge",
    "risk_value",
    "score_value",
    "solve",
]
