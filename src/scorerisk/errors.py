"""Semantic exception hierarchy shared across the package."""


class ScoreriskError(Exception):
    """Base class for all package errors."""


class DomainError(ScoreriskError, ValueError):
    """A scalar argument is outside its admissible range."""


class DimensionError(ScoreriskError, ValueError):
    """Vector lengths or outcome counts do not match."""


class ValidationError(ScoreriskError, ValueError):
    """Constructor input violates a type invariant."""


class SingularDesignError(ScoreriskError, ValueError):
    """Regression design is exactly or numerically collinear."""


class ContractError(ScoreriskError, RuntimeError):
    """An internal convexity contract was violated.

    Raised where the objective's left derivative exceeds its right one by
    more than rounding at a point the solver evaluates, which signals a
    broken score or risk-measure implementation rather than bad user input.
    """
