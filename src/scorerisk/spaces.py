"""Finite scenario spaces, random variables, and reweighting measures.

Everything downstream computes on these three immutable types: a finite
outcome set with strictly positive probabilities, real-valued variables
given as one value per outcome, and nonnegative reweightings of the same
outcome set (used as candidate measures in worst-case expectations).
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError, ValidationError

PROB_SUM_TOL = 1e-12


def _as_finite_array(values, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValidationError(f"{what} must be one-dimensional, got shape {arr.shape}")
    if arr.size < 1:
        raise ValidationError(f"{what} must have at least one entry")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{what} contains non-finite entries")
    return arr


def _probability_vector(values, what: str, strictly_positive: bool) -> np.ndarray:
    """Finite entries, positive or nonnegative, summing to 1 within
    PROB_SUM_TOL; renormalized so sums downstream are exact, and read-only."""
    arr = _as_finite_array(values, what)
    if strictly_positive:
        if np.any(arr <= 0.0):
            raise ValidationError(f"all {what} must be strictly positive")
    elif np.any(arr < 0.0):
        raise ValidationError(f"{what} must be nonnegative")
    total = float(arr.sum())
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ValidationError(f"{what} must sum to 1 within {PROB_SUM_TOL}, got {total!r}")
    arr = arr / total
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class FiniteScenarioSpace:
    """Outcome set with strictly positive probabilities summing to 1."""

    p: np.ndarray

    def __init__(self, p) -> None:
        object.__setattr__(self, "p", _probability_vector(p, "probabilities", True))

    @property
    def n(self) -> int:
        return self.p.size

    @staticmethod
    def uniform(n: int) -> "FiniteScenarioSpace":
        if n < 1:
            raise ValidationError("outcome count must be >= 1")
        return FiniteScenarioSpace(np.full(n, 1.0 / n))

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteScenarioSpace) and np.array_equal(self.p, other.p)

    def __hash__(self) -> int:
        return hash(self.p.tobytes())


@dataclass(frozen=True)
class ScenarioVariable:
    """A random variable: one finite real value per outcome."""

    space: FiniteScenarioSpace
    values: np.ndarray = field(compare=False)

    def __init__(self, space: FiniteScenarioSpace, values) -> None:
        arr = _as_finite_array(values, "values")
        if arr.size != space.n:
            raise DimensionError(
                f"variable has {arr.size} values but space has {space.n} outcomes"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "values", arr)

    def with_values(self, values) -> "ScenarioVariable":
        return ScenarioVariable(self.space, values)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ScenarioVariable)
            and self.space == other.space
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self) -> int:
        return hash((self.space, self.values.tobytes()))


@dataclass(frozen=True)
class MeasureWeights:
    """A reweighting q of the outcome set: q_i >= 0, sum q_i = 1.

    Because the base probabilities are strictly positive, every such q is
    absolutely continuous with respect to the base measure; the density is
    simply q_i / p_i.
    """

    q: np.ndarray

    def __init__(self, q) -> None:
        object.__setattr__(self, "q", _probability_vector(q, "weights", False))

    @property
    def n(self) -> int:
        return self.q.size

    @staticmethod
    def from_space(space: FiniteScenarioSpace) -> "MeasureWeights":
        return MeasureWeights(space.p)

    def __eq__(self, other) -> bool:
        return isinstance(other, MeasureWeights) and np.array_equal(self.q, other.q)

    def __hash__(self) -> int:
        return hash(self.q.tobytes())


def expectation(X: ScenarioVariable, q: MeasureWeights) -> float:
    """E_q[X] = sum q_i X_i."""
    if X.values.size != q.n:
        raise DimensionError(
            f"variable has {X.values.size} outcomes but weights have {q.n}"
        )
    return float(np.dot(q.q, X.values))


def left_quantile(X: ScenarioVariable, q: MeasureWeights, alpha: float) -> float:
    """Left quantile inf{x : F(x) >= alpha} of X under the weights q.

    Equal values are merged before cumulating so the result matches the
    distribution-function definition literally.
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must be in (0,1), got {alpha!r}")
    if X.values.size != q.n:
        raise DimensionError(
            f"variable has {X.values.size} outcomes but weights have {q.n}"
        )
    uniq, inverse = np.unique(X.values, return_inverse=True)
    mass = np.zeros(uniq.size)
    np.add.at(mass, inverse, q.q)
    cum = np.cumsum(mass)
    idx = int(np.searchsorted(cum, alpha - 1e-15))
    idx = min(idx, uniq.size - 1)
    return float(uniq[idx])


def ess_bounds(X: ScenarioVariable) -> tuple[float, float]:
    """(essinf, esssup) of X; on a finite space just (min, max)."""
    return float(X.values.min()), float(X.values.max())


def load_csv(source) -> tuple[FiniteScenarioSpace, dict[str, ScenarioVariable]]:
    """Read a scenario table: one row per outcome, columns are variables.

    A column headed ``prob`` (if present) supplies outcome probabilities;
    otherwise the space is uniform. All cells must be finite decimals.
    Accepts a file path or an open text stream; returns the space and a
    name -> variable mapping preserving column order.
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, newline="") as handle:
            return load_csv(handle)

    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise ValidationError("CSV input is empty") from None
    header = [name.strip() for name in header]
    if len(set(header)) != len(header):
        raise ValidationError("CSV header contains duplicate column names")

    lines = list(source)
    # numpy's C reader takes plain comma-separated decimals, each parsed to
    # the float that `float` gives; quoting, ragged rows, blank cells and
    # whatever else it refuses fall to the csv loop and its row-level errors
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # "input contained no data" is a warning
        try:
            table = np.loadtxt(lines, dtype=float, delimiter=",", comments=None, ndmin=2)
        except (ValueError, UserWarning):
            table = None
    if table is None or table.shape[1] != len(header):
        rows = []
        for lineno, row in enumerate(csv.reader(lines), start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise ValidationError(
                    f"CSV row {lineno} has {len(row)} cells, expected {len(header)}"
                )
            try:
                rows.append([float(cell) for cell in row])
            except ValueError:
                raise ValidationError(f"CSV row {lineno} contains a non-numeric cell") from None
        if not rows:
            raise ValidationError("CSV input has no data rows")
        table = np.asarray(rows, dtype=float)
    if not np.all(np.isfinite(table)):
        raise ValidationError("CSV input contains non-finite values")

    if "prob" in header:
        pcol = header.index("prob")
        space = FiniteScenarioSpace(table[:, pcol])
        names = [h for i, h in enumerate(header) if i != pcol]
        cols = np.delete(table, pcol, axis=1)
    else:
        space = FiniteScenarioSpace.uniform(table.shape[0])
        names = header
        cols = table

    variables = {
        name: ScenarioVariable(space, cols[:, i]) for i, name in enumerate(names)
    }
    return space, variables
