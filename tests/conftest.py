"""Shared fixtures and small builders used across the test modules."""

import numpy as np
import pytest
from hypothesis import settings

from scorerisk import FiniteScenarioSpace, ScenarioVariable, ScoreFunction

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


def uvar(values) -> ScenarioVariable:
    """Variable on the uniform space over its outcomes."""
    values = np.asarray(values, dtype=float)
    return ScenarioVariable(FiniteScenarioSpace.uniform(values.size), values)


def wvar(values, p) -> ScenarioVariable:
    """Variable on the space with explicit probabilities."""
    return ScenarioVariable(
        FiniteScenarioSpace(np.asarray(p, dtype=float)),
        np.asarray(values, dtype=float),
    )


class SwappedPinball(ScoreFunction):
    """A pinball score whose one-sided derivatives are exchanged, so the
    objective's left slope exceeds its right one wherever y is an outcome."""

    def fprime_left(self, x):
        return ScoreFunction.fprime_right(self, x)

    def fprime_right(self, x):
        return ScoreFunction.fprime_left(self, x)


def swapped_pinball(alpha: float) -> ScoreFunction:
    return SwappedPinball("pinball", alpha, True, False, False)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
