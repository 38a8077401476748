"""Shared fixtures, small builders and the minimax oracle used across the
test modules."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import settings

from scorerisk import (
    CoherentRiskMeasure,
    FiniteScenarioSpace,
    ScenarioVariable,
    ScoreFunction,
    convex1d,
    dual_maximizer,
    ess_bounds,
    solve,
)

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
    return SwappedPinball("pinball", alpha)


def minimax_gaps(rho: CoherentRiskMeasure, s: ScoreFunction,
                 X: ScenarioVariable) -> tuple[float, float]:
    """How far the saddle representation of the deviation misses, for ES on
    at most 8 uniform outcomes with alpha * n a whole number.

    D must equal sup over the ES dual polytope of the inner minimum
    min_y E_q[f(X - y)]. The inner minimum is concave in q, so the sup
    need not sit on a polytope vertex: the vertices give a lower bound, and
    a dense sample of the polytope (the vertices, their pairwise and 2 000
    random convex mixtures, the base measure, and the worst-case measure at
    the optimum) should reproduce D. Returns the best vertex's excess over
    D and |D - sampled sup|.
    """
    n = X.space.n
    k = round(rho.param * n)
    lo0, hi0 = ess_bounds(X)
    rng = max(hi0 - lo0, 1e-12)
    a, b = lo0 - rng / 10.0, hi0 + rng / 10.0
    x = X.values

    def inner_min(q: np.ndarray) -> float:
        return convex1d.min_value(
            lambda y: float(np.dot(q, s.f(x - y))), a, b, 1e-11 * (1.0 + rng)
        )

    vertices = []
    for subset in combinations(range(n), k):
        q = np.zeros(n)
        q[list(subset)] = 1.0 / k
        vertices.append(q)
    vertices = np.asarray(vertices)
    ext_best = max(inner_min(q) for q in vertices)

    result = solve(rho, s, X, tol=1e-10)
    d = result.d_value

    samples = [X.space.p]
    payoff = ScenarioVariable(X.space, -s.f(x - result.argmin_lo))
    samples.append(dual_maximizer(rho, payoff).q)
    # the concave inner minimum often peaks on a low-dimensional face, so
    # cover pairwise vertex mixtures explicitly, then fill in with dense
    # and sparse random mixtures of all vertices
    for i in range(len(vertices)):
        for j in range(i + 1, len(vertices)):
            for t in np.linspace(0.1, 0.9, 9):
                samples.append(t * vertices[i] + (1.0 - t) * vertices[j])
    rand = np.random.default_rng(0)
    for conc in (1.0, 0.3):
        weights = rand.dirichlet(np.full(len(vertices), conc), size=1000)
        samples.extend(weights @ vertices)
    sample_best = max(ext_best, max(inner_min(q) for q in samples))

    return ext_best - d, abs(d - sample_best)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
