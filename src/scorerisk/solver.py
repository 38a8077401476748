"""Robust risk and deviation by one-dimensional convex minimization.

Given a coherent risk measure rho and a score f, minimizes
g(y) = rho(-f(X - y)) over y. The minimum is the deviation value, the
leftmost minimizer (negated) is the risk value, and the full minimizer
interval is reported. `convex1d.minimizer_interval` finds both ends from
the exact one-sided subgradients, both from one payoff gradient a point.
es:alpha (alpha < 1/2) and ml solve on the outcomes their tails can hold.
Pinball-type scores list their kinks once per solve, in one sorted array
of at most 2n points (under es and ml only the ties on the tail's
boundary), for a binary search guided by tangent steps on the values:
under el, es and ml it ends on an exact kink; under evar and msd the kink
it finds is exact where its two one-sided slopes bracket zero, and
otherwise evar's tangent steps go on to the kinks no list holds, and
msd's Illinois steps to its smooth minimum. Elsewhere the search ends at
a zero slope, two adjacent floats, or a few steps past `tol` where the
slope jumps at an unlisted kink (an es tail change under huber, say). So
`tol` caps the work, and `tol_achieved` is the widest final bracket. The
same gradient gives the value as grad . payoff (rho is positively
homogeneous), so the deviation costs no kernel call at a point the search
visited. A grid-scan oracle, evaluating rho directly, checks the same
quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import convex1d
from .errors import ContractError, DomainError
from .risk import CoherentRiskMeasure, dual_maximizer, evaluate_batch, payoff_gradient
from .scores import ScoreFunction
from .spaces import FiniteScenarioSpace, ScenarioVariable, ess_bounds

_BRACKET_PAD = 0.1  # widen [essinf, esssup] by this fraction of the range
MAX_GRID_POINTS = 10**6  # brute_force_oracle's grid: 16 MB, one evaluation a point
_GRID_BLOCK = 2**20  # payoffs the oracle evaluates at once: 8 MB, so O(n) memory


@dataclass(frozen=True)
class SolveResult:
    d_value: float
    argmin_lo: float
    argmin_hi: float
    r_value: float
    tol_achieved: float
    evaluations: int


class _Objective:
    """y -> rho(-f(X - y)) with an evaluation counter and the values `slopes` saw."""

    def __init__(self, rho: CoherentRiskMeasure, s: ScoreFunction, X: ScenarioVariable):
        self.rho = rho
        self.s = s
        self.x = X.values
        self.p = X.space.p
        self.calls = 0
        self.values: dict[float, float] = {}

    def slopes(self, y: float) -> tuple[float, float, float]:
        """Left and right slopes grad_rho(payoff) . f'(X - y), with f's right and left
        derivatives as X - y falls, and the value grad_rho(payoff) . payoff;
        ContractError where left > right beyond rounding."""
        self.calls += 1
        z = self.x - y
        payoff = -self.s.f(z)
        grad = payoff_gradient(self.rho, payoff, self.p)
        value = self.values[y] = float(np.dot(grad, payoff))
        del payoff  # one more live row made glibc trim the heap and re-fault it each call
        fp = self.s.fprime_right(z)
        left = right = float(np.dot(grad, fp))
        if not self.s.differentiable and not z.all():  # the sides differ only where X = y
            right = float(np.dot(grad, self.s.fprime_left(z)))
        # on a flat piece each sum rounds to a few ulp of either sign, so within
        # one rounding bound it is zero (the sums differ only where X - y is 0)
        noise = float(self.x.size * np.finfo(float).eps * np.dot(np.abs(grad), np.abs(fp)))
        if left - right > noise:
            raise ContractError(f"at y = {y!r} the left slope {left!r} exceeds the right slope "
                                f"{right!r} by more than rounding ({noise!r}): the objective "
                                "is not convex")
        return *(slope if abs(slope) > noise else 0.0 for slope in (left, right)), value

    def grid(self, ys: np.ndarray) -> np.ndarray:
        rows = max(1, _GRID_BLOCK // self.x.size)
        out = np.empty(ys.size)
        for start in range(0, ys.size, rows):
            block = ys[start : start + rows]
            payoff = -self.s.f(self.x[None, :] - block[:, None])
            out[start : start + rows] = evaluate_batch(self.rho, payoff, self.p)
        self.calls += ys.size
        return out


def _kinks(rho: CoherentRiskMeasure, s: ScoreFunction, X: ScenarioVariable) -> np.ndarray:
    """Sorted points where g may kink for the pinball family: the outcomes
    under el, evar and msd; under es and ml the tie points on the tail's
    boundary, at most 2n. Losses fall from the largest outcome down and from
    the smallest up, so an es tail holds the i largest and j smallest, and
    it changes only where the i-th largest ties the j-th smallest, at
    a*x_i + (1-a)*x_j, with top(i-1) + bottom(j-1) < alpha < top(i) +
    bottom(j) in mass (where they are one outcome, its own kink). ml's tail
    is the largest loss: one tie, of the largest and the smallest."""
    x = X.values
    if rho.kind not in ("es", "ml"):
        return np.unique(x)
    a = 0.5 if s.kind == "absolute" else s.param
    if rho.kind == "ml":
        return np.array([a * x.max() + (1.0 - a) * x.min()])
    order = np.argsort(x)
    v, bottom = x[order], np.concatenate(([0.0], np.cumsum(X.space.p[order])))
    del order  # each n-sized array alive here adds to the solve's peak memory
    n, alpha = v.size, rho.param
    # for the i-th largest, i = 1..n, top(i) = bottom(n) - bottom(n - i); the
    # inequalities are strict, so runs of masses that vanish in the sums
    # list no quadratic count of ties, and at equality the tail is the same
    # on both sides of the tie; j <= n where rounding puts alpha past bottom(n)
    first = np.maximum(np.searchsorted(bottom, (alpha - bottom[-1]) + bottom[-2::-1],
                                       side="right"), 1)
    count = np.maximum(np.minimum(np.searchsorted(
        bottom, (alpha - bottom[-1]) + bottom[:0:-1]), n) - first + 1, 0)
    hi = np.repeat(np.arange(n - 1, -1, -1), count)
    lo = np.repeat(first - np.cumsum(count) + count, count) + np.arange(int(count.sum())) - 1
    return np.unique(np.where(v[hi] == v[lo], v[hi], a * v[hi] + (1.0 - a) * v[lo]))


def _weighed(rho: CoherentRiskMeasure, X: ScenarioVariable) -> tuple[CoherentRiskMeasure,
                                                                      ScenarioVariable]:
    """rho and the outcomes it weighs at any y. The loss f(x - y) is convex
    in x, so ml's largest is at the smallest or largest outcome, and an
    es:alpha tail (the i largest and j smallest) holds no outcome with more
    than alpha of mass below and above it. es keeps the others, with their
    mass m renormalized, under es:alpha/m: the same tails and values."""
    x, p = X.values, X.space.p
    if rho.kind == "ml":
        return rho, ScenarioVariable(FiniteScenarioSpace.uniform(2), [x.min(), x.max()])
    if rho.kind != "es" or rho.param >= 0.5:
        return rho, X
    order = np.argsort(x)
    # the first `low` and last `high` sorted outcomes have at most alpha below or above
    low, high = (int(np.searchsorted(np.cumsum(p[ends]), rho.param, side="right")) + 1
                 for ends in (order, order[::-1]))
    if low + high >= x.size:
        return rho, X
    keep = np.ones(x.size, dtype=bool)
    keep[order[low:x.size - high]] = False
    m = float(p[keep].sum())
    return (CoherentRiskMeasure.es(rho.param / m),
            ScenarioVariable(FiniteScenarioSpace(p[keep] / m), x[keep]))


def solve(rho: CoherentRiskMeasure, s: ScoreFunction, X: ScenarioVariable,
          tol: float = 1e-8) -> SolveResult:
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be > 0 and finite, got {tol!r}")
    lo0, hi0 = ess_bounds(X)
    if lo0 == hi0:
        # constant position: the score is zero at y = c and positive elsewhere
        return SolveResult(0.0, lo0, lo0, -lo0, 0.0, 0)
    rng = hi0 - lo0
    if not math.isfinite(rng):
        raise DomainError(f"outcome range [{lo0!r}, {hi0!r}] is wider than a float holds")

    a = lo0 - _BRACKET_PAD * rng
    b = hi0 + _BRACKET_PAD * rng
    rho, X = _weighed(rho, X)
    g = _Objective(rho, s, X)
    kinks = None if s.differentiable else _kinks(rho, s, X)
    left, right, width = convex1d.minimizer_interval(
        g.slopes, a, b, tol, strict=s.smooth_strictly_convex, kinks=kinks,
        linear=kinks is not None and rho.kind in ("el", "es", "ml"),
        smooth=kinks is not None and rho.kind == "msd")
    # endpoints stay inside [essinf, esssup]
    left = min(max(left, lo0), hi0)
    right = min(max(right, lo0), hi0)
    # g is constant on [left, right], where the slopes are >= 0 and <= 0; left may
    # be unevaluated: an exact kink, a clipped end or a collapsed crossing
    if left not in g.values:
        g.slopes(left)
    return SolveResult(g.values[left], left, right, -left, width, g.calls)


def brute_force_oracle(rho: CoherentRiskMeasure, s: ScoreFunction,
                       X: ScenarioVariable, grid_step: float) -> SolveResult:
    """Independent grid-scan verification of `solve`.

    Scans a uniform grid over the padded essential range, collapses the
    near-minimal grid points to an interval, and polishes the minimum
    value by ternary shrinking around the grid argmin so the value
    comparison is not limited by grid resolution.
    """
    if not 0.0 < grid_step < math.inf:
        raise DomainError(f"grid_step must be > 0 and finite, got {grid_step!r}")
    lo0, hi0 = ess_bounds(X)
    if lo0 == hi0:
        return SolveResult(0.0, lo0, lo0, -lo0, 0.0, 1)
    rng = hi0 - lo0
    a = lo0 - rng / 10.0
    b = hi0 + rng / 10.0
    points = (b - a) / grid_step + 1.0
    if not points <= MAX_GRID_POINTS:  # also rejects inf and nan
        raise DomainError(f"grid of {points:.3g} points over [{a!r}, {b!r}] exceeds "
                          f"{MAX_GRID_POINTS}; choose a coarser grid_step")
    g = _Objective(rho, s, X)
    ys = np.arange(a, b + grid_step / 2.0, grid_step)
    vals = g.grid(ys)
    k = int(np.argmin(vals))
    g_grid_min = float(vals[k])

    flat = vals <= g_grid_min + max(1e-12, 1e-9 * abs(g_grid_min))
    left = float(ys[np.argmax(flat)])
    right = float(ys[len(flat) - 1 - np.argmax(flat[::-1])])

    lo_ref = max(a, ys[k] - grid_step)
    hi_ref = min(b, ys[k] + grid_step)
    g_min = min(g_grid_min, convex1d.min_value(lambda y: float(g.grid(np.array([y]))[0]),
                                               lo_ref, hi_ref, 1e-12 * (1.0 + rng)))

    return SolveResult(g_min, left, right, -left, grid_step, g.calls)


def acceptability_index(rho: CoherentRiskMeasure, s: ScoreFunction,
                        X: ScenarioVariable, tol: float = 1e-8) -> float:
    """Reward-to-deviation ratio: -R/D when R < 0 < D; +inf when the
    position is acceptable with zero deviation; 0 otherwise."""
    res = solve(rho, s, X, tol)
    r, d = res.r_value, res.d_value
    if r < 0.0 and d > 0.0:
        return -r / d
    if r <= 0.0 and d == 0.0:
        return math.inf
    return 0.0


def minimax_check(rho: CoherentRiskMeasure, s: ScoreFunction, X: ScenarioVariable,
                  n_extreme_samples: int = 2000, seed: int = 0) -> bool:
    """Check the saddle representation of the deviation for small ES cases.

    D must equal sup over the ES dual polytope of the inner minimum
    min_y E_q[f(X - y)]. The inner minimum is concave in q, so the sup
    need not sit on a polytope vertex: vertices give a lower bound, and a
    dense sample of the polytope (vertices, their random convex mixtures,
    the base measure, and the worst-case measure at the optimum) must
    reproduce D within 5e-3.
    """
    n = X.space.n
    if rho.kind != "es":
        raise DomainError("minimax_check supports ES only")
    if n > 8:
        raise DomainError(f"minimax_check needs n <= 8, got {n}")
    if np.max(np.abs(X.space.p - 1.0 / n)) > 1e-12:
        raise DomainError("minimax_check needs a uniform scenario space")
    k_float = rho.param * n
    k = round(k_float)
    if abs(k_float - k) > 1e-9 or k < 1:
        raise DomainError(f"alpha * n must be a positive integer, got {k_float!r}")

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
    rand = np.random.default_rng(seed)
    half = n_extreme_samples // 2
    for conc in (1.0, 0.3):
        weights = rand.dirichlet(np.full(len(vertices), conc), size=half)
        samples.extend(weights @ vertices)
    sample_best = max(ext_best, max(inner_min(q) for q in samples))

    return d + 1e-8 >= ext_best and abs(d - sample_best) <= 5e-3
