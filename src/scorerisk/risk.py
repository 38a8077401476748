"""Coherent risk measures on finite scenario spaces.

Five kinds: expected loss (el), expected shortfall (es), expectile value
at risk (evar), mean plus semi-deviation (msd), and maximum loss (ml).
Each evaluates exactly on the finite space through one kernel per
measure: sort-free sums for el, msd and ml, for es a lower tail selected
in O(n) and sorted alone, and an exact expectile root from one sort for
evar. Each also gives a payoff subgradient: rho is positively
homogeneous, so rho(Z) = grad . Z, and the negated subgradient is a
worst-case reweighting attaining the dual representation
rho(Z) = max_q E_q[-Z].
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .spaces import MeasureWeights, ScenarioVariable
from .spec import Spec

# below this root mean square, some of the squares summed are subnormal
_RMS_FLOOR = 1e-150


class CoherentRiskMeasure(Spec):
    GRAMMAR = "el | es:<alpha> | evar:<alpha> | msd:<beta> | ml"
    NOUN = "risk measure"

    @staticmethod
    def el() -> "CoherentRiskMeasure":
        return CoherentRiskMeasure("el", None)

    @staticmethod
    def es(alpha: float) -> "CoherentRiskMeasure":
        if not (0.0 < alpha < 1.0):
            raise DomainError(f"es alpha must be in (0,1), got {alpha!r}")
        return CoherentRiskMeasure("es", float(alpha))

    @staticmethod
    def evar(alpha: float) -> "CoherentRiskMeasure":
        # coherence requires alpha <= 0.5
        if not (0.0 < alpha <= 0.5):
            raise DomainError(f"evar alpha must be in (0,0.5], got {alpha!r}")
        return CoherentRiskMeasure("evar", float(alpha))

    @staticmethod
    def msd(beta: float) -> "CoherentRiskMeasure":
        if not (0.0 <= beta <= 1.0):
            raise DomainError(f"msd beta must be in [0,1], got {beta!r}")
        return CoherentRiskMeasure("msd", float(beta))

    @staticmethod
    def ml() -> "CoherentRiskMeasure":
        return CoherentRiskMeasure("ml", None)


def _sorted_tail(Z: np.ndarray, p: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """The leading entries of each row's stable order of Z, enough to hold
    its lower alpha-tail, and each one's mass clipped to that tail.

    Ties break by index, so the fractional boundary atom is deterministic;
    each row of masses sums to alpha. Both are bit-identical to the first
    entries of a full stable sort, but only the outcomes up to the c-th
    smallest value, all its ties included, are sorted, picked in O(n).
    They are enough once they carry mass alpha + 2 eps: every later
    running sum less its own outcome then rounds to at least alpha, so
    every later mass is 0. Otherwise c doubles, and from n/2 on the whole
    row is sorted, as is a batch whose rows tie at their c-th smallest.
    """
    m, n = Z.shape
    c = math.ceil(alpha * n) + 1  # one outcome past the tail when p is uniform
    while 2 * c < n:
        kth = np.partition(Z, c - 1, axis=1)[:, c - 1 : c]
        picked = np.flatnonzero(Z <= kth)
        if np.isnan(kth).any() or m > 1 and picked.size > c * m:
            break  # nan among the c smallest, or rows tied at kth, of unequal lengths
        rows = np.arange(m)[:, None]
        candidates = picked.reshape(m, -1) - n * rows
        order = candidates[rows, np.argsort(Z[rows, candidates], axis=1, kind="stable")]
        ps = p[order]
        cum = np.cumsum(ps, axis=1)
        if np.all(cum[:, -1] >= alpha + 2.0 * np.finfo(float).eps):
            return order, np.clip(alpha - (cum - ps), 0.0, ps)
        c *= 2
    order = np.argsort(Z, axis=1, kind="stable")
    ps = p[order]
    return order, np.clip(alpha - (np.cumsum(ps, axis=1) - ps), 0.0, ps)


def _scaled_rms(U: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Row-wise sqrt(E[u^2]) of U >= 0, each row divided by its largest
    entry before squaring: msd's semideviation where u * u overflows, or
    underflows to below _RMS_FLOOR squared (to 0 for data near 1e-300)."""
    top = U.max(axis=1)
    return top * np.sqrt((U / np.where(top > 0.0, top, 1.0)[:, None]) ** 2 @ p)


def _expectile_root(Z: np.ndarray, p: np.ndarray, alpha: float) -> np.ndarray:
    """Row-wise root x of g(x) = alpha E[(Z-x)+] - (1-alpha) E[(x-Z)+].

    g is strictly decreasing and linear between sorted outcomes. Its values
    at the outcomes, from two cumulative sums, pick the piece where it
    changes sign; there the root is the mean of Z reweighted by alpha above
    and 1-alpha below, exact to roundoff (downstream difference quotients
    divide by tiny steps and would amplify any fixed root tolerance).
    """
    order = np.argsort(Z, axis=1)
    zs = np.take_along_axis(Z, order, axis=1)
    ps = p[order]
    first = np.cumsum(ps * zs, axis=1)
    # at x = zs_k: E[(x-Z)+] = x P(Z <= x) - E[Z; Z <= x] and
    # E[(Z-x)+] = E[Z] - x + E[(x-Z)+]
    shortfall = zs * np.cumsum(ps, axis=1) - first
    g = alpha * (first[:, -1:] - zs) - (1.0 - 2.0 * alpha) * shortfall
    below = np.arange(zs.shape[1]) < (g > 0.0).sum(axis=1)[:, None]
    w = ps * np.where(below, 1.0 - alpha, alpha)
    return (w * zs).sum(axis=1) / w.sum(axis=1)


def evaluate(rho: CoherentRiskMeasure, Z: ScenarioVariable) -> float:
    return float(evaluate_batch(rho, Z.values[None, :], Z.space.p)[0])


def evaluate_batch(rho: CoherentRiskMeasure, Z: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Evaluate rho row-wise on a (m, n) matrix of scenario payoffs.

    Row k is treated as one ScenarioVariable on the space with
    probabilities p. `evaluate` is row 0 of this; the grid oracle passes
    many rows at once, where per-row construction would dominate runtime.
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    kind, a = rho.kind, rho.param
    if kind == "el":
        return -(Z @ p)
    if kind == "ml":
        return -Z.min(axis=1)
    if kind == "msd":
        mean = Z @ p
        with np.errstate(over="ignore"):
            semi = np.sqrt(np.maximum(mean[:, None] - Z, 0.0) ** 2 @ p)
        off = ~(semi >= _RMS_FLOOR) | (semi == math.inf)
        if off.any():
            semi[off] = _scaled_rms(np.maximum(mean[off, None] - Z[off], 0.0), p)
        return -mean + a * semi
    if kind == "es":
        order, w = _sorted_tail(Z, p, a)
        return -(w * np.take_along_axis(Z, order, axis=1)).sum(axis=1) / a
    if kind == "evar":
        return -_expectile_root(Z, p, a)
    raise AssertionError(f"unreachable kind {kind!r}")


def payoff_gradient(rho: CoherentRiskMeasure, z: np.ndarray, p: np.ndarray) -> np.ndarray:
    """A subgradient of Z -> rho(Z) at the payoff vector z.

    Its negation is a worst-case reweighting q, so its entries are <= 0
    and sum to -1 (translation invariance), and rho(z) = grad . z (Euler's
    identity for a positively homogeneous rho): the solver and the fits
    take both the value and the exact first-order slopes from this one
    call, where difference quotients would lose precision to
    cancellation. For evar, outcomes tied with the expectile weigh as
    those above it, which keeps q in the dual set.
    """
    kind, a = rho.kind, rho.param
    if kind == "el":
        return -p
    if kind == "ml":
        grad = np.zeros_like(p)
        grad[int(np.argmin(z))] = -1.0
        return grad
    if kind == "es":
        order, tail = _sorted_tail(z[None, :], p, a)
        w = np.zeros_like(p)
        w[order[0]] = tail[0]
        return -w / a
    if kind == "msd":
        mean = float(np.dot(p, z))
        u = np.maximum(mean - z, 0.0)
        with np.errstate(over="ignore"):
            s = float(np.sqrt(np.dot(p, u * u)))
        if not _RMS_FLOOR <= s < math.inf:
            s = float(_scaled_rms(u[None, :], p)[0])
        if s == 0.0:
            return -p
        return -p + a * p * (float(np.dot(p, u)) - u) / s
    if kind == "evar":
        e = _expectile_root(z[None, :], p, a)[0]
        weight = np.where(z < e, 1.0 - a, a)
        return -p * weight / float(np.dot(p, weight))
    raise AssertionError(f"unreachable kind {kind!r}")


def dual_maximizer(rho: CoherentRiskMeasure, Z: ScenarioVariable) -> MeasureWeights:
    """A reweighting q in the dual set with E_q[-Z] = evaluate(rho, Z):
    the negated payoff gradient. For el q = p; for es the lower-tail
    density 1/alpha with a fractional boundary atom; for ml a point mass
    on the lowest-index minimum; for evar p reweighted by 1 - alpha below
    the expectile and alpha elsewhere; for msd p (1 + beta (u - E u) / s),
    with u the shortfall below the mean and s its root mean square (p
    where s is 0).
    """
    return MeasureWeights(-payoff_gradient(rho, Z.values, Z.space.p))
