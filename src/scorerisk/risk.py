"""Coherent risk measures on finite scenario spaces.

Five kinds: expected loss (el), expected shortfall (es), expectile value
at risk (evar), mean plus semi-deviation (msd), and maximum loss (ml).
Each evaluates exactly on the finite space through one kernel per
measure: sort-free sums for el, msd and ml, for es a lower tail selected
in O(n) and sorted alone, and for evar an exact expectile root of a row
by Newton's iteration, a few O(n) reweighted means with no sort. Each also
gives a payoff subgradient: rho is positively homogeneous, so
rho(Z) = grad . Z, and the negated subgradient is a worst-case
reweighting attaining the dual representation rho(Z) = max_q E_q[-Z].
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .spaces import MeasureWeights, ScenarioVariable
from .spec import Spec

# below this root mean square, some of the squares summed are subnormal
_RMS_FLOOR = 1e-150
# from this many outcomes numpy's default sort, then a pass over ties, beats its stable sort
_SORT_THEN_TIES = 2048


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


def _stable_argsort(V: np.ndarray) -> np.ndarray:
    """Row-wise argsort of V, ties in index order, as numpy's stable sort.

    Long rows take the default sort, and only where adjacent sorted values
    tie is their order redone: each entry's run of equal values, then its
    index, sort as one integer key.
    """
    n = V.shape[1]
    if n < _SORT_THEN_TIES:
        return np.argsort(V, axis=1, kind="stable")
    order = np.argsort(V, axis=1)
    ranked = np.take_along_axis(V, order, axis=1)
    if np.isnan(ranked[:, -1]).any():  # nan sort last, but unequal to each other
        return np.argsort(V, axis=1, kind="stable")
    tie = ranked[:, 1:] == ranked[:, :-1]
    if not tie.any():
        return order
    run = np.zeros_like(order)
    np.cumsum(~tie, axis=1, out=run[:, 1:])
    key = run * n + order
    key.sort(axis=1)
    return key % n


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
        order = candidates[rows, _stable_argsort(Z[rows, candidates])]
        ps = p[order]
        cum = np.cumsum(ps, axis=1)
        if np.all(cum[:, -1] >= alpha + 2.0 * np.finfo(float).eps):
            return order, np.clip(alpha - (cum - ps), 0.0, ps)
        c *= 2
    order = _stable_argsort(Z)
    ps = p[order]
    return order, np.clip(alpha - (np.cumsum(ps, axis=1) - ps), 0.0, ps)


def _scaled_rms(U: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Row-wise sqrt(E[u^2]) of U >= 0, each row divided by its largest
    entry before squaring: msd's semideviation where u * u overflows, or
    underflows to below _RMS_FLOOR squared (to 0 for data near 1e-300)."""
    top = U.max(axis=1)
    return top * np.sqrt((U / np.where(top > 0.0, top, 1.0)[:, None]) ** 2 @ p)


def _expectile_root(z: np.ndarray, p: np.ndarray, alpha: float) -> float:
    """Root e of g(e) = alpha E[(Z-e)+] - (1-alpha) E[(e-Z)+] for one row z.

    g(e) = E[w (Z-e)] with weights w of 1-alpha below e and alpha at or
    above it, so on each piece between outcomes its root is the reweighted
    mean E[w Z] / E[w]. Newton's iteration steps to that mean for the piece
    it stands on, from e = E[Z]: for alpha <= 1/2, g is concave and
    decreasing with g(E[Z]) <= 0, so the iterates fall monotonically onto
    the root's piece, whose mean is the root, exact to roundoff (downstream
    difference quotients divide by tiny steps and would amplify any fixed
    root tolerance). An outcome only ever leaves the set below, so it
    stops, at the first iterate that does not fall, within n + 1 steps of
    one comparison and two dot products each, with no sort.
    """
    pz = z * p
    e = float(pz.sum())  # E[Z]
    # E[w Z] = alpha E[Z] + (1 - 2 alpha) E[Z; Z < e], and E[w] likewise
    shift, base, base_mass = 1.0 - 2.0 * alpha, alpha * e, alpha * float(p.sum())
    below = np.empty_like(z)
    while True:
        np.less(z, e, out=below)
        mass_below = float(np.dot(below, p))
        step = (base + shift * float(np.dot(below, pz))) / (base_mass + shift * mass_below)
        # with no mass below, the step is E[Z] >= e unless alpha E[Z] underflows
        if not (step < e and mass_below > 0.0):
            return e
        e = step


def _expectile_roots(Z: np.ndarray, p: np.ndarray, alpha: float) -> np.ndarray:
    """`_expectile_root` of each row of Z to the bit, its steps taken on all
    rows at once: a loop over the grid oracle's rows took 17 times as long."""
    pz = Z * p
    e = pz.sum(axis=1)
    shift, base, base_mass = 1.0 - 2.0 * alpha, alpha * e, alpha * float(p.sum())
    below = np.empty_like(Z)
    while True:
        np.less(Z, e[:, None], out=below)
        # stacked one-row products sum as np.dot does, where below @ p may not
        mass_below = np.matmul(below[:, None, :], p[:, None])[:, 0, 0]
        step = ((base + shift * np.matmul(below[:, None, :], pz[:, :, None])[:, 0, 0])
                / (base_mass + shift * mass_below))
        fell = (step < e) & (mass_below > 0.0)
        if not fell.any():
            return e
        e = np.where(fell, step, e)


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
        return -_expectile_roots(Z, p, a)
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
        # two n-sized buffers, reused in place: more live temporaries made
        # glibc trim the heap after each call and fault it back on the next
        mean = float(np.dot(p, z))
        u = np.subtract(mean, z)
        np.maximum(u, 0.0, out=u)
        with np.errstate(over="ignore"):
            grad = np.multiply(u, u)
            s = float(np.sqrt(np.dot(p, grad)))
        if not _RMS_FLOOR <= s < math.inf:
            s = float(_scaled_rms(u[None, :], p)[0])
        if s == 0.0:
            return -p
        # -p + a p (E[u] - u) / s, rounded as written (x - p is -p + x exactly)
        np.multiply(a, p, out=grad)
        grad *= np.subtract(float(np.dot(p, u)), u, out=u)
        grad /= s
        grad -= p
        return grad
    if kind == "evar":
        e = _expectile_root(z, p, a)
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
