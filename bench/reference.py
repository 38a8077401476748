"""Reference computations the benchmark checks scorerisk's outputs against.

Everything here is written from the definitions and imports nothing from
scorerisk, so a fault in the package cannot hide behind a shared helper.
Scores and risk measures are named by the same spec strings the command
line takes (``pinball:0.3``, ``es:0.1``).

Tolerances follow the accuracy scorerisk promises, not machine precision:
its solvers stop when the bracket on y is narrower than ``tol`` (default
1e-8), so argmin checks allow ``ARG_REL * (1 + range)`` and value checks
``VAL_REL * (1 + |D|)``. A later version that returns exact results still
passes.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

# 100 x the solver's default tol of 1e-8, relative to the data range
ARG_REL = 1e-6
# value error of a y within 1e-8 of a minimizer, for slopes up to 100
VAL_REL = 1e-6
# probability masses are compared with this slack (sums of 1/n in floating point)
MASS_EPS = 1e-12


def parse_spec(text: str) -> tuple[str, float | None]:
    kind, _, param = text.partition(":")
    return kind, (float(param) if param else None)


# -- scores f ------------------------------------------------------------------


def score(spec: str, x) -> np.ndarray:
    """f(x) for the score named by ``spec``, elementwise."""
    kind, a = parse_spec(spec)
    x = np.asarray(x, dtype=float)
    if kind == "squared":
        return x**2
    if kind in ("pinball", "cost"):
        return np.where(x >= 0.0, a * x, (a - 1.0) * x)
    if kind == "absolute":
        return np.abs(x)
    if kind == "huber":
        ax = np.abs(x)
        return np.where(ax <= a, x**2 / (2.0 * a), ax - a / 2.0)
    if kind == "linex":
        return np.expm1(-a * x) + a * x
    if kind == "expectile":
        return np.where(x >= 0.0, a * x**2, (1.0 - a) * x**2)
    if kind == "barron":
        if a == 2.0:
            return x**2 / 2.0
        c = abs(a - 2.0)
        return (c / a) * (np.power(x**2 / c + 1.0, a / 2.0) - 1.0)
    raise ValueError(f"unknown score {spec!r}")


def kink_slopes(spec: str) -> tuple[float, float]:
    """(right slope, left slope magnitude) of a piecewise-linear score."""
    kind, a = parse_spec(spec)
    if kind == "absolute":
        return 1.0, 1.0
    if kind in ("pinball", "cost"):
        return a, 1.0 - a
    raise ValueError(f"{spec!r} is not piecewise linear")


# -- risk measures rho ---------------------------------------------------------


def left_quantile(z: np.ndarray, p: np.ndarray, alpha: float) -> float:
    """inf{x : P(Z <= x) >= alpha}."""
    order = np.argsort(z, kind="stable")
    cum = np.cumsum(p[order])
    k = int(np.searchsorted(cum, alpha - MASS_EPS))
    return float(z[order][min(k, z.size - 1)])


def expectile(z: np.ndarray, p: np.ndarray, alpha: float) -> float:
    """Exact root of alpha E[(Z-e)+] = (1-alpha) E[(e-Z)+].

    The defining function is decreasing and linear between sorted outcomes,
    so it is evaluated at every outcome through cumulative sums and solved
    on the piece where it changes sign.
    """
    order = np.argsort(z, kind="stable")
    zs, ps = z[order], p[order]
    mass_le = np.cumsum(ps)
    sum_le = np.cumsum(ps * zs)
    mass_gt = mass_le[-1] - mass_le
    sum_gt = sum_le[-1] - sum_le
    g = alpha * (sum_gt - zs * mass_gt) - (1.0 - alpha) * (zs * mass_le - sum_le)
    k = int(np.searchsorted(-g, 0.0))  # first outcome with g <= 0
    if k < zs.size and g[k] == 0.0:
        return float(zs[k])
    k -= 1  # root lies in (zs[k], zs[k+1]); outcomes <= zs[k] are below it
    num = alpha * sum_gt[k] + (1.0 - alpha) * sum_le[k]
    den = alpha * mass_gt[k] + (1.0 - alpha) * mass_le[k]
    return float(num / den)


def risk(spec: str, z, p: np.ndarray) -> float:
    """rho(Z) for the coherent risk measure named by ``spec``."""
    kind, a = parse_spec(spec)
    z = np.asarray(z, dtype=float)
    if kind == "el":
        return float(-np.dot(p, z))
    if kind == "ml":
        return float(-z.min())
    if kind == "msd":
        mean = float(np.dot(p, z))
        return -mean + a * math.sqrt(float(np.dot(p, np.maximum(mean - z, 0.0) ** 2)))
    if kind == "es":
        # Acerbi-Tasche: lower tail below the alpha-quantile plus the
        # fraction of the quantile atom needed to fill mass alpha
        q = left_quantile(z, p, a)
        below = z < q
        tail = float(np.dot(p[below], z[below])) + q * (a - float(p[below].sum()))
        return -tail / a
    if kind == "evar":
        return -expectile(z, p, a)
    raise ValueError(f"unknown risk measure {spec!r}")


def objective(rho: str, s: str, x: np.ndarray, p: np.ndarray, y: float) -> float:
    """g(y) = rho(-f(X - y)), the function whose minimum is the deviation."""
    return risk(rho, -score(s, x - y), p)


# -- closed forms --------------------------------------------------------------


def quantile_interval(x: np.ndarray, p: np.ndarray, alpha: float) -> tuple[float, float]:
    """The alpha-quantile interval {y : P(X < y) <= alpha <= P(X <= y)}."""
    vals, inverse = np.unique(x, return_inverse=True)
    mass = np.bincount(inverse, weights=p)
    cum = np.cumsum(mass)
    k = min(int(np.searchsorted(cum, alpha - MASS_EPS)), vals.size - 1)
    if cum[k] <= alpha + MASS_EPS and k + 1 < vals.size:
        return float(vals[k]), float(vals[k + 1])
    return float(vals[k]), float(vals[k])


def closed_form(rho: str, s: str, x: np.ndarray, p: np.ndarray):
    """(argmin_lo, argmin_hi, D) where the paper gives them in closed form,
    else None."""
    rkind, _ = parse_spec(rho)
    skind, a = parse_spec(s)
    if rkind == "el":
        if skind == "squared":
            mean = float(np.dot(p, x))
            return mean, mean, float(np.dot(p, (x - mean) ** 2))
        if skind in ("pinball", "cost", "absolute"):
            lo, hi = quantile_interval(x, p, 0.5 if skind == "absolute" else a)
            return lo, hi, objective(rho, s, x, p, lo)
        if skind == "linex":
            # entropic risk: y* = -(1/gamma) log E exp(-gamma X)
            t = -a * x
            shift = float(t.max())
            y = -(shift + math.log(float(np.dot(p, np.exp(t - shift))))) / a
            return y, y, a * (float(np.dot(p, x)) - y)
        if skind == "expectile":
            y = expectile(x, p, a)
            return y, y, objective(rho, s, x, p, y)
    if rkind == "ml":
        lo, hi = float(x.min()), float(x.max())
        if skind == "absolute":
            return (lo + hi) / 2.0, (lo + hi) / 2.0, (hi - lo) / 2.0
        if skind in ("pinball", "cost"):
            y = a * hi + (1.0 - a) * lo
            return y, y, a * (1.0 - a) * (hi - lo)
        if skind == "squared":
            return (lo + hi) / 2.0, (lo + hi) / 2.0, ((hi - lo) / 2.0) ** 2
    return None


def es_deviation_lp(alpha: float, s: str, x: np.ndarray, p: np.ndarray) -> float:
    """min_y ES_alpha(-f(X - y)) for a piecewise-linear f, as one linear program.

    Rockafellar-Uryasev: ES of the payoff -L is the CVaR of the loss
    L = f(X - y), min_c c + E[(L - c)+] / alpha, and L_i is the larger of
    two linear pieces. Variables (y, c, u_1..u_n), u_i >= L_i - c, u >= 0.
    """
    n = x.size
    right, left = kink_slopes(s)
    c = np.concatenate([[0.0, 1.0], p / alpha])
    ones = np.ones(n)
    # right*(x-y) - c - u <= 0  and  left*(y-x) - c - u <= 0
    yc = np.vstack([
        np.column_stack([-right * ones, -ones]),
        np.column_stack([left * ones, -ones]),
    ])
    eye = sparse.identity(n, format="csr")
    A_ub = sparse.hstack([sparse.csr_matrix(yc), sparse.vstack([-eye, -eye])], format="csr")
    b_ub = np.concatenate([-right * x, left * x])
    bounds = [(None, None), (None, None)] + [(0.0, None)] * n
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError(f"reference ES LP failed: {res.message}")
    return float(res.fun)


def quantile_regression_lp(alpha: float, y: np.ndarray, A: np.ndarray,
                           p: np.ndarray, weights=None) -> float:
    """Koenker-Bassett: min E[alpha u + (1-alpha) v] over mu, beta with
    y - mu - A beta = u - v, u, v >= 0. ``weights`` overrides the
    (alpha, 1-alpha) pair, e.g. (1, 1) for the absolute score."""
    m, k = A.shape
    wpos, wneg = weights if weights is not None else (alpha, 1.0 - alpha)
    c = np.concatenate([np.zeros(1 + k), wpos * p, wneg * p])
    eye = sparse.identity(m, format="csr")
    A_eq = sparse.hstack(
        [sparse.csr_matrix(np.column_stack([np.ones(m), A])), eye, -eye], format="csr"
    )
    bounds = [(None, None)] * (1 + k) + [(0.0, None)] * (2 * m)
    res = linprog(c, A_eq=A_eq, b_eq=y, bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError(f"reference quantile-regression LP failed: {res.message}")
    return float(res.fun)


def chebyshev_regression_lp(y: np.ndarray, A: np.ndarray) -> float:
    """min over mu, beta of max_i |y_i - mu - A_i beta|, as one linear
    program: minimize t with -t <= y - mu - A beta <= t."""
    m, k = A.shape
    design = np.column_stack([np.ones(m), A])
    c = np.concatenate([np.zeros(1 + k), [1.0]])
    ones = np.ones((m, 1))
    A_ub = np.vstack([np.hstack([-design, -ones]), np.hstack([design, -ones])])
    b_ub = np.concatenate([-y, y])
    bounds = [(None, None)] * (1 + k) + [(0.0, None)]
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError(f"reference Chebyshev-regression LP failed: {res.message}")
    return float(res.fun)


def weighted_lstsq(y: np.ndarray, A: np.ndarray, p: np.ndarray) -> np.ndarray:
    """(mu, beta) of the p-weighted least-squares fit, via numpy.linalg.lstsq."""
    full = np.column_stack([np.ones(y.size), A])
    w = np.sqrt(p)
    return np.linalg.lstsq(full * w[:, None], y * w, rcond=None)[0]


def min_variance_weights(V: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Sigma^-1 1 / 1' Sigma^-1 1 for the p-weighted covariance of the columns."""
    mean = p @ V
    centred = V - mean
    cov = centred.T @ (p[:, None] * centred)
    raw = np.linalg.solve(cov, np.ones(V.shape[1]))
    return raw / raw.sum()


def golden_min(g, a: float, b: float, width: float) -> tuple[float, float]:
    """(y, g(y)) at a minimum of convex g on [a, b], by golden-section search."""
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - inv * (b - a), a + inv * (b - a)
    gc, gd = g(c), g(d)
    while b - a > width:
        if gc <= gd:
            b, d, gd = d, c, gc
            c = b - inv * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, d, gd
            d = a + inv * (b - a)
            gd = g(d)
    return (c, gc) if gc <= gd else (d, gd)


def deviation(rho: str, s: str, x: np.ndarray, p: np.ndarray) -> tuple[float, float]:
    """(a minimizer, D) by golden-section search on the padded outcome range."""
    lo, hi = float(x.min()), float(x.max())
    span = hi - lo
    return golden_min(
        lambda y: objective(rho, s, x, p, y), lo - 0.1 * span, hi + 0.1 * span,
        1e-10 * (1.0 + span),
    )
