"""Catalog of scoring functions S(x, y) = f(x - y).

A score is its kind and parameter. Each exposes the value, exact
one-sided derivatives in the forecast argument y, and conservative
property flags, derived from (kind, param) rather than stored:

- ``positively_homogeneous``: f(lam * x) = lam * f(x) for lam >= 0.
- ``smooth_strictly_convex``: y -> S(x, y) is differentiable with strictly
  increasing derivative (uniqueness of the minimizer follows).
- ``derivative_convex``: f' is a convex function (convexity of the
  induced risk measure follows).

Only ``smooth_strictly_convex`` selects code: it gives `solve` its strict
search, which stops at the one minimizer. The other two flags describe
the score; every regression, portfolio and hedge accepts every score.

Derivatives are closed form per piece; no numerical differentiation here,
so first-order-condition checks at kinks are exact.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .spec import Spec

_KINKED = ("pinball", "absolute", "cost")  # f is kinked at 0 and linear on each side


class ScoreFunction(Spec):
    """One scoring function f with S(x, y) = f(x - y)."""

    GRAMMAR = ("squared | pinball:<alpha> | absolute | huber:<beta> | linex:<gamma> | "
               "expectile:<alpha> | barron:<shape> | cost:<G>")
    NOUN = "score"

    # -- constructors ------------------------------------------------------

    @staticmethod
    def squared() -> "ScoreFunction":
        return ScoreFunction("squared", None)

    @staticmethod
    def pinball(alpha: float) -> "ScoreFunction":
        if not (0.0 < alpha < 1.0):
            raise DomainError(f"pinball alpha must be in (0,1), got {alpha!r}")
        return ScoreFunction("pinball", float(alpha))

    @staticmethod
    def absolute() -> "ScoreFunction":
        return ScoreFunction("absolute", None)

    @staticmethod
    def huber(beta: float) -> "ScoreFunction":
        if not 0.0 < beta < math.inf:
            raise DomainError(f"huber beta must be > 0 and finite, got {beta!r}")
        return ScoreFunction("huber", float(beta))

    @staticmethod
    def linex(gamma: float) -> "ScoreFunction":
        if not 0.0 < gamma < math.inf:
            raise DomainError(f"linex gamma must be > 0 and finite, got {gamma!r}")
        return ScoreFunction("linex", float(gamma))

    @staticmethod
    def expectile(alpha: float) -> "ScoreFunction":
        if not (0.0 < alpha < 1.0):
            raise DomainError(f"expectile alpha must be in (0,1), got {alpha!r}")
        return ScoreFunction("expectile", float(alpha))

    @staticmethod
    def barron(shape: float) -> "ScoreFunction":
        if not 1.0 <= shape < math.inf:
            raise DomainError(f"barron shape must be >= 1 and finite, got {shape!r}")
        return ScoreFunction("barron", float(shape))

    @staticmethod
    def cost(g: float) -> "ScoreFunction":
        if not (0.0 < g < 1.0):
            raise DomainError(f"cost G must be in (0,1), got {g!r}")
        return ScoreFunction("cost", float(g))

    # -- property flags ----------------------------------------------------

    @property
    def positively_homogeneous(self) -> bool:
        return self.kind in _KINKED

    @property
    def smooth_strictly_convex(self) -> bool:
        # false for huber, whose f' is constant outside [-beta, beta], and
        # for barron:1, whose curvature vanishes as |x| grows
        return self.kind in ("squared", "linex", "expectile") or (
            self.kind == "barron" and self.param > 1.0)

    @property
    def derivative_convex(self) -> bool:
        # expectile's f' is piecewise linear with slopes (2(1-alpha), 2 alpha)
        return self.kind in ("squared", "linex") or (
            self.kind == "expectile" and self.param >= 0.5)

    @property
    def differentiable(self) -> bool:
        """True when f' is continuous (one-sided derivatives agree
        everywhere); independent of strict convexity — huber and the
        barron family are differentiable but flat or linear in places."""
        return self.kind not in _KINKED

    # -- evaluation --------------------------------------------------------

    def f(self, x):
        """The shift function f; vectorized over x."""
        x = np.asarray(x, dtype=float)
        k, a = self.kind, self.param
        if k == "squared":
            return x * x
        if k in ("pinball", "cost"):
            # of two zeros numpy's maximum returns the second: f(+0.0) = +0.0,
            # and f(-0.0) = -0.0, which every kernel compares equal to 0
            return np.maximum((a - 1.0) * x, a * x)
        if k == "absolute":
            return np.abs(x)
        if k == "huber":
            return np.where(np.abs(x) >= a, np.abs(x) - a / 2.0, x * x / (2.0 * a))
        if k == "linex":
            return np.exp(-a * x) + a * x - 1.0
        if k == "expectile":
            return a * np.maximum(x, 0.0) ** 2 + (1.0 - a) * np.maximum(-x, 0.0) ** 2
        if k == "barron":
            if a == 2.0:
                return x * x / 2.0
            c = abs(a - 2.0)
            return (c / a) * ((x * x / c + 1.0) ** (a / 2.0) - 1.0)
        raise AssertionError(f"unreachable kind {k!r}")

    def fprime_right(self, x):
        """Right derivative of f; vectorized."""
        x = np.asarray(x, dtype=float)
        k, a = self.kind, self.param
        if k == "squared":
            return 2.0 * x
        if k in ("pinball", "cost"):
            return np.where(x >= 0.0, a, -(1.0 - a))
        if k == "absolute":
            return np.where(x >= 0.0, 1.0, -1.0)
        if k == "huber":
            return np.clip(x / a, -1.0, 1.0)
        if k == "linex":
            return -a * np.exp(-a * x) + a
        if k == "expectile":
            return np.where(x >= 0.0, 2.0 * a * x, 2.0 * (1.0 - a) * x)
        if k == "barron":
            if a == 2.0:
                return x
            c = abs(a - 2.0)
            return x * (x * x / c + 1.0) ** (a / 2.0 - 1.0)
        raise AssertionError(f"unreachable kind {k!r}")

    def fprime_left(self, x):
        """Left derivative of f; vectorized."""
        x = np.asarray(x, dtype=float)
        k, a = self.kind, self.param
        if k in ("pinball", "cost"):
            return np.where(x > 0.0, a, -(1.0 - a))
        if k == "absolute":
            return np.where(x > 0.0, 1.0, -1.0)
        # remaining kinds are differentiable everywhere
        return self.fprime_right(x)


def _check_finite_pair(x: float, y: float) -> None:
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DomainError(f"score arguments must be finite, got ({x!r}, {y!r})")


def evaluate(s: ScoreFunction, x: float, y: float) -> float:
    """S(x, y) = f(x - y) >= 0, zero exactly when x == y."""
    _check_finite_pair(x, y)
    return float(s.f(x - y))


def dplus_y(s: ScoreFunction, x: float, y: float) -> float:
    """Right derivative of y -> S(x, y); equals -f'_left(x - y)."""
    _check_finite_pair(x, y)
    return float(-s.fprime_left(x - y))


def dminus_y(s: ScoreFunction, x: float, y: float) -> float:
    """Left derivative of y -> S(x, y); equals -f'_right(x - y)."""
    _check_finite_pair(x, y)
    return float(-s.fprime_right(x - y))
