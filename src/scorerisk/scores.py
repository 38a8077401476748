"""Catalog of scoring functions S(x, y) = f(x - y).

Each entry exposes the value, exact one-sided derivatives in the forecast
argument y, and conservative property flags that gate which solver and
regression code paths may be used:

- ``positively_homogeneous``: f(lam * x) = lam * f(x) for lam >= 0.
- ``smooth_strictly_convex``: y -> S(x, y) is differentiable with strictly
  increasing derivative (uniqueness of the minimizer follows).
- ``derivative_convex``: f' is a convex function (gates convexity of the
  induced risk measure).

Derivatives are closed form per piece; no numerical differentiation here,
so first-order-condition checks at kinks are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError

_SPEC_HELP = (
    "squared | pinball:<alpha> | absolute | huber:<beta> | linex:<gamma> | "
    "expectile:<alpha> | barron:<shape> | cost:<G>"
)


@dataclass(frozen=True)
class ScoreFunction:
    """One scoring function f with S(x, y) = f(x - y)."""

    kind: str
    param: float | None
    positively_homogeneous: bool
    smooth_strictly_convex: bool
    derivative_convex: bool

    # -- constructors ------------------------------------------------------

    @staticmethod
    def squared() -> "ScoreFunction":
        return ScoreFunction("squared", None, False, True, True)

    @staticmethod
    def pinball(alpha: float) -> "ScoreFunction":
        if not (0.0 < alpha < 1.0):
            raise DomainError(f"pinball alpha must be in (0,1), got {alpha!r}")
        return ScoreFunction("pinball", float(alpha), True, False, False)

    @staticmethod
    def absolute() -> "ScoreFunction":
        return ScoreFunction("absolute", None, True, False, False)

    @staticmethod
    def huber(beta: float) -> "ScoreFunction":
        if not beta > 0.0:
            raise DomainError(f"huber beta must be > 0, got {beta!r}")
        # smooth flag deliberately false: the derivative is constant outside
        # [-beta, beta], so strict-convexity arguments do not apply
        return ScoreFunction("huber", float(beta), False, False, False)

    @staticmethod
    def linex(gamma: float) -> "ScoreFunction":
        if not gamma > 0.0:
            raise DomainError(f"linex gamma must be > 0, got {gamma!r}")
        return ScoreFunction("linex", float(gamma), False, True, True)

    @staticmethod
    def expectile(alpha: float) -> "ScoreFunction":
        if not (0.0 < alpha < 1.0):
            raise DomainError(f"expectile alpha must be in (0,1), got {alpha!r}")
        # f'(x) = 2 alpha x+ - 2 (1-alpha) (-x)+ is piecewise linear with
        # slopes (2(1-alpha), 2 alpha); convex exactly when alpha >= 0.5
        return ScoreFunction("expectile", float(alpha), False, True, alpha >= 0.5)

    @staticmethod
    def barron(shape: float) -> "ScoreFunction":
        if not shape >= 1.0:
            raise DomainError(
                f"barron shape must be >= 1 for convexity, got {shape!r}"
            )
        return ScoreFunction("barron", float(shape), False, shape > 1.0, False)

    @staticmethod
    def cost(g: float) -> "ScoreFunction":
        if not (0.0 < g < 1.0):
            raise DomainError(f"cost G must be in (0,1), got {g!r}")
        return ScoreFunction("cost", float(g), True, False, False)

    @staticmethod
    def parse(text: str) -> "ScoreFunction":
        """Build from a CLI/config string, e.g. ``pinball:0.05``."""
        parts = text.strip().lower().split(":")
        kind = parts[0]
        makers = {
            "squared": ScoreFunction.squared,
            "pinball": ScoreFunction.pinball,
            "absolute": ScoreFunction.absolute,
            "huber": ScoreFunction.huber,
            "linex": ScoreFunction.linex,
            "expectile": ScoreFunction.expectile,
            "barron": ScoreFunction.barron,
            "cost": ScoreFunction.cost,
        }
        if kind not in makers:
            raise ValidationError(f"unknown score {text!r}; expected {_SPEC_HELP}")
        maker = makers[kind]
        takes_param = kind not in ("squared", "absolute")
        if takes_param:
            if len(parts) != 2:
                raise ValidationError(f"score {kind!r} needs one parameter: {_SPEC_HELP}")
            try:
                param = float(parts[1])
            except ValueError:
                raise ValidationError(f"bad score parameter in {text!r}") from None
            return maker(param)
        if len(parts) != 1:
            raise ValidationError(f"score {kind!r} takes no parameter")
        return maker()

    def spec_string(self) -> str:
        if self.param is None:
            return self.kind
        return f"{self.kind}:{self.param:g}"

    @property
    def differentiable(self) -> bool:
        """True when f' is continuous (one-sided derivatives agree
        everywhere); independent of strict convexity — huber and the
        barron family are differentiable but flat or linear in places."""
        return self.kind not in ("pinball", "cost", "absolute")

    # -- evaluation --------------------------------------------------------

    def f(self, x):
        """The shift function f; vectorized over x."""
        x = np.asarray(x, dtype=float)
        k, a = self.kind, self.param
        if k == "squared":
            return x * x
        if k in ("pinball", "cost"):
            return a * np.maximum(x, 0.0) + (1.0 - a) * np.maximum(-x, 0.0)
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
