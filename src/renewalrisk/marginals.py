"""Univariate claim-size and inter-arrival distributions.

Provides the parametric families used throughout the model (shifted Pareto,
heavy-tailed Weibull, exponential, a point mass, and the piecewise-linear
density from :mod:`renewalrisk.counterexample`) and the local-window
probabilities F(x, x+d].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LocalWindow",
    "Marginal",
    "Pareto",
    "Weibull",
    "Exponential",
    "Deterministic",
    "local_prob",
    "scaled_local_prob",
]


@dataclass(frozen=True)
class LocalWindow:
    """Half-open interval (x, x+d] of finite width d > 0."""

    x: float
    d: float

    def __post_init__(self):
        if self.x < 0:
            raise ValueError(f"window left endpoint must be >= 0, got {self.x}")
        if not 0 < self.d < math.inf:
            raise ValueError(f"window width must be finite and > 0, got {self.d}")


class Marginal:
    """Base class for distributions supported on [0, infinity)."""

    def cdf(self, x):
        raise NotImplementedError

    def quantile(self, p):
        """Left-continuous inverse inf{x : F(x) >= p}, p in [0, 1)."""
        raise NotImplementedError

    def sf(self, x):
        """Survival 1 - F(x); overridden where a direct form avoids rounding."""
        return 1.0 - self.cdf(x)

    def _check_p(self, p):
        p = np.asarray(p, dtype=float)
        if p.size and not (p.min() >= 0.0 and p.max() < 1.0):  # NaN fails too: min and max keep it
            raise ValueError("quantile argument must lie in [0, 1)")
        return p


class _CumulativeHazard(Marginal):
    """F(x) = 1 - exp(-H(x)); a family gives H on [0, inf) as ``_hazard`` and its inverse as ``_inv_hazard``.

    ``_inv_hazard`` writes over its argument, a buffer of ``quantile``'s own.
    """

    def cdf(self, x):
        return -np.expm1(-self._hazard(np.maximum(np.asarray(x, dtype=float), 0.0)))[()]

    def sf(self, x):
        """exp(-H(x)), taken directly, so it keeps relative accuracy where F(x) rounds to 1."""
        return np.exp(-self._hazard(np.maximum(np.asarray(x, dtype=float), 0.0)))[()]

    def quantile(self, p):
        p = self._check_p(p)
        y = np.negative(p, out=np.empty(p.shape))
        np.log1p(y, out=y)
        with np.errstate(over="ignore"):  # a quantile past the double range reads inf
            return self._inv_hazard(np.negative(y, out=y))[()]


@dataclass(frozen=True)
class Pareto(_CumulativeHazard):
    """Shifted Pareto with F(x) = 1 - (1+x)^(-alpha) on [0, inf)."""

    alpha: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")

    def _hazard(self, x):
        return self.alpha * np.log1p(x)

    def _inv_hazard(self, y):
        y /= self.alpha
        return np.expm1(y, out=y)


@dataclass(frozen=True)
class Weibull(_CumulativeHazard):
    """Weibull with F(x) = 1 - exp(-(x/scale)^shape); heavy-tailed for shape < 1."""

    shape: float
    scale: float = 1.0

    def __post_init__(self):
        if not (self.shape > 0 and self.scale > 0):
            raise ValueError("Weibull shape and scale must be > 0")

    def _hazard(self, x):
        return np.power(x / self.scale, self.shape)

    def _inv_hazard(self, y):
        np.power(y, 1.0 / self.shape, out=y)
        y *= self.scale
        return y


@dataclass(frozen=True)
class Exponential(_CumulativeHazard):
    rate: float

    def __post_init__(self):
        if not self.rate > 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")

    def _hazard(self, x):
        return self.rate * x

    def _inv_hazard(self, y):
        y /= self.rate
        return y


@dataclass(frozen=True)
class Deterministic(Marginal):
    """Point mass at ``value``."""

    value: float

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("point mass must sit in [0, inf)")

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= self.value, 1.0, 0.0)[()]

    def quantile(self, p):
        p = self._check_p(p)
        return np.full_like(p, self.value)[()]


def local_prob(dist: Marginal, w: LocalWindow):
    """F(x, x+d] = F(x+d) - F(x).

    Computed as a difference of survival values so the result keeps
    relative accuracy deep in the tail, where both CDF values round to 1.
    """
    return dist.sf(w.x) - dist.sf(w.x + w.d)


def scaled_local_prob(dist: Marginal, w: LocalWindow, r: float, u) -> float | np.ndarray:
    """P(X e^{-r u} in (x, x+d]) = F((x+d) e^{r u}) - F(x e^{r u}): a float for scalar u, else an array of u's shape."""
    if r < 0:
        raise ValueError("force of interest r must be >= 0")
    u = np.asarray(u, dtype=float)
    if np.any(u < 0):
        raise ValueError("elapsed time u must be >= 0")
    with np.errstate(over="raise"):
        try:
            scale = np.exp(r * u)
        except FloatingPointError as exc:
            raise OverflowError(f"e^(r*u) overflows for r={r}") from exc
    # one end at a time, each freed once read, so at most four arrays of u's
    # shape are alive at once
    low_end = w.x * scale
    scale *= w.x + w.d  # now the upper end
    sf_low = np.asarray(dist.sf(low_end))
    del low_end
    sf_high = dist.sf(scale)
    del scale
    return (sf_low - sf_high)[()]
