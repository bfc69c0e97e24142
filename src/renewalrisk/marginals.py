"""Univariate claim-size and inter-arrival distributions.

Provides the parametric families used throughout the model (shifted Pareto,
heavy-tailed Weibull, exponential, a point mass, and the piecewise-linear
density from :mod:`renewalrisk.counterexample`), local-window probabilities
F(x, x+d], and grid diagnostics for local long-tailedness and almost
decrease of the local distribution.
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
    "lloc_ratio_diagnostic",
    "almost_decreasing_constant",
]


@dataclass(frozen=True)
class LocalWindow:
    """Half-open interval (x, x+d]; d may be ``math.inf`` for the tail."""

    x: float
    d: float

    def __post_init__(self):
        if self.x < 0:
            raise ValueError(f"window left endpoint must be >= 0, got {self.x}")
        if not self.d > 0:
            raise ValueError(f"window width must be > 0, got {self.d}")


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

    def sample(self, rng, n: int) -> np.ndarray:
        return self.quantile(rng.random(n))

    def _check_p(self, p):
        p = np.asarray(p, dtype=float)
        if not np.all((p >= 0.0) & (p < 1.0)):  # written so that NaN fails too
            raise ValueError("quantile argument must lie in [0, 1)")
        return p


@dataclass(frozen=True)
class Pareto(Marginal):
    """Shifted Pareto with F(x) = 1 - (1+x)^(-alpha) on [0, inf)."""

    alpha: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = -np.expm1(-self.alpha * np.log1p(np.maximum(x, 0.0)))
        return np.where(x < 0, 0.0, out)[()]

    def quantile(self, p):
        p = self._check_p(p)
        return np.expm1(-np.log1p(-p) / self.alpha)[()]

    def sf(self, x):
        x = np.asarray(x, dtype=float)
        return np.exp(-self.alpha * np.log1p(np.maximum(x, 0.0)))[()]


@dataclass(frozen=True)
class Weibull(Marginal):
    """Weibull with F(x) = 1 - exp(-(x/scale)^shape); heavy-tailed for shape < 1."""

    shape: float
    scale: float = 1.0

    def __post_init__(self):
        if not (self.shape > 0 and self.scale > 0):
            raise ValueError("Weibull shape and scale must be > 0")

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = -np.expm1(-np.power(np.maximum(x, 0.0) / self.scale, self.shape))
        return np.where(x < 0, 0.0, out)[()]

    def quantile(self, p):
        p = self._check_p(p)
        return (self.scale * np.power(-np.log1p(-p), 1.0 / self.shape))[()]

    def sf(self, x):
        x = np.asarray(x, dtype=float)
        return np.exp(-np.power(np.maximum(x, 0.0) / self.scale, self.shape))[()]


@dataclass(frozen=True)
class Exponential(Marginal):
    rate: float

    def __post_init__(self):
        if not self.rate > 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = -np.expm1(-self.rate * np.maximum(x, 0.0))
        return np.where(x < 0, 0.0, out)[()]

    def quantile(self, p):
        p = self._check_p(p)
        return (-np.log1p(-p) / self.rate)[()]

    def sf(self, x):
        x = np.asarray(x, dtype=float)
        return np.exp(-self.rate * np.maximum(x, 0.0))[()]


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

    def sample(self, rng, n: int) -> np.ndarray:
        return np.full(n, self.value)


def local_prob(dist: Marginal, w: LocalWindow):
    """F(x, x+d] = F(x+d) - F(x); the tail 1 - F(x) when d is infinite.

    Computed as a difference of survival values so the result keeps
    relative accuracy deep in the tail, where both CDF values round to 1.
    """
    if math.isinf(w.d):
        return dist.sf(w.x)
    return dist.sf(w.x) - dist.sf(w.x + w.d)


def scaled_local_prob(dist: Marginal, w: LocalWindow, r: float, u) -> float:
    """P(X e^{-r u} in (x, x+d]) = F((x+d) e^{r u}) - F(x e^{r u})."""
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
    if math.isinf(w.d):
        return np.asarray(dist.sf(w.x * scale))[()]
    return (np.asarray(dist.sf(w.x * scale)) - dist.sf((w.x + w.d) * scale))[()]


def lloc_ratio_diagnostic(
    dist: Marginal,
    x_grid,
    y_bound: float,
    d_range: tuple[float, float],
    n_y: int = 11,
    n_d: int = 9,
) -> np.ndarray:
    """Worst-case deviation of F(x+y+D_d)/F(x+D_s) from d/s per grid x.

    For a locally long-tailed distribution the returned sequence must tend
    to 0 along an increasing ``x_grid``; for light tails it stays bounded
    away from 0.  The supremum is taken over a finite grid of shifts
    |y| <= y_bound and widths d, s in (a, b], so the result is a lower
    bound of the true supremum.
    """
    a, b = d_range
    if not (0 < a < b):
        raise ValueError("d_range must satisfy 0 < a < b")
    if y_bound <= 0:
        raise ValueError("y_bound must be > 0")
    ys = np.linspace(-y_bound, y_bound, n_y)
    ds = np.linspace(a, b, n_d + 1)[1:]  # widths in (a, b]
    out = np.empty(len(x_grid))
    for i, x in enumerate(x_grid):
        denom = np.array([local_prob(dist, LocalWindow(x, s)) for s in ds])
        if np.any(denom <= 0.0):
            raise ValueError(f"zero local mass F(x, x+s] at x={x}; degenerate input")
        worst = 0.0
        for y in ys:
            if x + y < 0:
                continue
            num = np.array([local_prob(dist, LocalWindow(x + y, d)) for d in ds])
            dev = np.abs(num[:, None] / denom[None, :] - ds[:, None] / ds[None, :])
            worst = max(worst, float(dev.max()))
        out[i] = worst
    return out


def almost_decreasing_constant(
    dist: Marginal,
    d: float,
    grid_max: float,
    step: float | None = None,
    grid=None,
) -> float:
    """Grid lower bound of the almost-decrease constant of the local law.

    Returns sup over grid pairs 0 <= x <= y <= grid_max of
    F(y+D_d)/F(x+D_d) - 1.  Zero for distributions whose local probability
    is nonincreasing; grows without bound exactly when the local
    distribution is not almost decreased.
    """
    if d <= 0 or grid_max <= 0:
        raise ValueError("d and grid_max must be > 0")
    if grid is None:
        if step is None:
            step = 0.01 * d
        grid = np.arange(0.0, grid_max + step, step)
    else:
        grid = np.sort(np.asarray(grid, dtype=float))
        grid = grid[(grid >= 0.0) & (grid <= grid_max)]
    vals = dist.cdf(grid + d) - dist.cdf(grid)
    if np.any(vals <= 0.0):
        raise ValueError("zero local mass on the grid; degenerate input")
    # running minimum over x <= y turns the pairwise sup into a single pass
    running_min = np.minimum.accumulate(vals)
    return float(np.max(vals / running_min) - 1.0)
