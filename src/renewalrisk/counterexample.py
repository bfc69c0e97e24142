"""A locally subexponential density whose local law is not almost decreased.

The density is piecewise linear between a sparse, doubly-exponentially
growing set of breakpoints.  On each block (a_n, a_{n+1}] it dips from
2 a_n^{-3} down by a factor ln(n+1) over a short shoulder and climbs back,
so the local distribution keeps oscillating at ever larger scales: the
ratio f(mid_n)/f(b_n) = ln(n+1) is unbounded in n, defeating almost
decrease, while shift-insensitivity and the self-convolution ratio
I(x) / 2 f(x) -> 1 still hold in the limit.

Everything here is exact up to floating rounding: the CDF is the closed
piecewise-quadratic integral of the density, the quantile is its
closed-form inverse (one quadratic root per draw, so the law can drive
Monte Carlo), and the self-convolution is integrated segment by segment
with a rule that is exact for quadratics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .marginals import Marginal

__all__ = [
    "BreakpointTable",
    "CounterexampleF",
    "breakpoints",
    "m_index",
]

_SLOPE_RATIO = math.sqrt(5.0) / math.sqrt(6.0)  # threshold defining m_n
N_MAX_LIMIT = 8  # a_{n_max+1} = 2^81 must stay well inside double range


def m_index(n: int) -> int:
    """min{k : k >= sqrt(5)/sqrt(6) * n}; first drops below n at n = 12."""
    return math.ceil(_SLOPE_RATIO * n)


@dataclass(frozen=True)
class BreakpointTable:
    """Breakpoints a_n < b_n < mid_n < a_{n+1} with raw density anchors."""

    n_max: int
    a: np.ndarray      # a[0..n_max+1], a[n] = 2^(n^2), a[0] = 0
    b: np.ndarray      # b[1..n_max]
    m: np.ndarray      # m[1..n_max]
    mid: np.ndarray    # mid[1..n_max] = (a_{n+1} + b_n)/2
    nodes: np.ndarray  # all breakpoints in increasing order
    f0: np.ndarray     # raw density value at each node


def breakpoints(n_max: int) -> BreakpointTable:
    if not 1 <= n_max <= N_MAX_LIMIT:
        raise ValueError(f"n_max must be in [1, {N_MAX_LIMIT}], got {n_max}")
    a = np.array([0.0] + [2.0 ** (n * n) for n in range(1, n_max + 2)])
    m = np.array([0] + [m_index(n) for n in range(1, n_max + 1)])
    b = np.zeros(n_max + 1)
    mid = np.zeros(n_max + 1)
    for n in range(1, n_max + 1):
        b[n] = a[n] + a[m[n]] * math.log(n + 1) ** 2
        mid[n] = 0.5 * (a[n + 1] + b[n])
        if not a[n] < b[n] < mid[n] < a[n + 1]:
            raise AssertionError(f"breakpoint ordering broken at n={n}")

    def f0_at_a(n: int) -> float:
        return 2.0 * a[n] ** -3

    # the raw density is undefined at 0; a flat first segment keeps every
    # property of the construction and is the simplest choice
    nodes = [0.0, a[1]]
    f0 = [f0_at_a(1), f0_at_a(1)]
    for n in range(1, n_max + 1):
        nodes += [b[n], mid[n], a[n + 1]]
        f0 += [f0_at_a(n) / math.log(n + 1), f0_at_a(n), f0_at_a(n + 1)]
    return BreakpointTable(
        n_max=n_max,
        a=a,
        b=b,
        m=m,
        mid=mid,
        nodes=np.array(nodes),
        f0=np.array(f0),
    )


def density_raw(table: BreakpointTable, x) -> float:
    """Linear interpolation of the raw (unnormalized) density."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0) or np.any(x > table.nodes[-1]):
        raise ValueError("x outside the tabulated range")
    return np.interp(x, table.nodes, table.f0)[()]


def normalizer(table: BreakpointTable) -> tuple[float, float]:
    """Total raw mass on [0, a_{n_max+1}] and a bound on the truncated tail.

    The mass is an exact trapezoid sum (the density is linear between
    nodes).  Each omitted block n > n_max contributes at most
    f0(a_n) * a_{n+1} = 2^(1 - 3 n^2 + (n+1)^2), summed in log space.
    """
    widths = np.diff(table.nodes)
    mass = float(np.sum(0.5 * (table.f0[:-1] + table.f0[1:]) * widths))
    tail_log2 = [1.0 - 3.0 * n * n + (n + 1) ** 2 for n in range(table.n_max + 1, table.n_max + 40)]
    tail = float(sum(2.0 ** e for e in tail_log2))
    return mass, tail


@dataclass(frozen=True)
class CounterexampleF(Marginal):
    """The normalized law with its table, witnesses and exact self-convolution.

    Instances are equal when their ``n_max`` is.
    """

    n_max: int = N_MAX_LIMIT
    table: BreakpointTable = field(init=False, repr=False, compare=False)
    norm: float = field(init=False, repr=False, compare=False)
    tail_bound: float = field(init=False, repr=False, compare=False)
    _cum: np.ndarray = field(init=False, repr=False, compare=False)
    _tail: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        table = breakpoints(self.n_max)
        seg = 0.5 * (table.f0[:-1] + table.f0[1:]) * np.diff(table.nodes)
        # raw mass up to each node, and beyond it summed from the right for the survival
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        tail = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])
        derived = (table, *normalizer(table), cum, tail)
        for name, value in zip(("table", "norm", "tail_bound", "_cum", "_tail"), derived):
            object.__setattr__(self, name, value)

    @property
    def x_max(self) -> float:
        return float(self.table.nodes[-1])

    def pdf(self, x):
        return density_raw(self.table, x) / self.norm

    def cdf(self, x):
        """Piecewise-quadratic CDF: 0 below 0, 1 above x_max, the exact integral between.

        At x_max itself it is the raw integral, 1 up to rounding.
        """
        x = np.asarray(x, dtype=float)
        nodes, f0 = self.table.nodes, self.table.f0
        xc = np.clip(x, 0.0, self.x_max)
        idx = np.clip(np.searchsorted(nodes, xc, side="right") - 1, 0, len(nodes) - 2)
        fx = np.interp(xc, nodes, f0)
        out = (self._cum[idx] + 0.5 * (f0[idx] + fx) * (xc - nodes[idx])) / self.norm
        return np.where(x > self.x_max, 1.0, np.where(x < 0, 0.0, out))[()]

    def sf(self, x):
        """Survival summed from the right, without the cancellation of 1 - cdf.

        The raw mass beyond the right node of x's segment plus the
        trapezoid from x to that node, clamped to [0, 1].
        """
        nodes, f0 = self.table.nodes, self.table.f0
        x = np.clip(np.asarray(x, dtype=float), 0.0, self.x_max)
        right = np.clip(np.searchsorted(nodes, x, side="right"), 1, len(nodes) - 1)
        fx = np.interp(x, nodes, f0)
        raw = self._tail[right] + 0.5 * (fx + f0[right]) * (nodes[right] - x)
        return np.clip(raw / self.norm, 0.0, 1.0)[()]

    def quantile(self, p):
        """Closed-form inverse of the piecewise-quadratic CDF.

        On the segment holding raw mass r = p * norm - cum beyond its left
        node, 0.5 s d^2 + f0 d = r is solved by the cancellation-free root
        d = 2r / (f0 + sqrt(f0^2 + 2 s r)), capped at the right node.
        """
        p = self._check_p(p)
        nodes, f0, cum = self.table.nodes, self.table.f0, self._cum
        mass = p * self.norm
        idx = np.clip(np.searchsorted(cum, mass, side="right") - 1, 0, len(cum) - 2)
        left, f_left = nodes[idx], f0[idx]
        slope = (f0[idx + 1] - f_left) / (nodes[idx + 1] - left)
        r = mass - cum[idx]
        # lanes with p >= cdf(x_max) overshoot the last segment; np.where sets them to x_max
        disc = np.maximum(f_left * f_left + 2.0 * slope * r, 0.0)
        d = 2.0 * r / (f_left + np.sqrt(disc))
        x = np.minimum(left + d, nodes[idx + 1])
        return np.where(p >= self.cdf(self.x_max), self.x_max, x)[()]

    def almost_decreasing_witness(self, n: int) -> float:
        """f(mid_n) / f(b_n); equals ln(n+1) by construction."""
        if not 1 <= n <= self.table.n_max:
            raise ValueError("n out of table range")
        return float(density_raw(self.table, self.table.mid[n]) / density_raw(self.table, self.table.b[n]))

    def _conv_piece(self, x: float, lo: float, hi: float) -> float:
        """Integral of f(x-y) f(y) over [lo, hi] by per-segment Simpson.

        The segments run between lo, hi and every node or x - node inside
        [lo, hi] (here [lo, hi] lies in [0, x]).  Both factors are linear on
        each, so the integrand is quadratic and Simpson's rule is exact.
        """
        nodes = self.table.nodes
        pts = np.unique(np.clip(np.concatenate([[0.0, x, lo, hi], nodes, x - nodes]), lo, hi))
        left, right = pts[:-1], pts[1:]
        mids = 0.5 * (left + right)
        h = right - left

        def integrand(y):
            return density_raw(self.table, y) * density_raw(self.table, x - y)

        vals = h / 6.0 * (integrand(left) + 4.0 * integrand(mids) + integrand(right))
        return float(np.sum(vals)) / self.norm**2

    def self_convolution_ratios(self, x: float) -> tuple[float, float]:
        """(I(x) / 2 f(x), I2(x) / f(x)) for x in (a_1, a_{n_max+1}].

        I = f * f splits at a_{m_n}, for the block (a_n, a_{n+1}] holding x,
        as I = 2 I1 + I2: I1 over [0, a_{m_n}] and the middle part I2 over
        [a_{m_n}, x - a_{m_n}].  The first ratio tends to 1; the second, the
        part the single-big-jump principle kills, tends to 0.
        """
        a = self.table.a
        if not a[1] < x <= self.x_max:
            raise ValueError("x outside (a_1, a_{n_max+1}]")
        g = float(a[self.table.m[np.searchsorted(a, x, side="left") - 1]])
        if 2 * g >= x:
            # degenerate split; everything counts as the near-origin part
            i1, i2 = 0.5 * self._conv_piece(x, 0.0, x), 0.0
        else:
            i1, i2 = self._conv_piece(x, 0.0, g), self._conv_piece(x, g, x - g)
        f = self.pdf(x)
        return (2.0 * i1 + i2) / (2.0 * f), i2 / f
