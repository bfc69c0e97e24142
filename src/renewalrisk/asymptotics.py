"""Quadrature evaluator of the local asymptotic approximation.

The approximation to P(D1 in (x1, x1+d1], D2 in (x2, x2+d2]) at horizon t
is a cross term — a double integral over ordered arrival-time pairs
(u, u+v) of products of discount-scaled marginal window probabilities
against the two singly-tilted renewal measures — plus a diagonal term,
a single integral against the jointly-tilted measure for the event that
one arrival carries both large claims.

The integrand is smooth in (u, v) while the measures carry the
roughness, so it is evaluated at cell midpoints against the measures'
cell increments.  The cross term's two convolution sums go through the
real-FFT helper ``renewal._conv_heads``, so a call on K grid cells costs
O(K log K) instead of the O(K^2) of a direct sum.

The result is claimed uniformly in t, so a box is evaluated over a whole
t grid.  Every array built for a horizon t is a prefix of the one built
for the largest horizon, and so is the head of their convolution; one
pass therefore builds the terms and the FFT heads once, and each t reads
its cross and diagonal terms as sums over prefixes.  A pass takes a
whole sequence of boxes: the transforms of the two singly-tilted
measures' increments are shared, so each further box costs four scaled
window probabilities over the grid and two forward-inverse transform
pairs.  The boxes go one at a time through two convolvers, one per
transform: a box's windows, diagonal sums, convolutions and tau-weighted
prefix sums are done and freed before the next box starts.  The cell
midpoints are built for a box's two midpoint windows and freed before
its convolutions, and the tau grid is built for each tau window, so
neither is held across the pass.  A pass over K cells therefore peaks at
about 11 arrays of K floats beyond its inputs, whatever the box count:
the two transforms (two arrays each), one box's two operands, the tau
grid and one window probability over it with its temporaries.  Those
sums are numpy's pairwise ``.sum()``, not ``np.dot``: numpy hands a
float dot to BLAS, and a threaded BLAS splits a long 1-D dot across
cores, where it stalls for milliseconds whenever another process holds
one of them.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .marginals import LocalWindow, Marginal, scaled_local_prob
from .renewal import TiltedMeasure, _conv_heads

__all__ = [
    "Box2",
    "AsymptoticValue",
    "theorem_rhs",
    "net_loss_window_shift",
]


@dataclass(frozen=True)
class Box2:
    """Target box (x1, x1+d1] x (x2, x2+d2]; widths must be finite."""

    x1: float
    x2: float
    d1: float
    d2: float

    def __post_init__(self):
        self.window1, self.window2  # each LocalWindow checks its level and width

    @property
    def window1(self) -> LocalWindow:
        return LocalWindow(self.x1, self.d1)

    @property
    def window2(self) -> LocalWindow:
        return LocalWindow(self.x2, self.d2)


@dataclass(frozen=True)
class AsymptoticValue:
    total: float
    cross_term: float
    diagonal_term: float


def theorem_rhs(
    f1: Marginal,
    f2: Marginal,
    boxes: Sequence[Box2],
    r: float,
    ts: Sequence[float],
    tilted_1: TiltedMeasure,
    tilted_2: TiltedMeasure,
    tilted_joint: TiltedMeasure,
) -> list[list[AsymptoticValue]]:
    """Evaluate the asymptotic right-hand side for each box at each horizon t.

    cross_term integrates P(X1 e^{-r(u+v)} in box1) P(X2 e^{-rv} in box2)
    plus the mirrored product over the cells of the tilted measures with
    u + v <= t (midpoint rule, boundary cells included fully);
    diagonal_term integrates the product of both scaled window
    probabilities at a common time against the jointly-tilted measure.

    ``ts`` may come in any order and with repeats.  Returns one list per
    horizon of one AsymptoticValue per box, all from one pass up to the
    largest horizon.
    """
    h, t_max = tilted_1.step, tilted_1.t_max
    ts = [float(t) for t in ts]
    for tv in ts:
        if not 0.0 <= tv <= t_max + 0.5 * h:
            raise ValueError(f"t={tv} outside the tilted-measure grid [0, {t_max}]")
    for tm in (tilted_2, tilted_joint):
        if (tm.step, tm.t_max, len(tm.increments)) != (h, t_max, len(tilted_1.increments)):
            raise ValueError("tilted measures must share one grid")
    # per horizon: k_t cells, and the cell-pair sums j + k = s, which live at
    # u + v = (s - 1) h, admitted for s <= s_cap with (s - 1) h <= t (boundary
    # cells included fully); s_cap - 1 <= k_t, so every head below only reads
    # cells 1..k_t and is the prefix of the head at the largest horizon
    k_ts = [round(tv / h) for tv in ts]
    n_cross = [max(min(int(tv / h + 1 + 1e-9), 2 * k) - 1, 0) for tv, k in zip(ts, k_ts)]
    k_max, n_max = max(k_ts), max(n_cross)

    inc1 = tilted_1.increments[1 : k_max + 1]
    inc2 = tilted_2.increments[1 : k_max + 1]
    incj = tilted_joint.increments[1 : k_max + 1]
    # inc1 and inc2 are transformed once, for every box
    conv_1 = _conv_heads(inc1, n_max)
    conv_2 = _conv_heads(inc2, n_max)

    def tau():  # u + v for s = 2..s_cap, built where it is read
        return h * np.arange(1, n_max + 1)

    def box_values(b: Box2) -> list[AsymptoticValue]:
        # pairwise .sum(), not np.dot: see the module docstring on BLAS.  The
        # diagonal sums first; each midpoint window probability then becomes,
        # in place, the weighted increments the cross term convolves
        mids = h * (np.arange(1, k_max + 1) - 0.5)
        p1_mid = scaled_local_prob(f1, b.window1, r, mids)
        p2_mid = scaled_local_prob(f2, b.window2, r, mids)
        del mids  # freed before the convolutions
        diag_terms = p1_mid * p2_mid
        diag_terms *= incj
        diagonals = [float(diag_terms[:k].sum()) for k in k_ts]
        del diag_terms
        p1_mid *= inc1
        p2_mid *= inc2
        cross_terms = conv_1(p2_mid)
        cross_terms *= scaled_local_prob(f1, b.window1, r, tau())
        mirrored = conv_2(p1_mid)
        mirrored *= scaled_local_prob(f2, b.window2, r, tau())
        cross_terms += mirrored
        crosses = [float(cross_terms[:n].sum()) for n in n_cross]
        return [AsymptoticValue(total=cross + diagonal, cross_term=cross, diagonal_term=diagonal)
                for cross, diagonal in zip(crosses, diagonals)]

    per_box = [box_values(b) for b in boxes]
    return [[values[i] for values in per_box] for i in range(len(ts))]


def net_loss_window_shift(box: Box2, premium_rates: tuple[float, float], r: float, t: float) -> Box2:
    """The box moved by linear premium income: the discounted-claims box of a net-loss window.

    Each level x_i is raised by the discounted premium income
    c_i (1 - e^{-rt})/r (c_i t at r = 0), and each width is scaled by
    e^{-rt}.  The discounted claims land in the result exactly when
    their excess over that income lands in (x_i, x_i + d_i e^{-rt}].
    """
    c1, c2 = premium_rates
    if c1 < 0 or c2 < 0 or r < 0 or t < 0:
        raise ValueError("premium rates, r and t must be >= 0")
    if r == 0:
        shift1, shift2, scale = c1 * t, c2 * t, 1.0
    else:
        disc = -math.expm1(-r * t) / r
        shift1, shift2, scale = c1 * disc, c2 * disc, math.exp(-r * t)
    return replace(box, x1=box.x1 + shift1, x2=box.x2 + shift2, d1=box.d1 * scale, d2=box.d2 * scale)

