"""Renewal function and tilted renewal measures.

The renewal function lambda(t) = E N(t) solves
lambda = G + lambda * G.  It is discretised on a uniform grid with
trapezoidal Stieltjes increments, solving implicitly for the newest
value; the scheme is chosen so that the unit-weight tilted measure

    lambda~(t) = int_0^t (1 + lambda(t-u)) w(u) G(du)

reproduces lambda exactly on the grid when w == 1, which is the discrete
analogue of the renewal equation itself.

The discrete Volterra equation is a power-series quotient, so it is
solved by series inversion rather than by marching node after node:
the reciprocal comes from Newton doubling and every convolution, here
and in ``asymptotics``, from one real-FFT helper, ``_conv_head``.  A
grid of K nodes costs O(K log K).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .marginals import Deterministic, Marginal

__all__ = [
    "RenewalGrid",
    "TiltedMeasure",
    "renewal_function",
    "tilted_measure",
    "tilted_triplet",
]


@dataclass(frozen=True)
class RenewalGrid:
    """lambda(k*h) for k = 0..round(T/h) plus the generating distribution."""

    step: float
    t_max: float
    lambda_values: np.ndarray
    g_dist: Marginal

    @property
    def times(self) -> np.ndarray:
        return self.step * np.arange(len(self.lambda_values))


@dataclass(frozen=True)
class TiltedMeasure:
    """Increments of the weighted renewal measure on the grid of ``grid``."""

    grid: RenewalGrid
    increments: np.ndarray

    @property
    def values(self) -> np.ndarray:
        return np.cumsum(self.increments)


def _stieltjes_increments(g: Marginal, h: float, k_max: int) -> np.ndarray:
    t = h * np.arange(k_max + 1)
    cdf = np.asarray(g.cdf(t), dtype=float)
    return np.diff(cdf)


def _conv_head(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """First n terms of the linear convolution a * b, by a real FFT.

    Leading zeros of a and b are split off, so a head that is exactly
    zero (no renewal before the support of G starts) stays exactly zero
    instead of carrying FFT rounding.  The transform length is the power
    of two that holds the rest of the convolution, so nothing wraps.
    """
    out = np.zeros(n)
    nz_a, nz_b = np.flatnonzero(a[:n]), np.flatnonzero(b[:n])
    if nz_a.size and nz_b.size and nz_a[0] + nz_b[0] < n:
        lo = nz_a[0] + nz_b[0]
        a, b = a[nz_a[0] : nz_a[0] + n - lo], b[nz_b[0] : nz_b[0] + n - lo]
        size = 1 << (len(a) + len(b) - 2).bit_length()
        head = np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)[: n - lo]
        out[lo : lo + len(head)] = head
    return out


def _series_reciprocal(q: np.ndarray, n: int) -> np.ndarray:
    """First n coefficients of 1/q(z), q[0] != 0, by Newton doubling.

    With b = 1/q mod z^l, q b = 1 + z^l e, and b(2 - q b) = b - z^l b e
    is 1/q mod z^2l; only the new half of b is computed each step.
    """
    b = np.array([1.0 / q[0]])
    while len(b) < n:
        m = min(2 * len(b), n)
        e = _conv_head(q, b, m)[len(b):]
        b = np.concatenate([b, -_conv_head(b, e, m - len(b))])
    return b


def renewal_function(g: Marginal, t_max: float, h: float) -> RenewalGrid:
    """Solve lambda = G + lambda * G on a uniform grid of step h.

    Trapezoidal treatment of lambda(t-u) against the exact increments
    G((j-1)h, jh]; the newest value appears on both sides and is solved
    for, which keeps the scheme stable and the output monotone.  With
    c_j = dG_j + dG_{j+1} and pivot = 1 - dG_1 / 2 the scheme reads

        pivot lambda_k = G(kh) + 1/2 sum_{j <= k-2} c_j lambda_{k-1-j},

    i.e. L(z) = F(z) / (pivot - z C(z) / 2) for the generating functions
    of lambda, G(kh) and c.  That quotient is taken by series inversion
    in O(K log K) instead of marching over the K nodes.
    """
    if not t_max > 0:
        raise ValueError("t_max must be > 0")
    if not 0 < h <= t_max / 10:
        raise ValueError("step must satisfy 0 < h <= t_max/10")
    k_max = round(t_max / h)
    if isinstance(g, Deterministic):
        # N(t) = floor(t / c) exactly; snap near-node times onto the jump
        if g.value == 0:
            raise ValueError("zero inter-arrival time gives an exploding renewal process")
        t = h * np.arange(k_max + 1)
        lam = np.floor(t / g.value + 1e-12)
        return RenewalGrid(step=h, t_max=t_max, lambda_values=lam, g_dist=g)

    dg = _stieltjes_increments(g, h, k_max)
    cdf = np.concatenate([[0.0], np.cumsum(dg)])
    # c[j] = dG_j + dG_{j+1} pairs lambda_{k-j} with both trapezoid halves
    c = dg.copy()
    c[:-1] += dg[1:]
    q = np.concatenate([[1.0 - 0.5 * dg[0]], -0.5 * c])
    lam = _conv_head(cdf, _series_reciprocal(q, k_max + 1), k_max + 1)
    return RenewalGrid(step=h, t_max=t_max, lambda_values=lam, g_dist=g)


def tilted_measure(grid: RenewalGrid, weight) -> TiltedMeasure:
    """Increments of lambda~(t) = int (1 + lambda(t-u)) w(u) G(du).

    ``weight`` is a vectorized function of u on [0, t_max]; it must be
    positive there.  With w == 1 the cumulative measure reproduces the
    renewal function exactly on the grid, by construction of the solver.
    """
    h = grid.step
    lam = grid.lambda_values
    k_max = len(lam) - 1
    t = h * np.arange(k_max + 1)
    w = np.asarray(weight(t), dtype=float)
    if w.shape != t.shape:
        w = np.broadcast_to(w, t.shape)
    if np.any(w <= 0) or not np.all(np.isfinite(w)):
        raise ValueError("tilting weight must be positive and finite on the grid")
    dg = _stieltjes_increments(grid.g_dist, h, k_max)
    # lambda~_k = sum_j [ (1+lam_{k-j}) w_j + (1+lam_{k-j+1}) w_{j-1} ] / 2 * dG_j
    a = 0.5 * w[1:] * dg          # pairs with lam_{k-j}, j = 1..k
    b = 0.5 * w[:-1] * dg         # pairs with lam_{k-j+1}
    # values[k] = sum_{i<k} a[i]*(1+lam[k-1-i]) + b[i]*(1+lam[k-i]); with
    # e[j] = a[j-1] + b[j] that is (e * (1+lam))[k] - b[k], as lam[0] = 0
    e = np.zeros(k_max + 1)
    e[1:] += a
    e[:-1] += b
    values = _conv_head(e, 1.0 + lam, k_max + 1)
    values[:-1] -= b
    values[0] = 0.0
    inc = np.diff(np.concatenate([[0.0], values]))
    return TiltedMeasure(grid=grid, increments=inc)


def tilted_triplet(grid: RenewalGrid, dep) -> tuple[TiltedMeasure, TiltedMeasure, TiltedMeasure]:
    """The measures tilted by h_1, h_2 and g of a dependence spec ``dep``.

    ``dep`` is anything with ``h_func(i, u)`` and ``g_func(u)``, e.g. a
    ``copulas.DependenceSpec``; constant weights are broadcast.
    """
    return (
        tilted_measure(grid, lambda u: dep.h_func(1, u)),
        tilted_measure(grid, lambda u: dep.h_func(2, u)),
        tilted_measure(grid, dep.g_func),
    )

