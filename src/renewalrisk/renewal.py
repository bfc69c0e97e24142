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
and in ``asymptotics``, from one real-FFT helper, ``_conv_heads``, at
5-smooth transform lengths.  A grid of K nodes costs O(K log K).
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
    """lambda(k*h) for k = 0..round(T/h) plus G's increments G((k-1)h, kh], k = 1..round(T/h)."""

    step: float
    t_max: float
    lambda_values: np.ndarray
    g_increments: np.ndarray

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


def _smooth_size(m: int) -> int:
    """The least 5-smooth integer (2^i 3^j 5^k) >= m, a fast real-FFT length.

    A power of two is 5-smooth, so this never exceeds the next one; for
    2K - 1 = 79 999 it is 80 000 = 2^7 5^4 instead of 131 072.
    """
    best = 1 << max(m - 1, 0).bit_length()
    odd = 1
    while odd < best:  # odd runs over 5^k, then 3^j 5^k, below best
        p = odd
        while p < best:
            best = min(best, p << (-(-m // p) - 1).bit_length())
            p *= 3
        odd *= 5
    return best


def _first_nonzero(x: np.ndarray, n: int) -> int:
    """Index of the first nonzero entry of x[:n], or n if there is none."""
    if len(x) and n and x[0] != 0:  # the common case, without a pass over x
        return 0
    nonzero = x[:n] != 0
    return int(nonzero.argmax()) if nonzero.any() else n


def _conv_heads(a: np.ndarray, n: int):
    """A convolver ``head(b)``: the first n terms of the linear convolution a * b, by real FFTs.

    a is transformed once, here, at one 5-smooth length L < 4n that holds
    a * b whatever b's leading zeros, so nothing wraps.  Each b holds at
    least n entries and is consumed: its head is written over b[:n],
    which is returned.  Beyond its operands the convolver holds a's
    transform, about L/2 complex entries, and a call adds b's transform
    and its inverse while it runs.  Leading zeros of a and of b are split
    off, so a head that is exactly zero (no renewal before the support of
    G starts) stays exactly zero, and its first term that can be nonzero
    is the exact product a[za] b[zb], free of FFT rounding.
    """
    za = _first_nonzero(a, n)
    if za < n:
        size = _smooth_size(2 * (n - za) - 1)
        fa = np.fft.rfft(a[za:n], size)

    def head(b):
        zb = _first_nonzero(b, n - za)
        lo = min(za + zb, n)
        if lo < n:
            first = a[za] * b[zb]
            fb = np.fft.rfft(b[zb : n - za], size)
            fb *= fa
            b[lo:n] = np.fft.irfft(fb, size)[: n - lo]
            b[lo] = first
        b[:lo] = 0.0
        return b[:n]

    return head


def _series_reciprocal(q: np.ndarray, n: int) -> np.ndarray:
    """First n coefficients of 1/q(z), q[0] != 0, by Newton doubling.

    With b = 1/q mod z^l, q b = 1 + z^l e, and b(2 - q b) = b - z^l b e
    is 1/q mod z^2l; only the new half of b is computed each step, into
    one preallocated array of n coefficients.  Both
    products use one transform of b at a 5-smooth length L >= m = 2l:
    the terms of q b past L wrap onto indices below l, which e does not
    read, and b e has fewer than L terms.
    """
    b = np.empty(n)
    b[0] = 1.0 / q[0]
    l = 1
    while l < n:
        m = min(2 * l, n)
        size = _smooth_size(m)
        fb = np.fft.rfft(b[:l], size)
        e = np.fft.irfft(np.fft.rfft(q[:m], size) * fb, size)[l:m]
        b[l:m] = -np.fft.irfft(np.fft.rfft(e, size) * fb, size)[: m - l]
        l = m
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
    dg = _stieltjes_increments(g, h, k_max)
    if isinstance(g, Deterministic):
        # N(t) = floor(t / c) exactly; snap near-node times onto the jump
        if g.value == 0:
            raise ValueError("zero inter-arrival time gives an exploding renewal process")
        lam = np.floor(h * np.arange(k_max + 1) / g.value + 1e-12)
        return RenewalGrid(step=h, t_max=t_max, lambda_values=lam, g_increments=dg)

    n = k_max + 1
    cdf = np.empty(n)
    cdf[0] = 0.0
    np.cumsum(dg, out=cdf[1:])
    # q = pivot, then -c/2, where c[j] = dG_j + dG_{j+1} pairs lambda_{k-j}
    # with both trapezoid halves
    q = np.empty(n)
    q[0] = 1.0 - 0.5 * dg[0]
    q[1:] = dg
    q[1:-1] += dg[1:]
    q[1:] *= -0.5
    lam = _conv_heads(cdf, n)(_series_reciprocal(q, n))
    return RenewalGrid(step=h, t_max=t_max, lambda_values=lam, g_increments=dg)


def tilted_measure(grid: RenewalGrid, weights) -> list[TiltedMeasure]:
    """Increments of lambda~(t) = int (1 + lambda(t-u)) w(u) G(du), one measure per weight w.

    Each of ``weights`` is a vectorized function of u on [0, t_max]; it
    must be positive there.  With w == 1 the cumulative measure
    reproduces the renewal function exactly on the grid, by construction
    of the solver.  All measures come from one transform of 1 + lambda,
    and each weight's arrays are built, convolved and finished before
    the next weight's exist, so the working memory beyond the returned
    measures does not grow with the number of weights.
    """
    lam, dg, t = grid.lambda_values, grid.g_increments, grid.times
    k_max = len(lam) - 1
    # lambda~_k = sum_j [ (1+lam_{k-j}) w_j + (1+lam_{k-j+1}) w_{j-1} ] / 2 * dG_j
    # with a = w[1:] dG / 2 pairing lam_{k-j} and b = w[:-1] dG / 2 pairing
    # lam_{k-j+1}: values[k] = sum_{i<k} a[i]*(1+lam[k-1-i]) + b[i]*(1+lam[k-i]);
    # with e[j] = a[j-1] + b[j] that is (e * (1+lam))[k] - b[k], as lam[0] = 0
    measures = []
    head = _conv_heads(1.0 + lam, k_max + 1)
    for wf in weights:
        w = np.broadcast_to(np.asarray(wf(t), dtype=float), t.shape)
        if np.any(w <= 0) or not np.all(np.isfinite(w)):
            raise ValueError("tilting weight must be positive and finite on the grid")
        b = 0.5 * w[:-1] * dg
        e = np.zeros(k_max + 1)
        e[1:] += 0.5 * w[1:] * dg
        e[:-1] += b
        del w  # freed before the transforms
        values = head(e)
        values[:-1] -= b
        values[0] = 0.0
        values[1:] -= values[:-1].copy()  # increments, in place
        measures.append(TiltedMeasure(grid=grid, increments=values))
    return measures


def tilted_triplet(grid: RenewalGrid, dep) -> tuple[TiltedMeasure, TiltedMeasure, TiltedMeasure]:
    """The measures tilted by h_1, h_2 and g of a dependence spec ``dep``.

    ``dep`` is anything with ``h_func(i, u)`` and ``g_func(u)``, e.g. a
    ``copulas.DependenceSpec``; constant weights are broadcast.
    """
    return tuple(tilted_measure(grid, [lambda u: dep.h_func(1, u), lambda u: dep.h_func(2, u), dep.g_func]))

