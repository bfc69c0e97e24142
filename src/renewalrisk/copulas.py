"""Tri-dimensional dependence structures for (X1, X2, theta).

Four variants: the Sarmanov family with FGM kernels, independence as its
zero-coefficient member, the exchangeable tri-dimensional Frank copula,
and a product copula nested inside a bivariate Frank copula.  Each
variant carries

* the joint copula CDF and C-volumes,
* exact conditional distributions (given theta; given the other claim and
  theta), obtained from closed-form copula partial derivatives, and the
  window probabilities under them, each factored in the window widths so
  they stay accurate deep in the tail,
* an exact closed-form sampler (the two Frank variants share their
  generator algebra),
* the closed-form dependence weights h_i(s), g(s), g_ij(z, s) describing
  the large-claim limits of those conditionals, and grid estimates of
  their horizon bounds.

The conditional-ratio scans cross-check the hard-coded weights against
the exact conditionals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .marginals import LocalWindow, Marginal, local_prob

__all__ = [
    "DependenceSpec",
    "Independent",
    "SarmanovFGM",
    "FrankTri",
    "NestedFrankProduct",
    "BoundsReport",
    "bounds_over_horizon",
    "condition_ratio_scan",
    "mean_h_check",
]

_BELOW_ONE = np.nextafter(1.0, 0.0)
_LN2 = math.log(2.0)


def _quadratic_root(qa, qb, qc):
    """The root (-qb - sqrt(D)) / (2 qa) of qa x^2 + qb x + qc = 0.

    Every sampler wants that root for either sign of qb (the nested one
    reaches qb > 0 at gamma > 1, where a sign(qb) choice picks the other
    root); for qb <= 0 it is taken as 2 qc / (-qb + sqrt(D)), which has
    no cancellation and stays finite at qa = 0.
    """
    disc = np.sqrt(qb**2 - 4 * qa * qc)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(qb <= 0, 2 * qc / (-qb + disc), -(qb + disc) / (2 * qa))


@dataclass(frozen=True)
class BoundsReport:
    """Grid infima/suprema of the dependence weights over a horizon."""

    horizon: float
    b_lower: float
    b_upper: float
    d_lower: float
    d_upper: float
    a_lower: float
    a_upper: float
    c1: float
    c2: float
    c3: float
    warnings: tuple[str, ...] = ()

    def valid(self) -> bool:
        return min(self.b_lower, self.d_lower, self.a_lower) > 0.0


class DependenceSpec:
    """Joint law of (X1, X2, theta) through a copula and three marginals."""

    f1: Marginal
    f2: Marginal
    g_dist: Marginal

    # --- copula-scale interface -------------------------------------------

    def copula_cdf(self, u, v, w):
        raise NotImplementedError

    def cond_cdf_given_w(self, u, v, w):
        """P(U <= u, V <= v | W = w) = dC/dw."""
        raise NotImplementedError

    def cond_cdf_given_vw(self, i: int, u, v, w):
        """P(U_i <= u | U_j = v, W = w) for the claim pair i != j."""
        raise NotImplementedError

    def sample_uniform(self, rng, n: int):
        """n draws of (U, V, W) from the copula."""
        raise NotImplementedError

    # --- dependence weights ------------------------------------------------

    def h_func(self, i: int, s):
        raise NotImplementedError

    def g_func(self, s):
        raise NotImplementedError

    def g_ij_func(self, i: int, j: int, z, s):
        raise NotImplementedError

    # --- derived operations -----------------------------------------------

    def c_volumes(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Vectorized C-volumes for boxes given by (n,3) corner arrays."""
        total = np.zeros(lo.shape[0])
        for iu, u in ((1, hi[:, 0]), (-1, lo[:, 0])):
            for iv, v in ((1, hi[:, 1]), (-1, lo[:, 1])):
                for iw, w in ((1, hi[:, 2]), (-1, lo[:, 2])):
                    total += iu * iv * iw * self.copula_cdf(u, v, w)
        return total

    def sample_triple(self, rng, n: int):
        """n exact draws of (X1, X2, theta).

        A sampler can round a uniform up to 1 (chance ~1e-16 per draw),
        where the quantiles are undefined; such values are clipped to
        the largest double below 1, and no value below 1 is touched.
        """
        u, v, w = self.sample_uniform(rng, n)
        for p in (u, v, w):
            np.minimum(p, _BELOW_ONE, out=p)
        return self.f1.quantile(u), self.f2.quantile(v), self.g_dist.quantile(w)

    def _window(self, i: int, win: LocalWindow):
        """(u_lo, u_hi, width) of the window on the uniform scale of claim i.

        The width is computed from the marginal local probability, not as
        a difference of corner values, so it stays accurate deep in the
        tail where u_lo and u_hi agree to machine precision.
        """
        fi = self.f1 if i == 1 else self.f2
        u_lo = fi.cdf(win.x)
        if math.isinf(win.d):
            return u_lo, 1.0, np.asarray(fi.sf(win.x))
        return u_lo, fi.cdf(win.x + win.d), np.asarray(local_prob(fi, win))

    def cond_local_prob_given_theta(self, i: int, win: LocalWindow, s):
        """Exact P(X_i in (x, x+d] | theta = s), factored in the window width."""
        raise NotImplementedError

    def cond_joint_local_prob_given_theta(self, win1: LocalWindow, win2: LocalWindow, s):
        """Exact P(X1 in win1, X2 in win2 | theta = s), factored in both widths."""
        raise NotImplementedError

    def cond_local_prob_given_other(self, i: int, win: LocalWindow, z, s):
        """Exact P(X_i in (x, x+d] | X_j = z, theta = s), j the other claim."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Sarmanov with FGM kernels


@dataclass(frozen=True)
class SarmanovFGM(DependenceSpec):
    """Sarmanov joint density with kernels phi(t) = 1 - 2*CDF(t).

    The copula density is 1 + sum gamma_ij phi_i phi_j on the unit cube;
    nonnegativity over the cube requires all four corner values
    1 +/- g12 +/- g13 +/- g23 (with consistent signs) to be positive.
    The large-claim kernel limits are phi_1 = phi_2 = -1.
    """

    f1: Marginal
    f2: Marginal
    g_dist: Marginal
    g12: float
    g13: float
    g23: float

    def __post_init__(self):
        for g in (self.g12, self.g13, self.g23):
            if abs(g) > 1:
                raise ValueError("FGM coefficients must lie in [-1, 1]")
        corners = [
            1 + self.g12 + self.g13 + self.g23,
            1 + self.g12 - self.g13 - self.g23,
            1 - self.g12 + self.g13 - self.g23,
            1 - self.g12 - self.g13 + self.g23,
        ]
        if min(corners) <= 0:
            raise ValueError(
                "invalid FGM parameters: the joint density reaches "
                f"{min(corners):g} <= 0 on the unit cube"
            )

    def copula_cdf(self, u, v, w):
        u, v, w = (np.asarray(t, dtype=float) for t in (u, v, w))
        uu, vv, ww = u * (1 - u), v * (1 - v), w * (1 - w)
        return (u * v * w + self.g12 * uu * vv * w + self.g13 * uu * v * ww + self.g23 * u * vv * ww)[()]

    def cond_cdf_given_w(self, u, v, w):
        u, v, w = (np.asarray(t, dtype=float) for t in (u, v, w))
        uu, vv = u * (1 - u), v * (1 - v)
        dw = 1 - 2 * w
        return (u * v + self.g12 * uu * vv + self.g13 * uu * v * dw + self.g23 * u * vv * dw)[()]

    def cond_cdf_given_vw(self, i, u, v, w):
        u, v, w = (np.asarray(t, dtype=float) for t in (u, v, w))
        uu = u * (1 - u)
        dv, dw = 1 - 2 * v, 1 - 2 * w
        g_uv, g_uw, g_vw = self._oriented(i)
        num = u + g_uv * uu * dv + g_uw * uu * dw + g_vw * u * dv * dw
        return (num / (1 + g_vw * dv * dw))[()]

    def _oriented(self, i):
        # (claim-other coupling, claim-time coupling, other-time coupling)
        if i == 1:
            return self.g12, self.g13, self.g23
        return self.g12, self.g23, self.g13

    def cond_local_prob_given_theta(self, i, win, s):
        # factored form: the polynomial corner differences collapse to a
        # single multiple of the window width, avoiding cancellation
        u_lo, u_hi, du = self._window(i, win)
        dw = 1 - 2 * self.g_dist.cdf(s)
        g = self.g13 if i == 1 else self.g23
        return (du * (1 + g * (1 - u_lo - u_hi) * dw))[()]

    def cond_joint_local_prob_given_theta(self, win1, win2, s):
        u_lo, u_hi, du = self._window(1, win1)
        v_lo, v_hi, dv = self._window(2, win2)
        dw = 1 - 2 * self.g_dist.cdf(s)
        su, sv = 1 - u_lo - u_hi, 1 - v_lo - v_hi
        return (du * dv * (1 + self.g12 * su * sv + self.g13 * su * dw + self.g23 * sv * dw))[()]

    def cond_local_prob_given_other(self, i, win, z, s):
        fj = self.f2 if i == 1 else self.f1
        u_lo, u_hi, du = self._window(i, win)
        dv = 1 - 2 * fj.cdf(z)
        dw = 1 - 2 * self.g_dist.cdf(s)
        su = 1 - u_lo - u_hi
        g_uv, g_uw, g_vw = self._oriented(i)
        num = du * (1 + g_uv * su * dv + g_uw * su * dw + g_vw * dv * dw)
        return (num / (1 + g_vw * dv * dw))[()]

    def sample_uniform(self, rng, n):
        # conditional inversion: W is uniform, and V given W and U given
        # (V, W) both have the CDF x + a x (1 - x) with |a| < 1 on valid
        # parameters, inverted as the root of a x^2 - (1 + a) x + p = 0
        pu, pv, w = rng.random(n), rng.random(n), rng.random(n)
        dw = 1 - 2 * w
        a = self.g23 * dw
        v = _quadratic_root(a, -(1 + a), pv)
        dv = 1 - 2 * v
        a = (self.g12 * dv + self.g13 * dw) / (1 + self.g23 * dv * dw)
        return _quadratic_root(a, -(1 + a), pu), v, w

    def h_func(self, i, s):
        phi3 = 1 - 2 * self.g_dist.cdf(s)
        g = self.g13 if i == 1 else self.g23
        return 1 - g * phi3

    def g_func(self, s):
        phi3 = 1 - 2 * self.g_dist.cdf(s)
        return 1 + self.g12 - (self.g13 + self.g23) * phi3

    def g_ij_func(self, i, j, z, s):
        if {i, j} != {1, 2}:
            raise ValueError("need i != j in {1, 2}")
        phi3 = 1 - 2 * self.g_dist.cdf(s)
        fj = self.f2 if j == 2 else self.f1
        phij = 1 - 2 * fj.cdf(z)
        g_ij = self.g12
        g_i3 = self.g13 if i == 1 else self.g23
        g_j3 = self.g23 if i == 1 else self.g13
        denom = 1 + g_j3 * phij * phi3
        if np.any(np.asarray(denom) < 1e-12):
            raise ValueError("conditional density of (X_j, theta) vanishes on the grid")
        return 1 - (g_ij * phij + g_i3 * phi3) / denom


@dataclass(frozen=True)
class Independent(SarmanovFGM):
    """Independence: the FGM variant with all three coefficients 0."""

    g12: float = field(default=0.0, init=False)
    g13: float = field(default=0.0, init=False)
    g23: float = field(default=0.0, init=False)

    def sample_uniform(self, rng, n):
        # the FGM inversions are the identity here; skip their arithmetic
        return rng.random(n), rng.random(n), rng.random(n)


# ---------------------------------------------------------------------------
# Frank machinery shared by the two Frank-based variants


def _lam(gamma, t):
    return np.expm1(-gamma * np.asarray(t, dtype=float))


def _log1mexp(x):
    """log(1 - e^-x) for x > 0 without cancellation at either end (Maechler 2012)."""
    with np.errstate(divide="ignore"):  # log1p(-1) where the other branch is taken
        return np.where(x <= _LN2, np.log(-np.expm1(-x)), np.log1p(-np.exp(-x)))


def _frank_frailty(rng, gamma: float, n: int) -> np.ndarray:
    """n logarithmic-series variates, P(K = k) = p^k / (k gamma) with p = 1 - e^-gamma.

    Kemp's (1981) LK method: with V, U uniform on (0, 1],
    K = floor(1 + log V / log(1 - e^{-gamma U})), a geometric variate
    mixed over U.  It needs no p, so it holds where p rounds to 1, and
    both ends of (0, 1] give a finite K >= 1 while e^-gamma is a normal
    double.  Returned as floats.
    """
    v, x = 1.0 - rng.random((2, n))
    x *= gamma
    return np.floor(1.0 + np.log(v) / _log1mexp(x))


@dataclass(frozen=True)
class _Frank(DependenceSpec):
    """Frank algebra shared by both Frank variants: lam(t) = expm1(-gamma t), alpha = lam(1)."""

    f1: Marginal
    f2: Marginal
    g_dist: Marginal
    gamma: float

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError("Frank parameter gamma must be > 0")

    @property
    def _alpha(self):
        return math.expm1(-self.gamma)

    def _dlam(self, lo, d):
        """lam(lo + d) - lam(lo) without cancellation."""
        return np.exp(-self.gamma * np.asarray(lo, dtype=float)) * np.expm1(-self.gamma * d)

    def cond_local_prob_given_theta(self, i, win, s):
        # exact factored corner difference of dC/dw with the other claim's
        # argument at 1, where both variants reduce to the bivariate Frank
        a = self._alpha
        u_lo, u_hi, du = self._window(i, win)
        lw = _lam(self.gamma, self.g_dist.cdf(s))
        l1, l2 = _lam(self.gamma, u_lo), _lam(self.gamma, u_hi)
        dl = self._dlam(u_lo, du)
        return ((1 + lw) * a * dl / ((a + l2 * lw) * (a + l1 * lw)))[()]

    def h_func(self, i, s):
        gs = self.g_dist.cdf(s)
        return self.gamma * np.exp(self.gamma * gs) / math.expm1(self.gamma)


@dataclass(frozen=True)
class FrankTri(_Frank):
    """Exchangeable tri-dimensional Frank copula, gamma > 0."""

    def copula_cdf(self, u, v, w):
        a = self._alpha
        lu, lv, lw = _lam(self.gamma, u), _lam(self.gamma, v), _lam(self.gamma, w)
        return (-np.log1p(lu * lv * lw / a**2) / self.gamma)[()]

    def cond_cdf_given_w(self, u, v, w):
        a = self._alpha
        lu, lv, lw = _lam(self.gamma, u), _lam(self.gamma, v), _lam(self.gamma, w)
        return ((1 + lw) * lu * lv / (a**2 + lu * lv * lw))[()]

    def cond_cdf_given_vw(self, i, u, v, w):
        a = self._alpha
        lu, lv, lw = _lam(self.gamma, u), _lam(self.gamma, v), _lam(self.gamma, w)
        return (lu * a * (a + lv * lw) ** 2 / (a**2 + lu * lv * lw) ** 2)[()]

    def cond_joint_local_prob_given_theta(self, win1, win2, s):
        a = self._alpha
        u_lo, u_hi, du = self._window(1, win1)
        v_lo, v_hi, dv = self._window(2, win2)
        lw = _lam(self.gamma, self.g_dist.cdf(s))
        lu1, lu2 = _lam(self.gamma, u_lo), _lam(self.gamma, u_hi)
        lv1, lv2 = _lam(self.gamma, v_lo), _lam(self.gamma, v_hi)
        dlu, dlv = self._dlam(u_lo, du), self._dlam(v_lo, dv)
        denom = (
            (a**2 + lu1 * lv1 * lw)
            * (a**2 + lu1 * lv2 * lw)
            * (a**2 + lu2 * lv1 * lw)
            * (a**2 + lu2 * lv2 * lw)
        )
        num = (1 + lw) * a**2 * dlu * dlv * (a**4 - lu1 * lu2 * lv1 * lv2 * lw**2)
        return (num / denom)[()]

    def cond_local_prob_given_other(self, i, win, z, s):
        a = self._alpha
        fj = self.f2 if i == 1 else self.f1
        u_lo, u_hi, du = self._window(i, win)
        lv = _lam(self.gamma, fj.cdf(z))
        lw = _lam(self.gamma, self.g_dist.cdf(s))
        lu1, lu2 = _lam(self.gamma, u_lo), _lam(self.gamma, u_hi)
        dlu = self._dlam(u_lo, du)
        c = lv * lw
        num = a * (a + c) ** 2 * dlu * (a**4 - c**2 * lu1 * lu2)
        return (num / ((a**2 + lu2 * c) ** 2 * (a**2 + lu1 * c) ** 2))[()]

    def sample_uniform(self, rng, n):
        # Marshall-Olkin: a logarithmic-series frailty K, then the generator
        # inverse -log(e^-gamma + alpha expm1(-E / K)) / gamma in place on one
        # (3, n) buffer; both terms of the sum are >= 0, so nothing cancels
        frail = _frank_frailty(rng, self.gamma, n)
        vals = rng.standard_exponential((3, n))
        vals /= frail
        np.negative(vals, out=vals)
        np.expm1(vals, out=vals)
        vals *= self._alpha
        vals += math.exp(-self.gamma)
        np.log(vals, out=vals)
        vals /= -self.gamma
        return vals[0], vals[1], vals[2]

    def sample_uniform_conditional(self, rng, n):
        """Conditional-distribution sampler; slower oracle for the frailty path.

        Valid only for gamma <= 10, and its test uses gamma = 1.5.  The
        quadratic for w loses its discriminant to cancellation beyond that
        (NaN for 2.2% of draws at gamma = 20 and 25% at 30, seed 0, 2e5
        draws), so it is no oracle for large gamma; ``sample_uniform`` is.
        """
        a = self._alpha
        u = rng.random(n)
        lu = _lam(self.gamma, u)
        p2 = rng.random(n)
        lv = p2 * a / (1 + lu - p2 * lu)
        v = -np.log1p(lv) / self.gamma
        p3 = rng.random(n)
        # P(W <= w | U, V) = lw * a * (a + c)^2 / (a^2 + c*lw)^2 with c = lu*lv
        # solves a quadratic in lw
        c = lu * lv
        qa = p3 * a * c**2
        qb = 2 * p3 * a**3 * c - a**2 * (a + c) ** 2
        qc = p3 * a**5
        return u, v, -np.log1p(_quadratic_root(qa, qb, qc)) / self.gamma

    def g_func(self, s):
        gs = self.g_dist.cdf(s)
        e = np.exp(self.gamma * gs)
        return self.gamma**2 * (2 * e**2 - e) / math.expm1(self.gamma) ** 2

    def g_ij_func(self, i, j, z, s):
        if {i, j} != {1, 2}:
            raise ValueError("need i != j in {1, 2}")
        a = self._alpha
        fj = self.f2 if j == 2 else self.f1
        lz = _lam(self.gamma, fj.cdf(z))
        ls = _lam(self.gamma, self.g_dist.cdf(s))
        ratio = (a - lz * ls) / (a + lz * ls)
        return self.gamma / math.expm1(self.gamma) * ratio


@dataclass(frozen=True)
class NestedFrankProduct(_Frank):
    """Product copula of the claim pair nested in a bivariate Frank copula.

    C(u, v, w) = C_gamma(u*v, w).  The joint density stays nonnegative on
    the unit cube only for 0 < gamma <= 1 (at larger gamma it goes
    negative near the corner (1,1,0), which C-volume checks detect); the
    same restriction keeps the horizon bounds of g and g_ij positive.
    Construction accepts any gamma > 0 so the failure is observable.
    """

    def copula_cdf(self, u, v, w):
        a = self._alpha
        lk = _lam(self.gamma, np.asarray(u, dtype=float) * v)
        lw = _lam(self.gamma, w)
        return (-np.log1p(lk * lw / a) / self.gamma)[()]

    def cond_cdf_given_w(self, u, v, w):
        a = self._alpha
        lk = _lam(self.gamma, np.asarray(u, dtype=float) * v)
        lw = _lam(self.gamma, w)
        return ((1 + lw) * lk / (a + lk * lw))[()]

    def cond_cdf_given_vw(self, i, u, v, w):
        a = self._alpha
        u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
        lk = _lam(self.gamma, u * v)
        lv = _lam(self.gamma, v)
        lw = _lam(self.gamma, w)
        return (u * (1 + lk) * (a + lv * lw) ** 2 / ((1 + lv) * (a + lk * lw) ** 2))[()]

    def cond_joint_local_prob_given_theta(self, win1, win2, s):
        # four-corner difference of dC/dw = (1 + lw) lk / D, D = a + lk lw, k = uv;
        # each u-difference at fixed v is (1 + lw) a (lk - lk') / (D D'), and the
        # lk differences and the mixed one, lk22 - lk21 - lk12 + lk11, are taken
        # without cancellation, so the result is factored in du and dv
        a, g = self._alpha, self.gamma
        u1, _, du = self._window(1, win1)
        v1, _, dv = self._window(2, win2)
        lw = _lam(g, self.g_dist.cdf(s))
        k11 = u1 * v1
        dl_u1 = self._dlam(k11, du * v1)  # lk21 - lk11
        dl_v1 = self._dlam(k11, u1 * dv)  # lk12 - lk11
        dl_v2 = self._dlam(k11 + du * v1, (u1 + du) * dv)  # lk22 - lk21
        ea, eb = np.expm1(-g * du * v1), np.expm1(-g * u1 * dv)
        mixed = np.exp(-g * k11) * (ea * eb + (1 + ea) * (1 + eb) * np.expm1(-g * du * dv))
        d11 = a + _lam(g, k11) * lw
        d21, d12 = d11 + lw * dl_u1, d11 + lw * dl_v1
        d22 = d21 + lw * dl_v2
        num = mixed * d21 * d11 - dl_u1 * lw * (dl_v2 * d11 + dl_v1 * d21 + lw * dl_v1 * dl_v2)
        return ((1 + lw) * a * num / (d11 * d12 * d21 * d22))[()]

    def cond_local_prob_given_other(self, i, win, z, s):
        # u (1 + lk) / D(k)^2 differenced over the window, factored in du
        # through D2 - D1 = lw dlk and 1 + lk2 = 1 + lk1 + dlk
        a, g = self._alpha, self.gamma
        fj = self.f2 if i == 1 else self.f1
        u1, _, du = self._window(i, win)
        v = np.asarray(fj.cdf(z), dtype=float)
        lv, lw = _lam(g, v), _lam(g, self.g_dist.cdf(s))
        k1 = u1 * v
        lk1 = _lam(g, k1)
        dlk = self._dlam(k1, du * v)
        d1 = a + lk1 * lw
        d2 = d1 + lw * dlk
        num = du * (1 + lk1 + dlk) * d1**2 + u1 * dlk * (d1**2 - (1 + lk1) * lw * (d1 + d2))
        return ((a + lv * lw) ** 2 * num / ((1 + lv) * d1**2 * d2**2))[()]

    def sample_uniform(self, rng, n):
        # P(W <= w | U, V) = p is a quadratic in lw = lam(w); with k = u*v,
        # P(W <= w | U, V) = (1 + lk) lw (d - gamma k (a - lw)) / d^2, d = a + lk lw
        a = self._alpha
        u, v = rng.random(n), rng.random(n)
        k = u * v
        p = rng.random(n)
        lk, gk = _lam(self.gamma, k), self.gamma * k
        qa = (1 + lk) * (lk + gk) - p * lk**2
        qb = a * ((1 + lk) * (1 - gk) - 2 * p * lk)
        qc = -p * a**2
        return u, v, -np.log1p(_quadratic_root(qa, qb, qc)) / self.gamma

    def g_func(self, s):
        # corner density of the claim pair given theta: with k = uv and
        # D = dC/dw, this is D_k + k D_kk evaluated at k = 1
        g = self.gamma
        e = np.exp(g * self.g_dist.cdf(s))
        num = g * (math.exp(-g) - math.exp(-2 * g)) * e + g**2 * e * (
            2 * math.exp(-2 * g) * e - math.exp(-g) - math.exp(-2 * g)
        )
        return num / (-math.expm1(-g)) ** 2

    def g_ij_func(self, i, j, z, s):
        if {i, j} != {1, 2}:
            raise ValueError("need i != j in {1, 2}")
        g = self.gamma
        a = self._alpha
        fj = self.f2 if j == 2 else self.f1
        fz = fj.cdf(z)
        lz = _lam(g, fz)
        ls = _lam(g, self.g_dist.cdf(s))
        num = g * fz * (-a + (np.exp(-g * fz) + 1) * ls)
        return 1 + num / (a + lz * ls)


# ---------------------------------------------------------------------------
# Horizon bounds, scans, checks


def bounds_over_horizon(spec: DependenceSpec, horizon: float) -> BoundsReport:
    """Grid estimates of the Conditions-1/2/3 horizon constants.

    ``b`` bounds come from h_i over 101 points s in [0, T], ``d`` bounds
    from g, and ``a`` bounds from g_ij over the (z, s) grid, z in 0..50
    and 1e2..1e12.  C1-C3 are estimated as the largest conditional/
    unconditional local-probability ratio minus 1 over the grids, probing
    the windows (x, x+1] for x = 1e3 and 1e4.
    """
    s_grid = np.linspace(0.0, horizon, 101)
    z_grid = np.concatenate([np.linspace(0.0, 50.0, 51), [1e2, 1e3, 1e6, 1e12]])
    warnings = []

    h_vals = np.concatenate([np.asarray(spec.h_func(i, s_grid)).ravel() for i in (1, 2)])
    g_vals = np.asarray(spec.g_func(s_grid)).ravel()
    zz, ss = np.meshgrid(z_grid, s_grid, indexing="ij")
    gij_vals = np.concatenate(
        [np.asarray(spec.g_ij_func(i, j, zz, ss)).ravel() for i, j in ((1, 2), (2, 1))]
    )
    if isinstance(spec, NestedFrankProduct) and spec.gamma >= 1:
        warnings.append(
            "nested-product variant needs 0 < gamma < 1 for a positive lower g_ij bound"
        )
    if gij_vals.min() <= 0:
        warnings.append("g_ij is nonpositive on the grid: Condition 3 fails for this horizon")

    c1 = c2 = c3 = 0.0
    for x in (1e3, 1e4):
        win = LocalWindow(x, 1.0)
        for i in (1, 2):
            base = local_prob(spec.f1 if i == 1 else spec.f2, win)
            cond = np.asarray(spec.cond_local_prob_given_theta(i, win, s_grid))
            c1 = max(c1, float(np.max(cond / base)) - 1.0)
            condz = np.asarray(spec.cond_local_prob_given_other(i, win, zz, ss))
            c3 = max(c3, float(np.max(condz / base)) - 1.0)
        base2 = local_prob(spec.f1, win) * local_prob(spec.f2, win)
        cond2 = np.asarray(spec.cond_joint_local_prob_given_theta(win, win, s_grid))
        c2 = max(c2, float(np.max(cond2 / base2)) - 1.0)

    return BoundsReport(
        horizon=horizon,
        b_lower=float(h_vals.min()),
        b_upper=float(h_vals.max()),
        d_lower=float(g_vals.min()),
        d_upper=float(g_vals.max()),
        a_lower=float(gij_vals.min()),
        a_upper=float(gij_vals.max()),
        c1=max(c1, 0.0),
        c2=max(c2, 0.0),
        c3=max(c3, 0.0),
        warnings=tuple(warnings),
    )


def condition_ratio_scan(
    spec: DependenceSpec,
    i: int,
    s_grid,
    x_grid,
    d: float,
    condition: int = 1,
) -> np.ndarray:
    """Max deviation of exact/asymptotic conditional ratios from 1, per x.

    condition=1 checks the single-claim conditional against F_i * h_i;
    condition=2 the joint conditional against F_1 F_2 * g; condition=3 the
    conditional given the other claim against F_i * g_ij, over z in 0..20,
    1e2 and 1e4.  For heavy-tailed marginals the deviations must shrink
    along an increasing x grid.
    """
    s_grid = np.asarray(s_grid, dtype=float)
    out = np.empty(len(x_grid))
    fi = spec.f1 if i == 1 else spec.f2
    for k, x in enumerate(x_grid):
        win = LocalWindow(x, d)
        if condition == 1:
            exact = np.asarray(spec.cond_local_prob_given_theta(i, win, s_grid))
            asym = local_prob(fi, win) * np.asarray(spec.h_func(i, s_grid))
        elif condition == 2:
            exact = np.asarray(spec.cond_joint_local_prob_given_theta(win, win, s_grid))
            asym = local_prob(spec.f1, win) * local_prob(spec.f2, win) * np.asarray(spec.g_func(s_grid))
        elif condition == 3:
            z_grid = np.concatenate([np.linspace(0.0, 20.0, 21), [1e2, 1e4]])
            zz, ss = np.meshgrid(z_grid, s_grid, indexing="ij")
            j = 2 if i == 1 else 1
            exact = np.asarray(spec.cond_local_prob_given_other(i, win, zz, ss))
            asym = local_prob(fi, win) * np.asarray(spec.g_ij_func(i, j, zz, ss))
        else:
            raise ValueError("condition must be 1, 2 or 3")
        out[k] = float(np.max(np.abs(exact / asym - 1.0)))
    return out


def mean_h_check(spec: DependenceSpec, i: int) -> float:
    """E h_i(theta) by 200-node Gauss-Legendre quadrature; equals 1 by total probability.

    Every variant's h_i depends on s only through G(s), so the integral
    against G(ds) is a smooth integral over the unit interval.
    """
    nodes, weights = np.polynomial.legendre.leggauss(200)
    p = 0.5 * (nodes + 1.0)
    with np.errstate(over="ignore"):
        s = spec.g_dist.quantile(np.minimum(p, 1.0 - 1e-14))
    vals = np.asarray(spec.h_func(i, s), dtype=float)
    return float(np.sum(vals * weights) * 0.5)
