"""Tri-dimensional dependence structures for (X1, X2, theta).

Four variants: the Sarmanov family with FGM kernels, independence as its
zero-coefficient member, the exchangeable tri-dimensional Frank copula,
and a product copula nested inside a bivariate Frank copula.  Each
variant carries

* the joint copula CDF and C-volumes,
* exact conditional distributions (given theta; given the other claim and
  theta), obtained from closed-form copula partial derivatives, and the
  window probabilities under them, each formed per unit window width so
  they stay accurate deep in the tail, and finite where a width underflows,
* an exact closed-form sampler in two stages: ``sample_uniform`` draws W
  and the per-arrival state the claims need, and ``sample_uv`` draws
  (U, V) given that state, for only the arrivals a caller keeps (the
  two Frank variants share their generator algebra),
* the closed-form dependence weights h_i(s), g(s), g_ij(z, s) describing
  the large-claim limits of those conditionals, and grid estimates of
  their horizon bounds.

Each variant states only copula algebra, on the uniform scale
(U, V, W) = (F1(X1), F2(X2), G(theta)) of Sklar's theorem.  The weights
and window probabilities are ``DependenceSpec`` methods that map their
arguments to that scale once (a window (x, x+d] of claim i to
(u_lo, u_hi, width) through F_i, theta = s to w = G(s), the other claim's
value z to v = F_j(z)) and call the variant's uniform-scale forms
``_h``, ``_g``, ``_g_ij``, ``_given_w``, ``_joint_given_w`` and ``_given_vw``;
the last three are per unit window width, and the methods multiply by
the widths once.

Conditions 1-3 are evaluated in one place, ``_condition_terms``: for
each Condition and claim (``CONDITION_CLAIMS``) it gives the limit weight
and the exact conditional/unconditional window-probability ratio, which
is the per-unit form itself, so it stays finite where a window
probability underflows.  The horizon bounds and the conditional-ratio
scans both read it, so the scans cross-check the hard-coded weights
against the exact conditionals with the same terms the bounds report.
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
        """The per-arrival stage: n draws of W, and the state their (U, V) are drawn from.

        Returns ``(w, state)``; ``state`` is an array whose last axis runs
        over the n arrivals, so a caller keeps the arrivals it wants
        claims for by indexing that axis.
        """
        raise NotImplementedError

    def sample_uv(self, rng, state):
        """(U, V) given W for the arrivals of ``state``, all of sample_uniform's or any subset."""
        raise NotImplementedError

    # --- model scale: every argument mapped to the unit cube once --------

    def _marginal(self, i: int) -> Marginal:
        return self.f1 if i == 1 else self.f2

    def _window(self, i: int, win: LocalWindow):
        """(u_lo, u_hi, width) of the window on the uniform scale of claim i.

        The width is computed from the marginal local probability, not as
        a difference of corner values, so it stays accurate deep in the
        tail where u_lo and u_hi agree to machine precision.
        """
        fi = self._marginal(i)
        return fi.cdf(win.x), fi.cdf(win.x + win.d), np.asarray(local_prob(fi, win))

    def h_func(self, i: int, s):
        """The limit weight of claim i given theta = s."""
        return self._h(i, self.g_dist.cdf(s))

    def g_func(self, s):
        """The limit weight of the claim pair given theta = s."""
        return self._g(self.g_dist.cdf(s))

    def g_ij_func(self, i: int, z, s):
        """The limit weight of claim i given the other claim at z and theta = s."""
        return self._g_ij(i, self._marginal(3 - i).cdf(z), self.g_dist.cdf(s))

    def cond_local_prob_given_theta(self, i: int, win: LocalWindow, s):
        """Exact P(X_i in (x, x+d] | theta = s): the width times the per-unit form."""
        u = self._window(i, win)
        return (u[2] * self._given_w(i, *u, self.g_dist.cdf(s)))[()]

    def cond_joint_local_prob_given_theta(self, win1: LocalWindow, win2: LocalWindow, s):
        """Exact P(X1 in win1, X2 in win2 | theta = s): both widths times the per-unit form."""
        u, v = self._window(1, win1), self._window(2, win2)
        return (u[2] * v[2] * self._joint_given_w(*u, *v, self.g_dist.cdf(s)))[()]

    def cond_local_prob_given_other(self, i: int, win: LocalWindow, z, s):
        """Exact P(X_i in (x, x+d] | X_j = z, theta = s), j the other claim."""
        u = self._window(i, win)
        return (u[2] * self._given_vw(i, *u, self._marginal(3 - i).cdf(z), self.g_dist.cdf(s)))[()]

    # --- derived operations -----------------------------------------------

    def c_volumes(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Vectorized C-volumes for boxes given by (n,3) corner arrays."""
        total = np.zeros(lo.shape[0])
        for iu, u in ((1, hi[:, 0]), (-1, lo[:, 0])):
            for iv, v in ((1, hi[:, 1]), (-1, lo[:, 1])):
                for iw, w in ((1, hi[:, 2]), (-1, lo[:, 2])):
                    total += iu * iv * iw * self.copula_cdf(u, v, w)
        return total

    # A sampler can round a uniform up to 1 (chance ~1e-16 per draw), where
    # the quantiles are undefined; the two stages below clip such values to
    # the largest double below 1 in place, and touch no value below 1.

    def sample_theta(self, rng, n: int):
        """n exact draws of theta, and the state their claims are drawn from."""
        w, state = self.sample_uniform(rng, n)
        return self.g_dist.quantile(np.minimum(w, _BELOW_ONE, out=w)), state

    def sample_claims(self, rng, state):
        """Exact draws of (X1, X2) given theta, for the arrivals of ``state``."""
        u, v = self.sample_uv(rng, state)
        return (self.f1.quantile(np.minimum(u, _BELOW_ONE, out=u)),
                self.f2.quantile(np.minimum(v, _BELOW_ONE, out=v)))


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
        return (self.g12, self.g13, self.g23) if i == 1 else (self.g12, self.g23, self.g13)

    def _given_w(self, i, u_lo, u_hi, du, w):
        # the polynomial corner differences collapse to the window width
        # times this bracket, so nothing cancels
        return 1 + self._oriented(i)[1] * (1 - u_lo - u_hi) * (1 - 2 * w)

    def _joint_given_w(self, u_lo, u_hi, du, v_lo, v_hi, dv, w):
        dw = 1 - 2 * w
        su, sv = 1 - u_lo - u_hi, 1 - v_lo - v_hi
        return 1 + self.g12 * su * sv + self.g13 * su * dw + self.g23 * sv * dw

    def _given_vw(self, i, u_lo, u_hi, du, v, w):
        dv, dw = 1 - 2 * v, 1 - 2 * w
        su = 1 - u_lo - u_hi
        g_uv, g_uw, g_vw = self._oriented(i)
        return (1 + g_uv * su * dv + g_uw * su * dw + g_vw * dv * dw) / (1 + g_vw * dv * dw)

    def sample_uniform(self, rng, n):
        # W is uniform, and the claims need nothing else
        w = rng.random(n)
        return w, w

    def sample_uv(self, rng, w):
        # conditional inversion: V given W and U given (V, W) both have the
        # CDF x + a x (1 - x) with |a| < 1 on valid parameters, inverted as
        # the root of a x^2 - (1 + a) x + p = 0
        pv, pu = rng.random(w.size), rng.random(w.size)
        dw = 1 - 2 * w
        a = self.g23 * dw
        v = _quadratic_root(a, -(1 + a), pv)
        dv = 1 - 2 * v
        a = (self.g12 * dv + self.g13 * dw) / (1 + self.g23 * dv * dw)
        return _quadratic_root(a, -(1 + a), pu), v

    def _h(self, i, w):
        return 1 - self._oriented(i)[1] * (1 - 2 * w)

    def _g(self, w):
        return 1 + self.g12 - (self.g13 + self.g23) * (1 - 2 * w)

    def _g_ij(self, i, v, w):
        g_uv, g_uw, g_vw = self._oriented(i)
        phij, phi3 = 1 - 2 * v, 1 - 2 * w
        denom = 1 + g_vw * phij * phi3
        if np.any(np.asarray(denom) < 1e-12):
            raise ValueError("conditional density of (X_j, theta) vanishes on the grid")
        return 1 - (g_uv * phij + g_uw * phi3) / denom


@dataclass(frozen=True)
class Independent(SarmanovFGM):
    """Independence: the FGM variant with all three coefficients 0."""

    g12: float = field(default=0.0, init=False)
    g13: float = field(default=0.0, init=False)
    g23: float = field(default=0.0, init=False)

    def sample_uv(self, rng, w):
        # the FGM inversions are the identity here, bit for bit, so their
        # arithmetic is skipped
        v = rng.random(w.size)
        return rng.random(w.size), v


# ---------------------------------------------------------------------------
# Frank machinery shared by the two Frank-based variants


def _lam(gamma, t):
    return np.expm1(-gamma * np.asarray(t, dtype=float))


def _log1mexp(x):
    """log(1 - e^-x) for x > 0 without cancellation at either end (Maechler 2012).

    The branch that holds more of x runs over the whole array in place,
    and the other only on its own indices, bit for bit the values of
    ``np.where(x <= ln 2, log(-expm1(-x)), log1p(-exp(-x)))``.
    """
    small = x <= _LN2
    out = np.negative(x)
    with np.errstate(divide="ignore"):  # log1p(-1) where the other branch is taken
        if 2 * np.count_nonzero(small) >= x.size:
            np.log(np.negative(np.expm1(out, out=out), out=out), out=out)
            rest = np.flatnonzero(~small)
            out[rest] = np.log1p(-np.exp(-x[rest]))
        else:
            np.log1p(np.negative(np.exp(out, out=out), out=out), out=out)
            rest = np.flatnonzero(small)
            out[rest] = np.log(-np.expm1(-x[rest]))
    return out


def _frank_frailty(rng, gamma: float, w: np.ndarray) -> np.ndarray:
    """The Frank frailty K of each arrival given its W, as floats.

    In the Marshall-Olkin form of Frank's copula, K is logarithmic-series,
    P(K = k) = p^k / (k gamma) with p = 1 - e^-gamma, and given K each
    coordinate is psi(E / K) for a standard exponential E, where
    psi(s) = -log(1 - p e^-s) / gamma is the inverse generator.  Since
    psi(E / k) <= w exactly when E >= k psi^-1(w) and
    e^{-psi^-1(w)} = (1 - e^{-gamma w}) / p,

        P(K = k, W <= w) = p^k / (k gamma) * ((1 - e^{-gamma w}) / p)^k
                         = (1 - e^{-gamma w})^k / (k gamma).

    Summed over k this is w, so W is uniform; its derivative in w is
    q^(k-1) (1 - q) with q = 1 - e^{-gamma w}, so given W = w, K is
    geometric with P(K > k) = q^k.  That is Kemp's (1981) LK method with
    its mixing uniform played by W: with V uniform on (0, 1],
    K = floor(1 + log V / log(1 - e^{-gamma W})).  It needs no p, so it
    holds where p rounds to 1, and every W in [0, 1) and V in (0, 1]
    give a finite K >= 1 while e^-gamma is a normal double (W = 0 and
    V = 1 both give K = 1).
    """
    v = rng.random(w.size)
    np.subtract(1.0, v, out=v)
    np.log(v, out=v)
    v /= _log1mexp(gamma * w)
    v += 1.0
    return np.floor(v, out=v)


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

    def _per(self, lo, d):
        """(lam(lo + d) - lam(lo)) / d; -gamma e^(-gamma lo), its limit, where -gamma d is 0."""
        x = -self.gamma * np.asarray(d, dtype=float)
        rel = np.divide(np.expm1(x), x, out=np.ones_like(x), where=x != 0)  # expm1(x) / x
        return -self.gamma * np.exp(-self.gamma * np.asarray(lo, dtype=float)) * rel

    def _given_w(self, i, u_lo, u_hi, du, w):
        # exact factored corner difference of dC/dw with the other claim's
        # argument at 1, where both variants reduce to the bivariate Frank
        a = self._alpha
        lw = _lam(self.gamma, w)
        l1, l2 = _lam(self.gamma, u_lo), _lam(self.gamma, u_hi)
        return (1 + lw) * a * self._per(u_lo, du) / ((a + l2 * lw) * (a + l1 * lw))

    def _h(self, i, w):
        return self.gamma * np.exp(self.gamma * w) / math.expm1(self.gamma)


@dataclass(frozen=True)
class FrankTri(_Frank):
    """Exchangeable tri-dimensional Frank copula, gamma > 0."""

    def copula_cdf(self, u, v, w):
        a, g = self._alpha, self.gamma
        u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
        lu, lv, lw = _lam(g, u), _lam(g, v), _lam(g, w)
        t = lu * lv * lw / a**2
        # 1 + t cancels as t nears -1 (large gamma, u, v and w near 1); there it
        # is taken as (a^2 + lu lv lw) / a^2, whose numerator is a sum of three
        # terms >= 0: a (lam(1) - lam(u)) + lu (lam(1) - lam(v)) + lu lv e^(-gamma w)
        with np.errstate(divide="ignore", invalid="ignore"):
            ew = np.exp(-g * np.asarray(w, dtype=float))
            dlu, dlv = (np.exp(-g * x) * np.expm1(-g * (1 - x)) for x in (u, v))  # lam(1) - lam(x)
            q = (a * dlu + lu * dlv + lu * lv * ew) / a**2
            return (-np.where(t < -0.5, np.log(q), np.log1p(t)) / g)[()]

    def cond_cdf_given_w(self, u, v, w):
        a = self._alpha
        lu, lv, lw = _lam(self.gamma, u), _lam(self.gamma, v), _lam(self.gamma, w)
        return ((1 + lw) * lu * lv / (a**2 + lu * lv * lw))[()]

    def cond_cdf_given_vw(self, i, u, v, w):
        a = self._alpha
        lu, lv, lw = _lam(self.gamma, u), _lam(self.gamma, v), _lam(self.gamma, w)
        return (lu * a * (a + lv * lw) ** 2 / (a**2 + lu * lv * lw) ** 2)[()]

    def _joint_given_w(self, u_lo, u_hi, du, v_lo, v_hi, dv, w):
        a = self._alpha
        lw = _lam(self.gamma, w)
        lu1, lu2 = _lam(self.gamma, u_lo), _lam(self.gamma, u_hi)
        lv1, lv2 = _lam(self.gamma, v_lo), _lam(self.gamma, v_hi)
        dlu, dlv = self._per(u_lo, du), self._per(v_lo, dv)
        denom = (
            (a**2 + lu1 * lv1 * lw)
            * (a**2 + lu1 * lv2 * lw)
            * (a**2 + lu2 * lv1 * lw)
            * (a**2 + lu2 * lv2 * lw)
        )
        num = (1 + lw) * a**2 * dlu * dlv * (a**4 - lu1 * lu2 * lv1 * lv2 * lw**2)
        return num / denom

    def _given_vw(self, i, u_lo, u_hi, du, v, w):
        a = self._alpha
        lv, lw = _lam(self.gamma, v), _lam(self.gamma, w)
        lu1, lu2 = _lam(self.gamma, u_lo), _lam(self.gamma, u_hi)
        dlu = self._per(u_lo, du)
        c = lv * lw
        num = a * (a + c) ** 2 * dlu * (a**4 - c**2 * lu1 * lu2)
        return num / ((a**2 + lu2 * c) ** 2 * (a**2 + lu1 * c) ** 2)

    def sample_uniform(self, rng, n):
        # W is uniform and the frailty depends on W alone (_frank_frailty),
        # so W is its own state
        w = rng.random(n)
        return w, w

    def sample_uv(self, rng, w):
        # Marshall-Olkin: the frailty K given W, then the inverse generator
        # of E / K for two exponentials, in place on one (2, n) buffer
        frail = _frank_frailty(rng, self.gamma, w)
        vals = rng.standard_exponential((2, w.size))
        vals /= frail
        self._inv_generator(vals)
        return vals[0], vals[1]

    def _inv_generator(self, s):
        """psi(s) = -log(1 + alpha e^-s) / gamma, written over s >= 0.

        For gamma <= ln 2, 1 + alpha e^-s >= 1/2 and log1p keeps the
        relative accuracy of the small alpha e^-s.  Above, it is taken as
        e^-gamma + alpha expm1(-s), two terms >= 0, so nothing cancels
        where alpha e^-s nears -1.
        """
        np.negative(s, out=s)
        if self.gamma <= _LN2:
            np.exp(s, out=s)
            s *= self._alpha
            np.log1p(s, out=s)
        else:
            np.expm1(s, out=s)
            s *= self._alpha
            s += math.exp(-self.gamma)
            np.log(s, out=s)
        s /= -self.gamma
        return s

    def sample_uniform_conditional(self, rng, n):
        """Conditional-distribution sampler; slower oracle for the frailty path.

        Valid only for gamma <= 10, and its test uses gamma = 1.5.  The
        quadratic for w loses its discriminant to cancellation beyond that
        (NaN for 2.2% of draws at gamma = 20 and 25% at 30, seed 0, 2e5
        draws), so it is no oracle for large gamma; the frailty sampler is.
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

    def _g(self, w):
        e = np.exp(self.gamma * w)
        return self.gamma**2 * (2 * e**2 - e) / math.expm1(self.gamma) ** 2

    def _g_ij(self, i, v, w):
        a = self._alpha
        lz, ls = _lam(self.gamma, v), _lam(self.gamma, w)
        ratio = (a - lz * ls) / (a + lz * ls)
        return self.gamma / math.expm1(self.gamma) * ratio


@dataclass(frozen=True)
class NestedFrankProduct(_Frank):
    """Product copula of the claim pair nested in a bivariate Frank copula.

    C(u, v, w) = C_gamma(u*v, w).  The joint density stays nonnegative on
    the unit cube only for 0 < gamma <= 1 (at larger gamma it goes
    negative near the corner (1,1,0), which C-volume checks detect).  The
    horizon bounds of g and g_ij stay positive only for gamma < 1: at
    gamma = 1, g(0) = 0.
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

    def _joint_given_w(self, u1, u2, du, v1, v2, dv, w):
        # four-corner difference of dC/dw = (1 + lw) lk / D, D = a + lk lw, k = uv, per unit
        # du dv; each u-difference at fixed v is (1 + lw) a (lk - lk') / (D D'), and the lk
        # differences and the mixed one, lk22 - lk21 - lk12 + lk11, are per unit width too
        a, g = self._alpha, self.gamma
        lw = _lam(g, w)
        k11 = u1 * v1
        pu1 = v1 * self._per(k11, du * v1)  # (lk21 - lk11) / du
        pv1 = u1 * self._per(k11, u1 * dv)  # (lk12 - lk11) / dv
        pv2 = (u1 + du) * self._per(k11 + du * v1, (u1 + du) * dv)  # (lk22 - lk21) / dv
        ea, eb = np.expm1(-g * du * v1), np.expm1(-g * u1 * dv)
        # e^(-g k11) (ea eb + (1 + ea) (1 + eb) expm1(-g du dv)) / (du dv)
        mixed = pu1 * u1 * self._per(0.0, u1 * dv) + (1 + ea) * (1 + eb) * self._per(k11, du * dv)
        d11 = a + _lam(g, k11) * lw
        d21, d12 = d11 + lw * du * pu1, d11 + lw * dv * pv1
        d22 = d21 + lw * dv * pv2
        num = mixed * d21 * d11 - pu1 * lw * (pv2 * d11 + pv1 * d21 + lw * dv * pv1 * pv2)
        return (1 + lw) * a * num / (d11 * d12 * d21 * d22)

    def _given_vw(self, i, u1, u2, du, v, w):
        # u (1 + lk) / D(k)^2 differenced over the window, per unit du,
        # through D2 - D1 = lw dlk and 1 + lk2 = 1 + lk1 + dlk
        a, g = self._alpha, self.gamma
        lv, lw = _lam(g, v), _lam(g, w)
        k1 = u1 * v
        lk1 = _lam(g, k1)
        pk = v * self._per(k1, du * v)  # (lk2 - lk1) / du
        d1 = a + lk1 * lw
        d2 = d1 + lw * du * pk
        num = (1 + lk1 + du * pk) * d1**2 + u1 * pk * (d1**2 - (1 + lk1) * lw * (d1 + d2))
        return (a + lv * lw) ** 2 * num / ((1 + lv) * d1**2 * d2**2)

    def sample_uniform(self, rng, n):
        # (U, V) first, as the state; P(W <= w | U, V) = p is a quadratic in
        # lw = lam(w); with k = u*v,
        # P(W <= w | U, V) = (1 + lk) lw (d - gamma k (a - lw)) / d^2, d = a + lk lw
        a = self._alpha
        uv = rng.random((2, n))
        k = uv[0] * uv[1]
        p = rng.random(n)
        lk, gk = _lam(self.gamma, k), self.gamma * k
        qa = (1 + lk) * (lk + gk) - p * lk**2
        qb = a * ((1 + lk) * (1 - gk) - 2 * p * lk)
        qc = -p * a**2
        return -np.log1p(_quadratic_root(qa, qb, qc)) / self.gamma, uv

    def sample_uv(self, rng, uv):
        return uv[0], uv[1]

    def _g(self, w):
        # corner density of the claim pair given theta: with k = uv and
        # D = dC/dw, this is D_k + k D_kk evaluated at k = 1
        g = self.gamma
        e = np.exp(g * w)
        num = g * (math.exp(-g) - math.exp(-2 * g)) * e + g**2 * e * (
            2 * math.exp(-2 * g) * e - math.exp(-g) - math.exp(-2 * g)
        )
        return num / (-math.expm1(-g)) ** 2

    def _g_ij(self, i, v, w):
        g, a = self.gamma, self._alpha
        lz, ls = _lam(g, v), _lam(g, w)
        num = g * v * (-a + (np.exp(-g * v) + 1) * ls)
        return 1 + num / (a + lz * ls)


# ---------------------------------------------------------------------------
# Horizon bounds, scans, checks


#: the claims i each Condition is stated for; Condition 2 is about the pair
CONDITION_CLAIMS = {1: (1, 2), 2: (1,), 3: (1, 2)}


def _condition_terms(spec: DependenceSpec, condition: int, i: int, win: LocalWindow, s_grid, z_grid):
    """(exact conditional/unconditional window-probability ratio, limit weight) of a Condition.

    The conditioning is on theta = s (Condition 1: claim i, weight h_i;
    Condition 2: both claims in ``win``, weight g), or on the other claim
    at z and theta = s over the (z, s) grid (Condition 3, weight g_ij).
    The ratio is the per-unit form, which reads its limit, not 0/0, where
    the window probabilities underflow.
    """
    w = spec.g_dist.cdf(s_grid)
    if condition == 1:
        return spec._given_w(i, *spec._window(i, win), w), spec._h(i, w)
    if condition == 2:
        return spec._joint_given_w(*spec._window(1, win), *spec._window(2, win), w), spec._g(w)
    if condition == 3:
        v, ww = np.meshgrid(spec._marginal(3 - i).cdf(z_grid), w, indexing="ij")
        return spec._given_vw(i, *spec._window(i, win), v, ww), spec._g_ij(i, v, ww)
    raise ValueError("condition must be 1, 2 or 3")


def bounds_over_horizon(spec: DependenceSpec, horizon: float) -> BoundsReport:
    """Grid estimates of the Conditions-1/2/3 horizon constants.

    ``b`` bounds come from h_i over 101 points s in [0, T], ``d`` bounds
    from g, and ``a`` bounds from g_ij over the (z, s) grid, z in 0..50
    and 1e2..1e12.  A weight whose grid minimum is <= 0 fails its
    condition (h_i Condition 1, g Condition 2, g_ij Condition 3), with one
    warning each.  C1-C3 are estimated as the largest conditional/
    unconditional window-probability ratio minus 1 over the grids, probing
    the windows (x, x+1] for x = 1e3 and 1e4; each ratio is formed per unit
    width, so it is finite even where the window probabilities underflow.
    """
    s_grid = np.linspace(0.0, horizon, 101)
    z_grid = np.concatenate([np.linspace(0.0, 50.0, 51), [1e2, 1e3, 1e6, 1e12]])
    weights, c = [], []
    for k, claims in CONDITION_CLAIMS.items():
        probes = [_condition_terms(spec, k, i, LocalWindow(x, 1.0), s_grid, z_grid)
                  for i in claims for x in (1e3, 1e4)]
        c.append(max([0.0, *(float(np.max(ratio)) - 1.0 for ratio, _ in probes)]))
        # a weight does not depend on the window: one per claim
        weights.append(np.concatenate([np.asarray(weight).ravel() for _, weight in probes[::2]]))
    warnings = tuple(f"{name} is nonpositive on the grid: Condition {k} fails for this horizon"
                     for k, name, vals in zip(CONDITION_CLAIMS, ("h_i", "g", "g_ij"), weights) if vals.min() <= 0)
    # in field order: min and max of h_i (b), g (d) and g_ij (a), then C1-C3
    return BoundsReport(*(float(f(vals)) for vals in weights for f in (np.min, np.max)), *c, warnings=warnings)


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
    along an increasing x grid.  Where a weight is 0 the deviation is inf.
    """
    s_grid = np.asarray(s_grid, dtype=float)
    z_grid = np.concatenate([np.linspace(0.0, 20.0, 21), [1e2, 1e4]])
    out = np.empty(len(x_grid))
    for k, x in enumerate(x_grid):
        ratio, weight = _condition_terms(spec, condition, i, LocalWindow(x, d), s_grid, z_grid)
        quotient = np.divide(ratio, weight, out=np.full(np.shape(weight), np.inf), where=weight != 0)
        out[k] = float(np.max(np.abs(quotient - 1.0)))
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
