"""CDF-level closed forms of each copula family, for the tests only.

``renewalrisk.copulas`` states each family once, through its density and
its per-unit window probabilities.  The forms here are the independent
statement those are checked against: the copula CDF C(u, v, w), its
w-derivative P(U <= u, V <= v | W = w), the conditional CDF
P(U_i <= u | U_j = v, W = w), and C-volumes as 8-corner sums of C.
Each is one function that dispatches on the family (``Independent``
reads the FGM forms at zero coefficients).
"""

from functools import singledispatch

import numpy as np

from renewalrisk.copulas import FrankTri, NestedFrankProduct, SarmanovFGM, _lam


@singledispatch
def copula_cdf(spec, u, v, w):
    """C(u, v, w)."""
    raise TypeError(f"no copula CDF for {type(spec).__name__}")


@singledispatch
def cond_cdf_given_w(spec, u, v, w):
    """P(U <= u, V <= v | W = w) = dC/dw."""
    raise TypeError(f"no conditional CDF for {type(spec).__name__}")


@singledispatch
def cond_cdf_given_vw(spec, i: int, u, v, w):
    """P(U_i <= u | U_j = v, W = w) for the claim pair i != j."""
    raise TypeError(f"no conditional CDF for {type(spec).__name__}")


def c_volumes(spec, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Vectorized C-volumes for boxes given by (n,3) corner arrays."""
    total = np.zeros(lo.shape[0])
    for iu, u in ((1, hi[:, 0]), (-1, lo[:, 0])):
        for iv, v in ((1, hi[:, 1]), (-1, lo[:, 1])):
            for iw, w in ((1, hi[:, 2]), (-1, lo[:, 2])):
                total += iu * iv * iw * copula_cdf(spec, u, v, w)
    return total


# ---------------------------------------------------------------------------
# Sarmanov with FGM kernels


@copula_cdf.register(SarmanovFGM)
def _(spec, u, v, w):
    u, v, w = (np.asarray(t, dtype=float) for t in (u, v, w))
    uu, vv, ww = u * (1 - u), v * (1 - v), w * (1 - w)
    return (u * v * w + spec.g12 * uu * vv * w + spec.g13 * uu * v * ww + spec.g23 * u * vv * ww)[()]


@cond_cdf_given_w.register(SarmanovFGM)
def _(spec, u, v, w):
    u, v, w = (np.asarray(t, dtype=float) for t in (u, v, w))
    uu, vv = u * (1 - u), v * (1 - v)
    dw = 1 - 2 * w
    return (u * v + spec.g12 * uu * vv + spec.g13 * uu * v * dw + spec.g23 * u * vv * dw)[()]


@cond_cdf_given_vw.register(SarmanovFGM)
def _(spec, i, u, v, w):
    u, v, w = (np.asarray(t, dtype=float) for t in (u, v, w))
    uu = u * (1 - u)
    dv, dw = 1 - 2 * v, 1 - 2 * w
    g_uv, g_uw, g_vw = spec._oriented(i)
    num = u + g_uv * uu * dv + g_uw * uu * dw + g_vw * u * dv * dw
    return (num / (1 + g_vw * dv * dw))[()]


# ---------------------------------------------------------------------------
# Exchangeable tri-dimensional Frank


@copula_cdf.register(FrankTri)
def _(spec, u, v, w):
    a, g = spec._alpha, spec.gamma
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


@cond_cdf_given_w.register(FrankTri)
def _(spec, u, v, w):
    a = spec._alpha
    lu, lv, lw = _lam(spec.gamma, u), _lam(spec.gamma, v), _lam(spec.gamma, w)
    return ((1 + lw) * lu * lv / (a**2 + lu * lv * lw))[()]


@cond_cdf_given_vw.register(FrankTri)
def _(spec, i, u, v, w):
    a = spec._alpha
    lu, lv, lw = _lam(spec.gamma, u), _lam(spec.gamma, v), _lam(spec.gamma, w)
    return (lu * a * (a + lv * lw) ** 2 / (a**2 + lu * lv * lw) ** 2)[()]


# ---------------------------------------------------------------------------
# Product copula nested in a bivariate Frank copula: C(u, v, w) = C_gamma(u*v, w)


@copula_cdf.register(NestedFrankProduct)
def _(spec, u, v, w):
    a = spec._alpha
    lk = _lam(spec.gamma, np.asarray(u, dtype=float) * v)
    lw = _lam(spec.gamma, w)
    return (-np.log1p(lk * lw / a) / spec.gamma)[()]


@cond_cdf_given_w.register(NestedFrankProduct)
def _(spec, u, v, w):
    a = spec._alpha
    lk = _lam(spec.gamma, np.asarray(u, dtype=float) * v)
    lw = _lam(spec.gamma, w)
    return ((1 + lw) * lk / (a + lk * lw))[()]


@cond_cdf_given_vw.register(NestedFrankProduct)
def _(spec, i, u, v, w):
    a = spec._alpha
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    lk = _lam(spec.gamma, u * v)
    lv = _lam(spec.gamma, v)
    lw = _lam(spec.gamma, w)
    return (u * (1 + lk) * (a + lv * lw) ** 2 / ((1 + lv) * (a + lk * lw) ** 2))[()]
