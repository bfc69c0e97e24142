import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from renewalrisk.copulas import (
    _frank_frailty,
    _log1mexp,
    DependenceSpec,
    FrankTri,
    Independent,
    NestedFrankProduct,
    SarmanovFGM,
    bounds_over_horizon,
    condition_ratio_scan,
    mean_h_check,
)
from renewalrisk.marginals import Exponential, LocalWindow, Pareto, Weibull, local_prob

P1, P2, E1 = Pareto(1.0), Pareto(2.0), Exponential(1.0)


def make_specs():
    return [
        Independent(P1, P1, E1),
        FrankTri(P1, P2, E1, 0.5),
        FrankTri(P1, P1, E1, 1.0),
        FrankTri(P1, Weibull(0.5), E1, 3.0),
        NestedFrankProduct(P1, P2, E1, 0.5),
        NestedFrankProduct(P1, P1, E1, 1.0),
        SarmanovFGM(P1, P2, E1, 0.3, -0.2, 0.4),
        SarmanovFGM(P1, P1, E1, -0.5, 0.2, 0.1),
        # near the boundary: the smallest density corner is 0.09
        SarmanovFGM(P1, P1, E1, 0.9, 0.05, 0.04),
    ]


SPECS = make_specs()
IDS = [
    "indep", "frank05", "frank1", "frank3", "nested05", "nested1", "fgm1", "fgm2", "fgm3",
]

unit = st.floats(min_value=0.0, max_value=1.0)


def sample_uvw(spec, rng, n):
    """(U, V, W) of n arrivals through both sampler stages, in the kernel's draw order."""
    w, state = spec.sample_uniform(rng, n)
    u, v = spec.sample_uv(rng, state)
    return u, v, w


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
@given(u=unit, v=unit, w=unit)
@settings(max_examples=40, deadline=None)
def test_copula_boundary_and_margins(spec, u, v, w):
    c = float(spec.copula_cdf(u, v, w))
    assert 0.0 <= c <= min(u, v, w) + 1e-12
    assert float(spec.copula_cdf(u, 1.0, 1.0)) == pytest.approx(u, abs=1e-12)
    assert float(spec.copula_cdf(1.0, v, 1.0)) == pytest.approx(v, abs=1e-12)
    assert float(spec.copula_cdf(1.0, 1.0, w)) == pytest.approx(w, abs=1e-12)
    assert float(spec.copula_cdf(0.0, v, w)) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_c_volume_nonnegative(spec, data):
    corners = sorted(data.draw(st.lists(unit, min_size=6, max_size=6)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    lo = np.array([[corners[0], corners[2], corners[4]]])
    hi = np.array([[corners[1], corners[3], corners[5]]])
    perm = rng.permutation(3)
    assert spec.c_volumes(lo[:, perm], hi[:, perm])[0] >= -1e-12


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_cond_cdf_given_w_is_dC_dw(spec):
    # finite-difference check of dC/dw against the closed form
    eps = 1e-6
    for u, v, w in [(0.3, 0.7, 0.4), (0.9, 0.2, 0.8), (0.5, 0.5, 0.5)]:
        fd = (spec.copula_cdf(u, v, w + eps) - spec.copula_cdf(u, v, w - eps)) / (2 * eps)
        assert float(spec.cond_cdf_given_w(u, v, w)) == pytest.approx(float(fd), rel=2e-5)


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_cond_cdf_given_vw_normalized(spec):
    for i in (1, 2):
        assert float(spec.cond_cdf_given_vw(i, 1.0, 0.4, 0.6)) == pytest.approx(1.0, abs=1e-10)
        assert float(spec.cond_cdf_given_vw(i, 0.0, 0.4, 0.6)) == pytest.approx(0.0, abs=1e-10)
        # monotone in u
        us = np.linspace(0, 1, 21)
        vals = np.asarray(spec.cond_cdf_given_vw(i, us, 0.3, 0.7))
        assert np.all(np.diff(vals) >= -1e-12)


SAMPLER_SPECS = SPECS + [FrankTri(P1, P2, E1, gamma) for gamma in (0.3, 5.0, 20.0, 60.0)]
SAMPLER_IDS = IDS + ["frank03", "frank5", "frank20", "frank60"]


@pytest.mark.parametrize("spec", SAMPLER_SPECS, ids=SAMPLER_IDS)
def test_sampler_matches_copula_cdf(spec):
    rng = np.random.default_rng(42)
    u, v, w = sample_uvw(spec, rng, 200_000)
    for pt in [(0.3, 0.5, 0.7), (0.8, 0.8, 0.2), (0.5, 0.5, 0.5), (0.95, 0.99, 0.9)]:
        emp = np.mean((u <= pt[0]) & (v <= pt[1]) & (w <= pt[2]))
        exact = float(spec.copula_cdf(*pt))
        se = math.sqrt(exact * (1 - exact) / u.size)
        assert abs(emp - exact) < 5 * se + 1e-4


def test_frank_frailty_vs_conditional_sampler():
    spec = FrankTri(P1, P1, E1, 1.5)
    r1, r2 = np.random.default_rng(1), np.random.default_rng(2)
    a = sample_uvw(spec, r1, 150_000)
    b = spec.sample_uniform_conditional(r2, 150_000)
    for pt in [(0.3, 0.5, 0.7), (0.7, 0.2, 0.9)]:
        ea = np.mean((a[0] <= pt[0]) & (a[1] <= pt[1]) & (a[2] <= pt[2]))
        eb = np.mean((b[0] <= pt[0]) & (b[1] <= pt[1]) & (b[2] <= pt[2]))
        assert abs(ea - eb) < 6e-3


def _frailty_pmf(gamma, kmax=10):
    """P(K = k) = p^k / (k gamma), p = 1 - e^-gamma, for k <= kmax, then the mass beyond kmax."""
    k = np.arange(1, kmax + 1)
    pk = np.exp(k * np.log(-np.expm1(-gamma))) / (k * gamma)
    return np.append(pk, max(1.0 - pk.sum(), 0.0))


def _chisquare_pvalue(draws, probs):
    """Chi-square p-value of the draws against the pmf of ``_frailty_pmf``.

    Tail cells are merged until each expected count is at least 5.
    """
    kmax = probs.size - 1
    obs = np.bincount(np.minimum(draws, kmax + 1).astype(int), minlength=kmax + 2)[1:]
    exp = probs * draws.size
    while exp[-1] < 5:
        obs = np.append(obs[:-2], obs[-2:].sum())
        exp = np.append(exp[:-2], exp[-2:].sum())
    return stats.chisquare(obs, exp * obs.sum() / exp.sum()).pvalue


@pytest.mark.parametrize("gamma", [0.05, 0.3, 1.0, 5.0, 30.0, 40.0])
def test_frank_frailty_pmf(gamma):
    probs = _frailty_pmf(gamma)
    if gamma >= 30:
        assert probs[-1] > 0.9  # most of the mass lies beyond k = 10
    rng = np.random.default_rng(5)
    draws = _frank_frailty(rng, gamma, rng.random(1_000_000))
    assert np.all(draws >= 1) and np.all(np.isfinite(draws)) and np.all(draws == np.floor(draws))
    assert _chisquare_pvalue(draws, probs) > 1e-3
    p = -math.expm1(-gamma)
    if p < 1:  # numpy's logseries, where it runs, checks the closed form
        oracle = np.random.default_rng(6).logseries(p, size=1_000_000)
        assert _chisquare_pvalue(oracle, probs) > 1e-3


@pytest.mark.parametrize("gamma", [0.05, 1.0, 40.0, 700.0])
def test_frank_frailty_is_finite_at_the_ends(gamma):
    # W takes both ends of [0, 1), and V both 1 (a raw draw of 0) and 2^-53
    # (the largest raw draw), in every pairing
    top = 1.0 - 2.0**-53
    w, raw_v = np.array([0.0, top, 0.0, top]), np.array([0.0, 0.0, top, top])
    k = _frank_frailty(SimpleNamespace(random=lambda n: raw_v.copy()), gamma, w)
    assert np.all(np.isfinite(k)) and np.all(k >= 1)
    assert k[0] == k[1] == 1.0  # V = 1 gives K = 1 at any W


@pytest.mark.parametrize("gamma", [1.0, 35.0, 40.0, 60.0])
def test_frank_sampler_margins_uniform_at_large_gamma(gamma):
    n = 1_000_000
    for x in sample_uvw(FrankTri(P1, P1, E1, gamma), np.random.default_rng(9), n):
        assert 0.0 <= x.min() and x.max() <= 1.0
        assert stats.kstest(x, "uniform").pvalue > 1e-3


@pytest.mark.parametrize("gamma", [0.01, 1e-4, 1e-6])
def test_frank_inverse_generator_is_accurate_at_small_gamma(gamma):
    # psi(E / K) = -log(1 + alpha e^(-E/K)) / gamma on fixed (E, K), against 50
    # digits; the form -log(e^-gamma + alpha expm1(-E/K)) / gamma is off by
    # about eps / gamma here (7e-11 at gamma = 1e-6)
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    rng = np.random.default_rng(0)
    s = rng.standard_exponential(200) / rng.integers(1, 30, 200)
    got = FrankTri(P1, P1, E1, gamma)._inv_generator(s.copy())
    g = mp.mpf(gamma)
    a = mp.expm1(-g)
    worst = max(abs(mp.mpf(float(x)) + mp.log1p(a * mp.exp(-mp.mpf(float(si)))) / g) for x, si in zip(got, s))
    assert worst <= 1e-15


def test_frank_quadrature_side_holds_at_gamma_20():
    # the CLI accepts frank-tri up to gamma = 20 for its quadrature experiments;
    # there every weight and window probability is within 1e-6 of 50 digits
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    gamma = 20.0
    spec = FrankTri(P1, P1, E1, gamma)
    g = mp.mpf(gamma)
    lam = lambda t: mp.expm1(-g * t)
    a = lam(1)
    F = lambda x: 1 - 1 / (1 + mp.mpf(x))
    # dC/dw and P(U <= u | V = v, W = w), differenced over the windows below
    c_w = lambda u, v, w: (1 + lam(w)) * lam(u) * lam(v) / (a**2 + lam(u) * lam(v) * lam(w))
    c_vw = lambda u, v, w: lam(u) * a * (a + lam(v) * lam(w)) ** 2 / (a**2 + lam(u) * lam(v) * lam(w)) ** 2

    def rel(got, exact):
        return abs(mp.mpf(float(got)) / exact - 1)

    worst = 0.0
    for s in (0.0, 1.0, 5.0, 50.0):
        w = -mp.expm1(-mp.mpf(s))
        e = mp.exp(g * w)
        assert rel(spec.h_func(1, s), g * e / mp.expm1(g)) < 1e-12
        assert rel(spec.g_func(s), g**2 * (2 * e**2 - e) / mp.expm1(g) ** 2) < 1e-12
        for z in (0.0, 10.0, 1e3, 1e12):
            lz = lam(F(z))
            worst = max(worst, rel(spec.g_ij_func(1, z, s), g / mp.expm1(g) * (a - lz * lam(w)) / (a + lz * lam(w))))
        for x in (0.0, 10.0, 1e3, 1e6):
            for d in (1.0, 5.0):
                win = LocalWindow(x, d)
                lo, hi = F(x), F(x + d)
                worst = max(
                    worst,
                    rel(spec.cond_local_prob_given_theta(1, win, s), c_w(hi, 1, w) - c_w(lo, 1, w)),
                    rel(spec.cond_joint_local_prob_given_theta(win, win, s),
                        c_w(hi, hi, w) - c_w(hi, lo, w) - c_w(lo, hi, w) + c_w(lo, lo, w)),
                    *(rel(spec.cond_local_prob_given_other(1, win, z, s), c_vw(hi, F(z), w) - c_vw(lo, F(z), w))
                      for z in (0.0, 10.0, 1e3, 1e12)),
                )
    assert worst < 1e-6


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_mean_h_is_one(spec):
    for i in (1, 2):
        assert mean_h_check(spec, i) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_g_equals_h_times_gij_limit(spec):
    # corner density factorization: g(s) = h_j(s) * lim_{z->inf} g_ij(z, s)
    s = np.linspace(0.0, 3.0, 13)
    z = 1e12
    for i, j in ((1, 2), (2, 1)):
        lim = np.asarray(spec.g_ij_func(i, z, s))
        prod = np.asarray(spec.h_func(j, s)) * lim
        np.testing.assert_allclose(prod, np.asarray(spec.g_func(s)), rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_conditional_window_probs_match_corner_differences(spec):
    # factored overrides must agree with naive corner differences at moderate x
    win1, win2 = LocalWindow(2.0, 1.5), LocalWindow(1.0, 2.0)
    s, z = 0.7, 3.0
    w = spec.g_dist.cdf(s)
    u_lo, u_hi = spec.f1.cdf(2.0), spec.f1.cdf(3.5)
    v_lo, v_hi = spec.f2.cdf(1.0), spec.f2.cdf(3.0)
    naive1 = spec.cond_cdf_given_w(u_hi, 1.0, w) - spec.cond_cdf_given_w(u_lo, 1.0, w)
    assert float(spec.cond_local_prob_given_theta(1, win1, s)) == pytest.approx(
        float(naive1), rel=1e-9
    )
    naive12 = (
        spec.cond_cdf_given_w(u_hi, v_hi, w)
        - spec.cond_cdf_given_w(u_lo, v_hi, w)
        - spec.cond_cdf_given_w(u_hi, v_lo, w)
        + spec.cond_cdf_given_w(u_lo, v_lo, w)
    )
    assert float(spec.cond_joint_local_prob_given_theta(win1, win2, s)) == pytest.approx(
        float(naive12), rel=1e-7, abs=1e-15
    )
    vz = spec.f2.cdf(z)
    naive_o = spec.cond_cdf_given_vw(1, u_hi, vz, w) - spec.cond_cdf_given_vw(1, u_lo, vz, w)
    assert float(spec.cond_local_prob_given_other(1, win1, z, s)) == pytest.approx(
        float(naive_o), rel=1e-7
    )


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_claim_exchange(spec):
    # claim 2 of a spec is claim 1 of the spec with the claims swapped (f1 <-> f2,
    # and for FGM the claim-time couplings g13 <-> g23)
    coeffs = {"g13": spec.g23, "g23": spec.g13} if type(spec) is SarmanovFGM else {}
    swapped = dataclasses.replace(spec, f1=spec.f2, f2=spec.f1, **coeffs)
    s = np.linspace(0.0, 3.0, 7)
    zz, ss = np.meshgrid([0.0, 0.5, 3.0, 1e3], s, indexing="ij")
    wins = [LocalWindow(0.0, 0.5), LocalWindow(2.0, 1.5), LocalWindow(1e3, 1.0)]

    def same(got, want):
        np.testing.assert_allclose(np.asarray(got), np.asarray(want), rtol=1e-12, atol=0)

    same(spec.h_func(2, s), swapped.h_func(1, s))
    same(spec.g_ij_func(2, zz, ss), swapped.g_ij_func(1, zz, ss))
    for win in wins:
        same(spec.cond_local_prob_given_theta(2, win, s), swapped.cond_local_prob_given_theta(1, win, s))
        same(spec.cond_local_prob_given_other(2, win, zz, ss),
             swapped.cond_local_prob_given_other(1, win, zz, ss))
        for win2 in wins:
            same(spec.cond_joint_local_prob_given_theta(win, win2, s),
                 swapped.cond_joint_local_prob_given_theta(win2, win, s))


def test_independent_sampler_is_the_zero_coefficient_fgm_sampler():
    # Independent.sample_uv is a shortcut: the same bits, sign bits included
    n = 1 << 16
    fast = sample_uvw(Independent(P1, P2, E1), np.random.default_rng(3), n)
    slow = sample_uvw(SarmanovFGM(P1, P2, E1, 0.0, 0.0, 0.0), np.random.default_rng(3), n)
    for a, b in zip(fast, slow):
        np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize(
    "spec",
    [FrankTri(P1, P1, E1, 1.0), NestedFrankProduct(P1, P1, E1, 0.5),
     SarmanovFGM(P1, P1, E1, 0.3, -0.2, 0.4)],
    ids=["frank", "nested", "fgm"],
)
@pytest.mark.parametrize("condition", [1, 2, 3])
def test_condition_scans_converge(spec, condition):
    s_grid = np.linspace(0.0, 2.0, 11)
    x_grid = [10.0, 100.0, 1000.0, 10000.0]
    dev = condition_ratio_scan(spec, 1, s_grid, x_grid, 1.0, condition=condition)
    assert np.all(np.diff(dev) < 0), dev
    assert dev[-1] <= 0.02, dev


@pytest.mark.parametrize("gamma", [0.5, 1.0])
@pytest.mark.parametrize("condition", [2, 3])
def test_nested_condition_scans_converge_deep_in_the_tail(gamma, condition):
    # the window probabilities must stay accurate where the corner values
    # F(x) and F(x+d) agree to ~1e-16; g(0) = 0 at gamma = 1, so s starts
    # above 0 to keep the relative deviation defined
    spec = NestedFrankProduct(P1, P1, E1, gamma)
    s_grid = np.linspace(0.2, 2.0, 10)
    x_grid = [10.0, 1e2, 1e3, 1e4, 1e6, 1e8]
    dev = condition_ratio_scan(spec, 1, s_grid, x_grid, 1.0, condition=condition)
    assert np.all(np.diff(dev) < 0), dev
    assert dev[-1] <= 1e-6, dev


@pytest.mark.parametrize("condition", [1, 2, 3])
def test_independent_condition_scans_exact_deep_in_the_tail(condition):
    # independence makes every conditional window probability its marginal
    # one, so the scan must read 0 however deep in the tail the window sits
    spec = Independent(P1, P1, E1)
    s_grid = np.linspace(0.0, 2.0, 10)
    x_grid = [10.0, 1e2, 1e3, 1e4, 1e6, 1e8]
    dev = condition_ratio_scan(spec, 1, s_grid, x_grid, 1.0, condition=condition)
    assert np.all(dev <= 1e-12), dev


@pytest.mark.parametrize(
    "spec",
    [FrankTri(P1, Weibull(0.5), E1, 1.0), NestedFrankProduct(P1, Weibull(0.5), E1, 0.5),
     SarmanovFGM(P1, Weibull(0.5), E1, -0.5, 0.2, 0.1)],
    ids=["frank", "nested", "fgm"],
)
@pytest.mark.parametrize("condition", [1, 3])
def test_condition_scans_read_the_limit_where_windows_underflow(spec, condition):
    # Weibull(0.5) gives (x, x+1] the probability 0 from x = 1e6 on, and F2
    # rounds to 1 there, so the ratio per unit width is its limit, the weight
    assert local_prob(spec.f2, LocalWindow(1e6, 1.0)) == 0.0
    dev = condition_ratio_scan(spec, 2, np.linspace(0.0, 2.0, 11), [1e6, 1e8], 1.0, condition=condition)
    assert np.all(dev <= 1e-12), dev


def _nested_bisection_sample(spec, rng, n):
    """Reference sampler: bisection on P(W <= w | U, V) = p, same draw order."""
    g = spec.gamma
    a = math.expm1(-g)
    u, v = rng.random(n), rng.random(n)
    k = u * v
    p = rng.random(n)
    lk = np.expm1(-g * k)

    def cdf(w):
        lw = np.expm1(-g * w)
        d = a + lk * lw
        return (1 + lk) * lw * (d - g * k * (a - lw)) / d**2

    lo, hi = np.zeros(n), np.ones(n)
    for _ in range(60):  # |w-interval| < 1e-12 after 60 halvings
        mid = 0.5 * (lo + hi)
        below = cdf(mid) < p
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return u, v, 0.5 * (lo + hi)


@pytest.mark.parametrize("gamma", [0.05, 0.5, 1.0, 2.0, 5.0])
def test_nested_sampler_matches_bisection(gamma):
    spec = NestedFrankProduct(P1, P1, E1, gamma)
    u, v, w = sample_uvw(spec, np.random.default_rng(11), 100_000)
    ru, rv, rw = _nested_bisection_sample(spec, np.random.default_rng(11), 100_000)
    np.testing.assert_array_equal(u, ru)
    np.testing.assert_array_equal(v, rv)
    assert np.max(np.abs(w - rw)) <= 1e-12


@pytest.mark.parametrize("gamma", [0.05, 0.5, 1.0, 2.0, 5.0])
def test_nested_sampler_at_k_zero_is_bivariate_frank(gamma):
    # at u = 0 the claim product k vanishes and W given (U, V) follows the
    # bivariate Frank conditional, inverted by w = -log1p(p a) / gamma
    p = np.linspace(0.001, 0.999, 999)
    draws = [np.array([np.zeros(p.size), np.linspace(0.0, 1.0, p.size)]), p]  # (U, V), then p
    fake_rng = SimpleNamespace(random=lambda shape: draws.pop(0))
    u, v, w = sample_uvw(NestedFrankProduct(P1, P1, E1, gamma), fake_rng, p.size)
    expected = -np.log1p(p * math.expm1(-gamma)) / gamma
    np.testing.assert_allclose(w, expected, rtol=1e-14, atol=0)


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_sample_triple_clips_uniforms_at_one(spec, monkeypatch):
    # a sampler may round a uniform up to 1 or just above it; the quantiles
    # then get the largest double below 1, and values below 1 pass unchanged
    below = np.array([0.5, np.nextafter(1.0, 0.0)])
    draws = lambda: np.array([1.0, 1.0 + 2**-52, *below])
    monkeypatch.setattr(type(spec), "sample_uniform", lambda self, rng, n: (draws(), None))
    monkeypatch.setattr(type(spec), "sample_uv", lambda self, rng, state: (draws(), draws()))
    theta, state = spec.sample_theta(None, 4)
    for x, dist in zip((*spec.sample_claims(None, state), theta), (spec.f1, spec.f2, spec.g_dist)):
        assert np.all(np.isfinite(x))
        np.testing.assert_array_equal(x, dist.quantile(np.array([below[1], below[1], *below])))


def test_independent_weights_are_unit():
    spec = Independent(P1, P2, E1)
    s = np.linspace(0, 5, 7)
    assert np.allclose(spec.h_func(1, s), 1.0)
    assert np.allclose(spec.g_func(s), 1.0)
    assert np.allclose(spec.g_ij_func(1, 3.0, s), 1.0)
    u, v, w = sample_uvw(spec, np.random.default_rng(0), 10_000)
    assert abs(np.corrcoef(u, v)[0, 1]) < 0.05


def test_fgm_validity_four_corners():
    # passes the naive sum condition but the density goes negative
    with pytest.raises(ValueError):
        SarmanovFGM(P1, P1, E1, 0.9, 0.9, -0.9)
    with pytest.raises(ValueError):
        SarmanovFGM(P1, P1, E1, -0.6, -0.6, 0.1)
    SarmanovFGM(P1, P1, E1, 0.5, 0.3, 0.1)  # valid


@pytest.mark.parametrize(
    "coeffs", [(0.3, -0.2, 0.4), (0.9, 0.05, 0.04), (-0.2, -0.2, -0.2)], ids=["interior", "edge", "negative"]
)
def test_fgm_sampler_inverts_its_conditionals(coeffs):
    # V given W and U given (V, W) have the CDF x + a x (1 - x); the
    # sampler must return the x that maps to each fed uniform
    g12, g13, g23 = coeffs
    grid = np.linspace(0.0, 1.0, 1001)[:-1]
    perm = np.random.default_rng(0).permutation
    draws = [perm(grid), perm(grid), perm(grid)]
    pw, pv, pu = (d.copy() for d in draws)  # W first, then V and U
    fake_rng = SimpleNamespace(random=lambda n: draws.pop(0))
    u, v, w = sample_uvw(SarmanovFGM(P1, P1, E1, *coeffs), fake_rng, grid.size)
    np.testing.assert_array_equal(w, pw)
    dv, dw = 1 - 2 * v, 1 - 2 * w
    a_v = g23 * dw
    a_u = (g12 * dv + g13 * dw) / (1 + g23 * dv * dw)
    np.testing.assert_allclose(v + a_v * v * (1 - v), pv, rtol=0, atol=4e-16)
    np.testing.assert_allclose(u + a_u * u * (1 - u), pu, rtol=0, atol=4e-16)
    for x in (u, v):
        assert np.all((0.0 <= x) & (x < 1.0))


def test_fgm_sampler_moments():
    spec = SarmanovFGM(P1, P1, E1, 0.8, 0.0, 0.0)
    u, v, w = sample_uvw(spec, np.random.default_rng(7), 200_000)
    # FGM pair correlation is gamma/3; third coordinate independent here
    assert np.corrcoef(u, v)[0, 1] == pytest.approx(0.8 / 3, abs=0.01)
    assert abs(np.corrcoef(u, w)[0, 1]) < 0.01


def test_frank_gamma_validation():
    with pytest.raises(ValueError):
        FrankTri(P1, P1, E1, 0.0)
    with pytest.raises(ValueError):
        NestedFrankProduct(P1, P1, E1, -1.0)


def test_bounds_over_horizon_frank():
    spec = FrankTri(P1, P1, E1, 1.0)
    rep = bounds_over_horizon(spec, 2.0)
    assert rep.warnings == ()
    assert min(rep.b_lower, rep.d_lower, rep.a_lower) > 0
    assert rep.b_lower <= 1.0 <= rep.b_upper  # E h = 1 forces a sandwich
    assert rep.d_lower <= rep.d_upper
    assert rep.a_lower > 0
    assert all(math.isfinite(c) and c >= 0 for c in (rep.c1, rep.c2, rep.c3))
    s = np.linspace(0, 2.0, 50)
    h = np.asarray(spec.h_func(1, s))
    assert rep.b_lower <= h.min() + 1e-12 and h.max() <= rep.b_upper + 1e-12


def test_bounds_over_horizon_takes_underflowed_probes_at_their_limit():
    # Weibull(0.8, 2) gives (1e4, 1e4 + 1] the probability exp(-911), which
    # underflows to 0; the ratio per unit width still reads its limit there,
    # so C1-C3 take both probes and no probe is named
    spec = SarmanovFGM(Weibull(0.8, 2.0), Pareto(2.5), Exponential(2.0), -0.5, 0.2, 0.1)
    rep = bounds_over_horizon(spec, 2.0)
    assert rep.warnings == ()
    assert local_prob(spec.f1, LocalWindow(1e4, 1.0)) == 0.0
    s_grid = np.linspace(0.0, 2.0, 101)
    win = LocalWindow(1e3, 1.0)
    at_1e3 = spec.cond_local_prob_given_theta(1, win, s_grid) / local_prob(spec.f1, win)
    # at x = 1e4, F1 rounds to 1 and the per-unit ratio is its limit h_1
    assert rep.c1 == pytest.approx(max(np.max(at_1e3), np.max(spec.h_func(1, s_grid))) - 1.0, abs=1e-14)
    assert rep.c1 == pytest.approx(0.19267, abs=1e-5)
    assert all(math.isfinite(c) for c in (rep.c1, rep.c2, rep.c3))


def test_bounds_over_horizon_nested_warns():
    rep = bounds_over_horizon(NestedFrankProduct(P1, P1, E1, 2.0), 2.0)
    assert rep.warnings == (
        "g is nonpositive on the grid: Condition 2 fails for this horizon",
        "g_ij is nonpositive on the grid: Condition 3 fails for this horizon",
    )


def test_bounds_over_horizon_nested_gamma_one_fails_condition_2_only():
    # g(0) = 0 at gamma = 1, while h_i and g_ij stay positive
    rep = bounds_over_horizon(NestedFrankProduct(P1, P1, E1, 1.0), 2.0)
    assert rep.d_lower <= 0 < min(rep.b_lower, rep.a_lower)
    assert rep.warnings == ("g is nonpositive on the grid: Condition 2 fails for this horizon",)


def test_h_g_closed_forms_frank():
    # spot values for FrankTri gamma=1 against direct formulas
    g = 1.0
    spec = FrankTri(P1, P1, E1, g)
    s = 0.8
    G = E1.cdf(s)
    h = g * math.exp(g * G) / (math.exp(g) - 1.0)
    assert float(spec.h_func(1, s)) == pytest.approx(h, rel=1e-12)
    gg = g**2 * (2 * math.exp(2 * g * G) - math.exp(g * G)) / (math.exp(g) - 1.0) ** 2
    assert float(spec.g_func(s)) == pytest.approx(gg, rel=1e-12)


def test_sample_triple_marginals():
    spec = FrankTri(P1, P2, E1, 1.0)
    rng = np.random.default_rng(3)
    th, state = spec.sample_theta(rng, 100_000)
    x1, x2 = spec.sample_claims(rng, state)
    assert np.mean(x1 > 1.0) == pytest.approx(P1.sf(1.0), abs=0.005)
    assert np.mean(x2 > 1.0) == pytest.approx(P2.sf(1.0), abs=0.005)
    assert np.mean(th) == pytest.approx(1.0, abs=0.02)


@pytest.mark.parametrize("gamma", [0.05, 1.0, 5.0, 20.0, 700.0])
def test_log1mexp_matches_two_branch_where_bitwise(gamma):
    # each branch runs only where it is taken, on either side of the majority
    # switch, and must give the bits of the np.where form, at ln 2 and around it
    rng = np.random.default_rng(int(gamma * 100))
    ln2 = math.log(2.0)
    edges = [ln2, np.nextafter(ln2, np.inf), np.nextafter(ln2, 0.0)]
    for n in (1, 3, 17, 1 << 16):
        x = np.concatenate([edges, gamma * (1.0 - rng.random(n)), edges])
        with np.errstate(divide="ignore"):
            want = np.where(x <= ln2, np.log(-np.expm1(-x)), np.log1p(-np.exp(-x)))
        got = _log1mexp(x)
        assert got.dtype == want.dtype and np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.array_equal(_log1mexp(x[3:-3]).view(np.int64), want[3:-3].view(np.int64))
