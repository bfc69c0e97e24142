import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renewalrisk.counterexample import (
    BreakpointTable,
    CounterexampleF,
    breakpoints,
    density_raw,
    m_index,
    normalizer,
)


@pytest.fixture(scope="module")
def F():
    return CounterexampleF(8)


def test_m_index_values():
    # m_n = ceil(sqrt(5/6) n); first drops below n at n = 12
    assert [m_index(n) for n in (1, 2, 3)] == [1, 2, 3]
    assert m_index(12) == 11
    assert all(m_index(n) == n for n in range(1, 12))


def test_breakpoint_ordering():
    tab = breakpoints(8)
    a = tab.a
    assert np.all(np.diff(a) > 0)
    assert a[1] == 2.0 and a[2] == 16.0 and a[3] == 512.0  # a_n = 2^(n^2)
    for n in range(1, 9):
        assert a[n] < tab.b[n] < tab.mid[n] < a[n + 1]


def test_density_positive_and_raises_outside_range(F):
    xs = np.linspace(0.1, 1e4, 2000)
    vals = np.array([F.pdf(x) for x in xs])
    assert np.all(vals >= 0)
    # truncation beyond the last tabulated block is explicit, not silent
    with pytest.raises(ValueError):
        F.pdf(-1.0)
    with pytest.raises(ValueError):
        F.pdf(F.x_max * 2.0)  # x_max + 1 rounds back to x_max at 2^81


def test_normalizer_frozen(F):
    norm, tail = normalizer(F.table)
    assert norm == pytest.approx(3.7796086395436226, rel=1e-14)
    assert tail < 2.0**-110
    assert tail == pytest.approx(1.79e-43, rel=0.05)


def test_cdf_properties(F):
    assert F.cdf(0.0) == 0.0 and F.cdf(-1.0) == 0.0
    # the raw integral up to x_max, which the quantile's top lane reads; 1 only beyond it
    assert F.cdf(F.x_max) == pytest.approx(1.0, abs=1e-12)
    assert F.cdf(F.x_max * 2.0) == 1.0
    xs = np.geomspace(0.5, F.x_max, 200)
    vals = np.array([F.cdf(x) for x in xs])
    assert np.all(np.diff(vals) >= -1e-15)


def test_cdf_matches_numeric_integral(F):
    # trapezoid on a fine grid over the first two blocks
    lo, hi = 0.0, 100.0
    grid = np.linspace(lo, hi, 20001)
    pdfv = np.array([F.pdf(x) for x in grid])
    integral = np.trapezoid(pdfv, grid)
    assert F.cdf(hi) == pytest.approx(integral, rel=1e-6)


F8 = CounterexampleF(8)


@given(x=st.floats(min_value=0.01, max_value=1e6))
@settings(max_examples=60, deadline=None)
def test_cdf_pdf_consistency_locally(x):
    F = F8
    h = 1e-4 * max(x, 1.0)
    fd = (F.cdf(x + h) - F.cdf(x - h)) / (2 * h)
    mid = F.pdf(x)
    # fd straddles at most one breakpoint; bound by neighbouring density values
    lo = min(F.pdf(x - h), mid, F.pdf(x + h))
    hi = max(F.pdf(x - h), mid, F.pdf(x + h))
    assert lo - 1e-12 <= fd <= hi + 1e-12


def test_witness_sequence(F):
    # the almost-decreasing witness at block n equals ln(n+1)
    for n in range(1, 8):
        assert F.almost_decreasing_witness(n) == pytest.approx(
            math.log(n + 1), rel=1e-12
        )


def test_long_tail_ratio_trend(F):
    # f(x-t)/f(x) along the geometric anchors tends to 1 within blocks
    xs = [F.table.a[F.table.m[n]] * 1.5 for n in (3, 5, 7)]
    vals = [float(F.pdf(x - 1.0) / F.pdf(x)) for x in xs]
    assert all(abs(v - 1.0) < 0.1 for v in vals)
    assert abs(vals[-1] - 1.0) < abs(vals[0] - 1.0)


def test_self_convolution_ratio_frozen(F):
    # pinned values of |ratio - 1| at the block anchors a_n
    expect = {2: 199.995, 3: 1382.09, 4: 1179.83, 5: 170.25, 6: 5.3847, 7: 0.04205}
    for n, val in expect.items():
        x = F.table.a[n]
        assert abs(F.self_convolution_ratios(x)[0] - 1.0) == pytest.approx(val, rel=2e-3)


def test_self_convolution_ratio_eventually_decreases(F):
    devs = []
    for n in range(3, 9):
        devs.append(abs(F.self_convolution_ratios(F.table.a[n])[0] - 1.0))
    assert all(a > b for a, b in zip(devs, devs[1:])), devs
    assert devs[-1] < 1e-3


def test_middle_part_vanishes(F):
    expect = {2: 380.99, 5: 3.7096, 7: 2.1146e-7, 8: 7.96e-13}
    prev = math.inf
    for n in range(3, 9):  # decreasing once the asymptotic regime activates
        r = F.self_convolution_ratios(F.table.a[n])[1]
        assert r < prev
        prev = r
        if n in expect:
            assert r == pytest.approx(expect[n], rel=2e-3)
    assert prev < 1e-11
    assert F.self_convolution_ratios(F.table.a[2])[1] == pytest.approx(expect[2], rel=2e-3)


def test_self_convolution_degenerate_split_and_range(F):
    # x = 3 lies in block 1, where 2 a_{m_1} = 4 >= x: the middle part is empty
    assert F.self_convolution_ratios(3.0) == (0.07946058892229067, 0.0)
    for x in (F.table.a[1], 1.0, 2.0 * F.x_max):
        with pytest.raises(ValueError):
            F.self_convolution_ratios(x)


def test_marginal_wrapper_quantile_roundtrip():
    F = CounterexampleF(n_max=6)
    for p in (0.05, 0.3, 0.7, 0.95, 0.999):
        x = F.quantile(p)
        assert F.cdf(x) == pytest.approx(p, abs=1e-9)


def _bisect_quantile(F, p, xtol=1e-12, maxiter=300):
    """Reference quantile: bisect the CDF on [0, x_max], every probability at once.

    Step for step scipy's ``bisect``: halve the bracket, move its left end
    while cdf(mid) <= p, and settle a probability at mid once cdf(mid) == p
    or the half-width drops below xtol + 4 eps |mid|.  Probabilities at or
    above cdf(x_max) map to x_max.
    """
    p = np.asarray(p, dtype=float)
    x = np.where(p >= F.cdf(F.x_max), F.x_max, np.nan)
    active = np.isnan(x)
    lo, half = np.zeros_like(p), F.x_max
    for _ in range(maxiter):
        if not active.any():
            return x
        half *= 0.5
        mid = lo + half
        fm = F.cdf(mid) - p
        lo = np.where(fm <= 0, mid, lo)
        done = active & ((fm == 0) | (half < xtol + 4 * np.finfo(float).eps * np.abs(mid)))
        x[done] = mid[done]
        active &= ~done
    raise RuntimeError("bisection did not converge")


@pytest.mark.parametrize("n_max", [6, 8])
def test_closed_form_quantile_matches_bisection(n_max):
    F = CounterexampleF(n_max=n_max)
    p = np.concatenate([np.random.default_rng(5).random(2000), [1e-15, 1e-9]])
    x = F.quantile(p)
    # near p -> 1 the density is tiny and x is pinned only to ulp / f(x)
    tol = 1e-11 + 1e-15 / F.pdf(x)
    assert np.all(np.abs(x - _bisect_quantile(F, p)) <= tol)
    assert np.max(np.abs(F.cdf(x) - p)) <= 1e-15


@pytest.mark.parametrize("n_max", range(1, 9))
def test_closed_form_quantile_shapes_and_ends(n_max):
    F = CounterexampleF(n_max=n_max)
    assert F.quantile(0.0) == 0.0
    assert F.quantile(0.3) == F.quantile(np.array([0.3]))[0]
    assert F.quantile(np.full((2, 3), 0.5)).shape == (2, 3)
    x_max = F.x_max
    p = 1.0 - np.array([2.0**-53, 2.0**-52, 1e-15, 1e-13])
    with warnings.catch_warnings():
        # for p >= cdf(x_max) the raw mass overshoots the last segment
        warnings.simplefilter("error")
        x = F.quantile(p)
    assert np.all((x > 0.0) & (x <= x_max))
    assert np.all(x[p >= F.cdf(x_max)] == x_max)
    assert np.max(np.abs(F.cdf(x) - p)) <= 1e-15
    assert np.all(np.diff(F.quantile(np.linspace(0.0, 0.999, 5001))) > 0)


def test_marginal_wrapper_sampling():
    F = CounterexampleF(n_max=6)
    rng = np.random.default_rng(11)
    xs = F.quantile(rng.random(50_000))
    assert np.all(xs >= 0)
    for q in (1.0, 10.0, 100.0):
        assert np.mean(xs <= q) == pytest.approx(F.cdf(q), abs=0.01)


def test_n_max_bounds():
    with pytest.raises(ValueError):
        CounterexampleF(0)
    with pytest.raises(ValueError):
        CounterexampleF(9)


def test_survival_keeps_the_deep_tail():
    # the density is linear on each window below, so its mass is exactly
    # d * f(x + d/2); 1 - cdf cancels to 0.6% error at 1e6 and to 0 at 1e9
    from renewalrisk.marginals import LocalWindow, local_prob

    F = CounterexampleF(8)
    for x, rel in ((1e6, 1e-8), (1e9, 1e-5)):
        exact = 4.0 * F.pdf(x + 2.0)
        assert local_prob(F, LocalWindow(x, 4.0)) == pytest.approx(exact, rel=rel, abs=0.0), x
    nodes = F.table.nodes
    xs = np.concatenate([np.linspace(0.0, 1e5, 20_001), nodes[nodes <= 1e5]])
    np.testing.assert_allclose(F.sf(xs), 1.0 - F.cdf(xs), rtol=0.0, atol=1e-15)
    assert F.sf(F.x_max) == 0.0 and F.sf(-1.0) <= 1.0
