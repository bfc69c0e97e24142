import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renewalrisk.counterexample import CounterexampleF
from renewalrisk.marginals import (
    Deterministic,
    Exponential,
    LocalWindow,
    Pareto,
    Weibull,
    local_prob,
    scaled_local_prob,
)

DISTS = [Pareto(1.0), Pareto(2.5), Weibull(0.5), Weibull(0.8, 2.0), Exponential(1.0), Exponential(0.3)]


@pytest.mark.parametrize("dist", DISTS, ids=str)
@given(p=st.floats(min_value=0.0, max_value=0.999999, exclude_max=False))
@settings(max_examples=50, deadline=None)
def test_quantile_cdf_roundtrip(dist, p):
    x = dist.quantile(p)
    assert dist.cdf(x) == pytest.approx(p, abs=1e-9)


@pytest.mark.parametrize("dist", DISTS, ids=str)
@given(x=st.floats(min_value=0.0, max_value=1e6))
@settings(max_examples=50, deadline=None)
def test_cdf_sf_complement(dist, x):
    assert dist.cdf(x) + dist.sf(x) == pytest.approx(1.0, abs=1e-12)


#: each family's cdf, sf and quantile as written out per family before they
#: shared one cumulative-hazard form; the shared form must equal them bit for bit
CLOSED_FORMS = {
    Pareto: (lambda d, x: -np.expm1(-d.alpha * np.log1p(np.maximum(x, 0.0))),
             lambda d, x: np.exp(-d.alpha * np.log1p(np.maximum(x, 0.0))),
             lambda d, p: np.expm1(-np.log1p(-p) / d.alpha)),
    Weibull: (lambda d, x: -np.expm1(-np.power(np.maximum(x, 0.0) / d.scale, d.shape)),
              lambda d, x: np.exp(-np.power(np.maximum(x, 0.0) / d.scale, d.shape)),
              lambda d, p: d.scale * np.power(-np.log1p(-p), 1.0 / d.shape)),
    Exponential: (lambda d, x: -np.expm1(-d.rate * np.maximum(x, 0.0)),
                  lambda d, x: np.exp(-d.rate * np.maximum(x, 0.0)),
                  lambda d, p: -np.log1p(-p) / d.rate),
}


@pytest.mark.parametrize("dist", DISTS, ids=str)
def test_hazard_forms_match_closed_forms_bit_for_bit(dist):
    # NaN inputs are left out: only the sign bit of the NaN returned can differ
    rng = np.random.default_rng(0)
    x = np.concatenate([[-1.0, 0.0, 1e-300, 1e300, np.inf], rng.exponential(10.0, 200), rng.pareto(0.5, 200)])
    p = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], rng.random(200)])
    cdf, sf, quantile = CLOSED_FORMS[type(dist)]
    pairs = [(dist.cdf, lambda v: np.where(v < 0, 0.0, cdf(dist, v)), x),
             (dist.sf, lambda v: sf(dist, v), x), (dist.quantile, lambda v: quantile(dist, v), p)]
    for method, reference, args in pairs:
        assert np.asarray(method(args)).tobytes() == np.asarray(reference(args)).tobytes(), method
        for v in args[:5]:  # scalars come back as numpy scalars of the same bits
            got = method(v)
            assert np.ndim(got) == 0 and np.asarray(got).tobytes() == np.asarray(reference(np.float64(v))).tobytes()


@pytest.mark.parametrize("dist", DISTS, ids=str)
def test_cdf_monotone_and_range(dist):
    xs = np.linspace(0, 100, 500)
    vals = np.asarray(dist.cdf(xs))
    assert np.all(np.diff(vals) >= 0)
    assert vals[0] >= 0 and vals[-1] <= 1
    assert dist.cdf(-1.0) == 0.0


def test_deterministic_point_mass():
    d = Deterministic(1.5)
    assert d.cdf(1.5) == 1.0
    assert d.cdf(1.4999) == 0.0
    assert d.quantile(0.3) == 1.5
    assert np.all(d.quantile(np.random.default_rng(0).random(5)) == 1.5)


def test_window_validation():
    with pytest.raises(ValueError):
        LocalWindow(-1.0, 1.0)
    with pytest.raises(ValueError):
        LocalWindow(0.0, 0.0)
    for d in (math.inf, math.nan):
        with pytest.raises(ValueError):
            LocalWindow(0.0, d)  # every caller's window is a finite box side


def test_local_prob_values():
    p = Pareto(1.0)
    w = LocalWindow(1.0, 1.0)
    assert local_prob(p, w) == pytest.approx(0.5 - 1 / 3, rel=1e-12)


def test_local_prob_deep_tail_accuracy():
    # survival-based difference keeps relative accuracy where CDFs round to 1
    p = Pareto(1.0)
    x = 1e8
    got = local_prob(p, LocalWindow(x, 1.0))
    exact = 1 / (1 + x) - 1 / (2 + x)
    assert got == pytest.approx(exact, rel=1e-6)


def test_scaled_local_prob_matches_scaling():
    p = Pareto(1.0)
    w = LocalWindow(10.0, 2.0)
    r, u = 0.05, 3.0
    scale = math.exp(r * u)
    expected = p.cdf(12.0 * scale) - p.cdf(10.0 * scale)
    assert scaled_local_prob(p, w, r, u) == pytest.approx(expected, rel=1e-12)
    assert scaled_local_prob(p, w, 0.0, 5.0) == pytest.approx(local_prob(p, w), rel=1e-15)


def test_scaled_local_prob_overflow():
    with pytest.raises(OverflowError):
        scaled_local_prob(Pareto(1.0), LocalWindow(1.0, 1.0), 1.0, 1e6)
    with pytest.raises(ValueError):
        scaled_local_prob(Pareto(1.0), LocalWindow(1.0, 1.0), -0.1, 1.0)


@pytest.mark.parametrize("dist", [Pareto(1.0), Exponential(1.0), Weibull(0.5)], ids=str)
def test_almost_decreasing_for_monotone_densities(dist):
    # these densities are decreasing, so the local law is already decreasing: the
    # almost-decrease constant sup_{x <= y} F(y + D_1) / F(x + D_1) - 1 is 0 on a grid
    grid = np.arange(0.0, 20.01, 0.01)
    vals = dist.cdf(grid + 1.0) - dist.cdf(grid)
    assert np.max(vals / np.minimum.accumulate(vals)) - 1.0 == pytest.approx(0.0, abs=1e-12)


def test_quantile_rejects_bad_p():
    with pytest.raises(ValueError):
        Pareto(1.0).quantile(1.0)
    with pytest.raises(ValueError):
        Exponential(1.0).quantile(-0.01)


@pytest.mark.parametrize("dist", [Pareto(0.01), Weibull(0.005), Exponential(1e-308)], ids=str)
def test_quantile_past_double_range_reads_inf(dist):
    # the top quantile overflows in expm1, power or divide; inf lands past every
    # horizon and outside every finite box, so it is returned without a warning
    p = np.array([0.5, 1.0 - 2.0**-53])
    x = dist.quantile(p)
    assert math.isfinite(x[0]) and x[1] == math.inf
    assert dist.quantile(1.0 - 2.0**-53) == math.inf


@pytest.mark.parametrize(
    "dist",
    [Pareto(1.0), Exponential(1.0), Weibull(0.5), CounterexampleF(n_max=3), Deterministic(1.5)],
    ids=lambda d: type(d).__name__,
)
def test_quantile_rejects_nan(dist):
    # a NaN fails every comparison, so the range check must be written to fail on it
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        dist.quantile(math.nan)
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        dist.quantile(np.array([0.5, math.nan]))


def test_parameter_validation():
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            Pareto(bad)
        with pytest.raises(ValueError):
            Exponential(bad)
        with pytest.raises(ValueError):
            Weibull(bad)
