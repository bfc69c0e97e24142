import math
import time
import weakref

import numpy as np
import pytest

from renewalrisk.copulas import FrankTri
from renewalrisk.marginals import Deterministic, Exponential, Pareto, Weibull
from renewalrisk.renewal import (
    _conv_heads,
    _smooth_size,
    _stieltjes_increments,
    renewal_function,
    tilted_measure,
    tilted_triplet,
)
from renewalrisk.simulate import MAX_ARRIVALS

from conftest import working_memory


def _direct_renewal(g, t_max, h):
    """Reference solver: march the trapezoidal scheme node by node, O(K^2)."""
    k_max = round(t_max / h)
    dg = _stieltjes_increments(g, h, k_max)
    cdf = np.concatenate([[0.0], np.cumsum(dg)])
    c = dg.copy()
    c[:-1] += dg[1:]
    lam = np.zeros(k_max + 1)
    pivot = 1.0 - 0.5 * dg[0]
    for k in range(1, k_max + 1):
        acc = 0.5 * np.dot(c[: k - 1], lam[k - 1 : 0 : -1]) if k > 1 else 0.0
        lam[k] = (cdf[k] + acc) / pivot
    return lam


def _sample_counts(g, t_values, t_max, n_paths, rng):
    """Reference arrival loop: N(t) for each path at each requested time."""
    counts = np.zeros((n_paths, len(t_values)), dtype=np.int64)
    clock = np.zeros(n_paths)
    alive = np.ones(n_paths, dtype=bool)
    for _ in range(MAX_ARRIVALS + 1):
        idx = np.flatnonzero(alive)
        clock[idx] += g.quantile(rng.random(idx.size))
        arrived = clock[idx] <= t_max
        counts[idx] += clock[idx, None] <= t_values[None, :]
        alive[idx] = arrived
        if not arrived.any():
            return counts
    raise RuntimeError(f"a path exceeded {MAX_ARRIVALS} arrivals; check G")


def renewal_function_mc(g, t_values, n_paths, rng):
    """Plain MC estimate of lambda at ``t_values`` with standard errors."""
    t_values = np.asarray(t_values, dtype=float)
    counts = _sample_counts(g, t_values, float(t_values.max()), n_paths, rng)
    est = counts.mean(axis=0)
    se = counts.std(axis=0, ddof=1) / math.sqrt(n_paths)
    return est, se


def exp_moment_N(g, beta, t_max, n_paths, rng):
    """MC estimate of E exp(beta * N(T)) with a divergence heuristic.

    Returns (estimate, std_error, unreliable).  The flag is raised when
    the top 0.1% of paths contribute more than half the sample sum,
    which is the signature of an infinite or barely-finite moment.
    """
    counts = _sample_counts(g, np.array([t_max]), t_max, n_paths, rng)[:, 0]
    vals = np.exp(beta * counts.astype(float))
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(n_paths))
    top = np.sort(vals)[-max(1, n_paths // 1000):]
    unreliable = float(top.sum()) > 0.5 * float(vals.sum())
    return est, se, unreliable


def _direct_tilted_values(grid, g, weight):
    """Reference tilted measure: one direct convolution per trapezoid half."""
    lam = grid.lambda_values
    k_max = len(lam) - 1
    w = np.broadcast_to(np.asarray(weight(grid.times), dtype=float), lam.shape)
    dg = _stieltjes_increments(g, grid.step, k_max)
    one_lam = 1.0 + lam
    a = 0.5 * w[1:] * dg
    b = 0.5 * w[:-1] * dg
    values = np.zeros(k_max + 1)
    values[1:] = np.convolve(a, one_lam)[:k_max] + np.convolve(b, one_lam[1:])[:k_max]
    return values


def test_poisson_renewal_is_linear():
    grid = renewal_function(Exponential(1.0), 5.0, 1e-3)
    assert np.max(np.abs(grid.lambda_values - grid.times)) <= 1e-3
    grid2 = renewal_function(Exponential(0.5), 4.0, 1e-3)
    assert np.max(np.abs(grid2.lambda_values - 0.5 * grid2.times)) <= 1e-3


def test_deterministic_renewal_is_floor():
    grid = renewal_function(Deterministic(0.7), 3.0, 0.01)
    expect = np.floor(grid.times / 0.7 + 1e-12)
    np.testing.assert_array_equal(grid.lambda_values, expect)


def test_renewal_monotone_weibull():
    grid = renewal_function(Weibull(0.5), 3.0, 0.005)
    assert np.all(np.diff(grid.lambda_values) >= 0)
    assert grid.lambda_values[0] == 0.0


def test_step_validation():
    with pytest.raises(ValueError):
        renewal_function(Exponential(1.0), 1.0, 0.2)  # h > t_max/10
    with pytest.raises(ValueError):
        renewal_function(Exponential(1.0), -1.0, 0.01)


def test_step_halving_convergence():
    # max |lambda_h - lambda_{h/2}| on the common grid, at h = 0.02 and 0.01
    lam = [renewal_function(Weibull(0.5), 2.0, h).lambda_values for h in (0.02, 0.01, 0.005)]
    e1 = np.max(np.abs(lam[0] - lam[1][::2]))
    e2 = np.max(np.abs(lam[1] - lam[2][::2]))
    assert e2 < e1
    assert e2 < 5e-3


def test_renewal_against_mc():
    g = Weibull(0.8, 1.0)
    grid = renewal_function(g, 3.0, 0.005)
    ts = np.array([0.5, 1.5, 3.0])
    est, se = renewal_function_mc(g, ts, 200_000, np.random.default_rng(0))
    for t, m, s in zip(ts, est, se):
        assert abs(grid.lambda_values[round(t / grid.step)] - m) < 4 * s + 5e-3


def test_unit_tilt_recovers_renewal_function():
    grid = renewal_function(Exponential(1.0), 3.0, 1e-3)
    (tm,) = tilted_measure(grid, [lambda u: np.ones_like(u)])
    assert np.max(np.abs(tm.values - grid.lambda_values)) <= 1e-6


def test_tilted_measure_weight_bounds():
    # a weight in [lo, hi] pins the tilted measure between scaled copies
    grid = renewal_function(Exponential(1.0), 2.0, 1e-3)
    w = lambda u: 1.0 + 0.5 * np.sin(u)
    tm, unit = tilted_measure(grid, [w, lambda u: np.ones_like(u)])
    assert np.all(tm.values <= 1.5 * unit.values + 1e-12)
    assert np.all(tm.values >= 0.5 * unit.values - 1e-12)
    assert np.all(tm.increments >= -1e-15)


def test_tilted_measure_rejects_bad_weight():
    grid = renewal_function(Exponential(1.0), 2.0, 0.01)
    with pytest.raises(ValueError):
        tilted_measure(grid, [lambda u: np.where(u > 1.0, -1.0, 1.0)])


def test_exp_moment_poisson_oracle():
    # E exp(beta N(t)) = exp(t (e^beta - 1)) for a Poisson process
    beta, t = 0.3, 2.0
    est, se, bad = exp_moment_N(Exponential(1.0), beta, t, 200_000, np.random.default_rng(1))
    exact = math.exp(t * (math.exp(beta) - 1.0))
    assert not bad
    assert abs(est - exact) < 4 * se


def test_exp_moment_divergence_flag():
    # Pareto(1) inter-arrivals concentrate arrivals; large beta blows up
    _, _, bad = exp_moment_N(Deterministic(0.01), 5.0, 1.0, 10_000, np.random.default_rng(2))
    # deterministic => N(T) constant => perfectly reliable
    assert not bad
    est, se, bad2 = exp_moment_N(Exponential(5.0), 8.0, 2.0, 20_000, np.random.default_rng(3))
    assert bad2  # heavy exponent: top quantile dominates the sum


def test_renewal_speed():
    t0 = time.time()
    renewal_function(Exponential(1.0), 5.0, 1e-3)
    assert time.time() - t0 < 5.0


@pytest.mark.parametrize(
    "g, t_max, h",
    [(Exponential(1.0), 5.0, 1e-3), (Weibull(0.5), 3.0, 0.005), (Weibull(0.8), 3.0, 0.005), (Pareto(1.0), 3.0, 1e-3)],
    ids=["exp1", "weibull0.5", "weibull0.8", "pareto1"],
)
def test_renewal_matches_direct_solver(g, t_max, h):
    lam = renewal_function(g, t_max, h).lambda_values
    ref = _direct_renewal(g, t_max, h)
    assert lam.shape == ref.shape
    assert np.max(np.abs(lam - ref)) <= 1e-12
    assert lam[0] == 0.0
    assert np.all(np.diff(lam) >= 0)


@pytest.mark.parametrize("g", [Exponential(1.0), Weibull(0.5), Deterministic(0.3)], ids=["exp1", "weibull0.5", "det0.3"])
def test_tilted_measure_matches_direct_convolution(g):
    grid = renewal_function(g, 2.0, 1e-3)
    dep = FrankTri(Pareto(1.0), Pareto(2.0), g, 1.0)
    tms = tilted_triplet(grid, dep)
    weights = (lambda u: dep.h_func(1, u), lambda u: dep.h_func(2, u), dep.g_func)
    for tm, weight in zip(tms, weights):
        ref = _direct_tilted_values(grid, g, weight)
        assert np.max(np.abs(tm.values - ref)) <= 1e-12 * np.max(ref)
        assert tm.values[0] == 0.0


def test_quadrature_layer_speed():
    # the K = 4e4 grid of the fine asymptotic experiment: solve plus three
    # tilts took ~2 s as an O(K^2) march and ~0.06 s by series inversion
    dep = FrankTri(Pareto(1.0), Pareto(1.0), Exponential(1.0), 1.0)
    t0 = time.perf_counter()
    grid = renewal_function(Exponential(1.0), 2.0, 5e-5)
    tilted_triplet(grid, dep)
    assert time.perf_counter() - t0 < 1.0


def _padded(rng, zeros: int, span: int, length: int) -> np.ndarray:
    """``zeros`` zeros, ``span`` uniform(0.5, 1.5) entries, then zeros up to ``length``."""
    x = np.zeros(max(length, zeros + span))
    x[zeros : zeros + span] = rng.uniform(0.5, 1.5, span)
    return x


@pytest.mark.parametrize("n", [1, 2, 3, 7, 17, 4097, 40001])
def test_conv_heads_match_direct_convolution(n):
    # one transform of a serves operands with different leading zeros and
    # lengths; the head before both supports start stays exactly 0.0
    rng = np.random.default_rng(n)
    span = n if n <= 4097 else 300  # keeps the direct reference O(n * span)
    for za in sorted({0, 1, n // 3}):
        a = _padded(rng, za, n, n)
        bs = [_padded(rng, zb, min(span, length), length)
              for zb, length in ((0, n), (1, n + 3), (5, n + 9), (n // 2, n), (n - 1, n), (n, n + 1))]
        operands = [b.copy() for b in bs]
        conv = _conv_heads(a, n)
        heads = [conv(b) for b in bs]
        assert len(heads) == len(bs)
        assert all(np.shares_memory(head, b) for head, b in zip(heads, bs))  # written over b
        for b, head in zip(operands, heads):
            zb = int(np.argmax(b != 0)) if b[:n].any() else n
            ref = np.zeros(n)
            if zb < n:
                direct = np.convolve(a[: n - zb], np.trim_zeros(b[zb:n], "b"))[: n - zb]
                ref[zb : zb + len(direct)] = direct
            assert head.shape == (n,)
            assert np.all(head[: min(za + zb, n)] == 0.0)
            if za + zb < n:
                assert head[za + zb] == a[za] * b[zb]
            assert np.max(np.abs(head - ref)) <= 1e-12 * max(np.max(ref), 1.0)


def test_first_terms_after_zeros_are_exact():
    # the node before a deterministic G's jump is exactly 0, and lambda's
    # first node is the exact product dG_1 / (1 - dG_1 / 2) of the scheme's
    # first step; the FFT's own rounding there is ~1e-15 absolute
    grid = renewal_function(Deterministic(0.3), 2.0, 1e-3)
    values = tilted_measure(grid, [lambda u: np.ones_like(u)])[0].values
    assert grid.lambda_values[299] == 0.0 and values[299] == 0.0
    for h in (5e-5, 1e-3):
        grid = renewal_function(Exponential(1.0), 2.0, h)
        dg1 = grid.g_increments[0]
        assert grid.lambda_values[1] == dg1 * (1.0 / (1.0 - 0.5 * dg1))


def test_smooth_size_is_least_5_smooth_bound():
    def smooth(k):
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        return k == 1

    sizes = [k for k in range(1, 6001) if smooth(k)]
    for m in range(1, 5001):
        assert _smooth_size(m) == next(k for k in sizes if k >= m)
    assert _smooth_size(79_999) == 80_000
    assert all(_smooth_size(1 << e) == 1 << e for e in range(20))


@pytest.mark.parametrize("g", [Exponential(1.0), Deterministic(0.3)], ids=["exp1", "det0.3"])
def test_tilted_measure_weight_sequence_matches_single_calls(g):
    grid = renewal_function(g, 2.0, 1e-3)
    dep = FrankTri(Pareto(1.0), Pareto(2.0), Exponential(1.0), 3.0)
    weights = [lambda u: dep.h_func(1, u), lambda u: np.ones_like(u), dep.g_func, lambda u: 1.0 + u]
    many = tilted_measure(grid, weights)
    assert isinstance(many, list) and len(many) == len(weights)
    for tm, weight in zip(many, weights):
        (one,) = tilted_measure(grid, [weight])
        assert (one.step, one.t_max) == (tm.step, tm.t_max) == (grid.step, grid.t_max)
        assert tm.increments == pytest.approx(one.increments, rel=1e-13, abs=0)
        assert np.array_equal(tm.values == 0.0, one.values == 0.0)
    with pytest.raises(ValueError):
        tilted_measure(grid, [lambda u: np.ones_like(u), lambda u: -np.ones_like(u)])


def test_tilted_measure_memory_does_not_grow_with_weights():
    # each weight's arrays are built, convolved and finished before the next
    # weight's exist: beyond the measures it returns, three weights need the
    # working memory of one within one K-length array
    grid = renewal_function(Exponential(1.0), 2.0, 5e-5)  # K = 4e4 nodes
    dep = FrankTri(Pareto(1.0), Pareto(1.0), Exponential(1.0), 1.0)
    weights = [lambda u: dep.h_func(1, u), lambda u: dep.h_func(2, u), dep.g_func]
    k_array = 8 * len(grid.lambda_values)

    def peak(ws):
        assert len(tilted_measure(grid, ws)) == len(ws)
        return working_memory(lambda: tilted_measure(grid, ws))

    one, three = peak(weights[:1]), peak(weights)
    assert abs(three - one) <= k_array, (one / k_array, three / k_array)


def test_tilted_triplet_frees_the_grid():
    # a tilted measure keeps its grid's step and t_max, not the grid, so
    # lambda and G's increments die with the grid while the measures live
    grid = renewal_function(Exponential(1.0), 2.0, 1e-3)
    lam = weakref.ref(grid.lambda_values)
    dg = weakref.ref(grid.g_increments)
    measures = tilted_triplet(grid, FrankTri(Pareto(1.0), Pareto(1.0), Exponential(1.0), 1.0))
    step, t_max = grid.step, grid.t_max
    del grid
    assert lam() is None and dg() is None
    assert all((tm.step, tm.t_max) == (step, t_max) and len(tm.increments) == 2001 for tm in measures)


def test_renewal_function_working_memory_bound():
    # at K = 4e4 nodes the solver needs at most 6.1 arrays of K floats beyond
    # the grid it returns: q is freed once inverted and the cdf is built after
    # that and freed once transformed (holding both through the inversion
    # read 8.06)
    g = Exponential(1.0)
    k_array = 8 * len(renewal_function(g, 2.0, 5e-5).lambda_values)
    used = working_memory(lambda: renewal_function(g, 2.0, 5e-5))
    assert used <= 6.1 * k_array, used / k_array


def test_tilted_triplet_working_memory_bound():
    # at K = 4e4 nodes three tilts need at most 8.1 arrays of K floats beyond
    # the measures they return: 1 + lambda is freed once transformed and the
    # measures are allocated before any weight's temporaries (9.08 otherwise)
    grid = renewal_function(Exponential(1.0), 2.0, 5e-5)
    dep = FrankTri(Pareto(1.0), Pareto(1.0), Exponential(1.0), 1.0)
    k_array = 8 * len(grid.lambda_values)
    used = working_memory(lambda: tilted_triplet(grid, dep))
    assert used <= 8.1 * k_array, used / k_array
