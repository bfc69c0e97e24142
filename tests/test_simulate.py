import math
import tracemalloc

import numpy as np
import pytest

from renewalrisk.asymptotics import Box2
from renewalrisk.copulas import FrankTri, Independent, NestedFrankProduct
from renewalrisk.marginals import Deterministic, Exponential, Pareto
from renewalrisk import simulate
from renewalrisk.simulate import (
    CompoundPoisson,
    Linear,
    ModelConfig,
    lemma33_check,
    simulate_discounted_claims,
    simulate_grid,
    simulate_net_loss,
)

P1, E1 = Pareto(1.0), Exponential(1.0)


def make_config(dep=None, r=0.0, seed=17, t_max=2.0, batch=100_000):
    dep = dep or Independent(P1, P1, E1)
    return ModelConfig(dependence=dep, t_max=t_max, r=r, seed=seed, batch_size=batch)


def test_linear_premium_discounted():
    p = Linear(2.0)
    assert p.discounted(0.0, 3.0) == pytest.approx(6.0)
    assert p.discounted(0.1, 3.0) == pytest.approx(2.0 * (1 - math.exp(-0.3)) / 0.1)
    with pytest.raises(ValueError):
        Linear(-1.0)


def test_compound_poisson_premium_moments():
    cp = CompoundPoisson(rate=3.0, jump_dist=Exponential(2.0))
    rng = np.random.default_rng(5)
    vals = cp.sample_discounted(rng, 200_000, 0.0, 2.0)
    assert vals.mean() == pytest.approx(3.0 * 2.0 * 0.5, rel=0.02)
    assert np.all(vals >= 0)


def test_poisson_hit_probability_oracle():
    # P(N(t) >= 1) for the all-of-R^2 event cannot be tested directly
    # (boxes are finite), but a huge box at the origin catches every path
    # with at least one claim: P = 1 - e^{-t}
    cfg = make_config()
    est = simulate_discounted_claims(cfg, 1.0, Box2(0.0, 0.0, 1e12, 1e12), 200_000)
    assert est.value == pytest.approx(1 - math.exp(-1.0), abs=4 * est.std_error + 1e-4)


def test_thread_determinism():
    cfg = make_config(batch=50_000)
    grid = [0.5, 1.0]
    boxes = [Box2(5.0, 5.0, 5.0, 5.0), Box2(10.0, 10.0, 5.0, 5.0)]
    a = simulate_grid(cfg, grid, boxes, 200_000, threads=1)
    b = simulate_grid(cfg, grid, boxes, 200_000, threads=4)
    np.testing.assert_array_equal(a, b)


def test_seed_changes_stream():
    boxes = [Box2(5.0, 5.0, 5.0, 5.0)]
    a = simulate_grid(make_config(seed=1), [1.0], boxes, 100_000)
    b = simulate_grid(make_config(seed=2), [1.0], boxes, 100_000)
    assert a[0, 0] != b[0, 0]


def test_hits_monotone_in_t_and_level():
    cfg = make_config()
    boxes = [Box2(5.0, 5.0, 1e6, 1e6), Box2(20.0, 20.0, 1e6, 1e6)]
    hits = simulate_grid(cfg, [0.5, 1.0, 2.0], boxes, 200_000)
    # upper-tail boxes: more time => more hits, higher level => fewer
    assert hits[0, 0] < hits[1, 0] < hits[2, 0]
    assert np.all(hits[:, 1] < hits[:, 0])


def test_estimate_against_quadrature():
    # independent, r=0, Poisson arrivals: P ~ p1 p2 (t^2 + t) at high levels
    from renewalrisk.marginals import local_prob

    cfg = make_config(batch=500_000)
    box = Box2(20.0, 20.0, 5.0, 5.0)
    est = simulate_discounted_claims(cfg, 1.0, box, 2_000_000, threads=4)
    p = local_prob(P1, box.window1)
    oracle = p * p * 2.0 * 1.362  # pre-asymptotic correction, pinned by probe
    assert abs(est.value - oracle) < 4 * est.std_error + 0.1 * oracle


def test_net_loss_identity_r0():
    # with r=0 and linear premiums the net-loss event equals the shifted box
    cfg = ModelConfig(
        dependence=Independent(P1, P1, E1),
        t_max=2.0,
        r=0.0,
        premiums=(Linear(1.0), Linear(2.0)),
        seed=23,
        batch_size=100_000,
    )
    t, widths = 1.5, (5.0, 5.0)
    x = (10.0, 12.0)
    nl = simulate_net_loss(cfg, x, t, widths, 300_000)
    shifted = Box2(x[0] + 1.0 * t, x[1] + 2.0 * t, *widths)
    direct = simulate_discounted_claims(cfg, t, shifted, 300_000)
    assert nl.hits == direct.hits  # same claim stream, identical event


def test_net_loss_discounted_close():
    cfg = ModelConfig(
        dependence=Independent(P1, P1, E1),
        t_max=2.0,
        r=0.05,
        premiums=(Linear(1.0), Linear(2.0)),
        seed=23,
        batch_size=100_000,
    )
    nl = simulate_net_loss(cfg, (10.0, 12.0), 1.5, (5.0, 5.0), 300_000)
    shifted = Box2(
        10.0 + (1 - math.exp(-0.075)) / 0.05,
        12.0 + 2 * (1 - math.exp(-0.075)) / 0.05,
        5.0 * math.exp(-0.075),
        5.0 * math.exp(-0.075),
    )
    direct = simulate_discounted_claims(cfg, 1.5, shifted, 300_000)
    assert nl.hits == direct.hits


def test_lemma33_lhs_is_poisson_occupancy():
    # a box holding every claim sum turns lhs into P(N(1) = n) = e^-1 / n!
    cfg = make_config()
    for n in (1, 2, 3):
        lhs, _, _ = lemma33_check(cfg, n, 1.0, Box2(0.0, 0.0, 1e15, 1e15), 200_000)
        assert lhs.value == pytest.approx(math.exp(-1.0) / math.factorial(n), abs=0.005), n


def test_lemma33_n1_exact():
    # with one arrival the pair sum IS the single pair: ratio is exactly 1
    cfg = make_config(dep=FrankTri(P1, P1, E1, 1.0), batch=200_000)
    lhs, rhs, ratio = lemma33_check(cfg, 1, 1.5, Box2(2.0, 2.0, 5.0, 5.0), 400_000)
    assert ratio == 1.0
    assert lhs.hits == rhs.hits


def test_lemma33_n2_sanity():
    cfg = make_config(dep=FrankTri(P1, P1, E1, 1.0), batch=200_000)
    lhs, rhs, ratio = lemma33_check(cfg, 2, 2.0, Box2(5.0, 5.0, 10.0, 10.0), 400_000)
    assert lhs.hits > 100 and rhs.hits > 100
    assert 0.5 < ratio < 2.5
    with pytest.raises(ValueError):
        lemma33_check(cfg, 5, 2.0, Box2(5.0, 5.0, 10.0, 10.0), 1000)


def test_deterministic_arrivals():
    dep = Independent(P1, P1, Deterministic(0.6))
    cfg = make_config(dep=dep)
    # N(2.0) = 3 arrivals at 0.6, 1.2, 1.8; huge box at origin catches all
    est = simulate_discounted_claims(cfg, 2.0, Box2(0.0, 0.0, 1e15, 1e15), 10_000)
    assert est.value == 1.0


def test_config_validation():
    with pytest.raises(ValueError):
        make_config(t_max=-1.0)
    with pytest.raises(ValueError):
        ModelConfig(dependence=Independent(P1, P1, E1), t_max=1.0, r=-0.1, seed=1)
    with pytest.raises(ValueError):
        make_config(batch=0)


def test_t_grid_validation():
    cfg = make_config()
    with pytest.raises(ValueError):
        simulate_grid(cfg, [0.0, 1.0], [Box2(1, 1, 1, 1)], 1000)
    with pytest.raises(ValueError):
        simulate_grid(cfg, [3.0], [Box2(1, 1, 1, 1)], 1000)


def test_estimate_fields():
    cfg = make_config()
    est = simulate_discounted_claims(cfg, 1.0, Box2(50.0, 50.0, 1.0, 1.0), 50_000)
    assert est.n == 50_000
    assert est.ci95[0] <= est.value <= est.ci95[1]
    if est.hits < 30:
        assert est.unreliable


@pytest.mark.parametrize("n", [1, 2, 5, 30, 99, 100, 1000, 10**4, 10**6, 10**8])
def test_clopper_pearson_matches_beta_quantiles(n):
    # beta.ppf itself drifts by up to ~1e-9 in the upper bound once n >= 5e5
    from scipy.stats import beta

    rel = 1e-12 if n <= 10**4 else 1e-9
    for k in range(min(n + 1, 100)):
        lo, hi = simulate._clopper_pearson(k, n)
        if k > 0:
            assert lo == pytest.approx(beta.ppf(0.025, k, n - k + 1), rel=rel, abs=0.0), k
        if k < n:
            assert hi == pytest.approx(beta.ppf(0.975, k + 1, n - k), rel=rel, abs=0.0), k


def test_clopper_pearson_edges_and_symmetry():
    cp = simulate._clopper_pearson
    assert cp(0, 10**6)[0] == 0.0 and cp(7, 7)[1] == 1.0
    # n = 1: lo(1, 1) = 0.025 and hi(0, 1) = 0.975
    assert cp(0, 1) == (0.0, pytest.approx(0.975, rel=1e-15))
    assert cp(1, 1) == (pytest.approx(0.025, rel=1e-15), 1.0)
    # k = n - 1 mirrors k = 1: hi(99, 100) = 1 - lo(1, 100) = 0.025^(1/100)
    lo1, hi1 = cp(1, 100)
    lo99, hi99 = cp(99, 100)
    assert hi99 == 1.0 - lo1 and lo99 == pytest.approx(1.0 - hi1, rel=1e-14)
    assert hi99 == pytest.approx(0.975 ** 0.01, rel=1e-14)
    est = simulate.Estimate.from_hits(99, 100)
    assert est.ci95 == (lo99, hi99)


# -- naive reference: per-path (n, m) accumulators, bucketed then prefix-summed


def _naive_paths(config, rng, n, t_grid):
    """Discounted claim pair per path at each grid time, shapes (n, m)."""
    m = len(t_grid)
    acc1, acc2 = np.zeros((n, m)), np.zeros((n, m))
    clock = np.zeros(n)
    alive_idx = np.arange(n)
    while alive_idx.size:
        x1, x2, theta = config.dependence.sample_triple(rng, alive_idx.size)
        clock[alive_idx] += theta
        sigma = clock[alive_idx]
        arrived = sigma <= t_grid[-1]
        rows = alive_idx[arrived]
        sig = sigma[arrived]
        bucket = np.searchsorted(t_grid, sig, side="left")
        disc = np.exp(-config.r * sig) if config.r > 0 else 1.0
        acc1[rows, bucket] += np.asarray(x1)[arrived] * disc
        acc2[rows, bucket] += np.asarray(x2)[arrived] * disc
        alive_idx = rows
    return np.cumsum(acc1, axis=1), np.cumsum(acc2, axis=1)


def _naive_batch(config, rng, batch_n, t_grid):
    """_naive_paths over a batch's blocks of simulate.BLOCK paths, run in order."""
    blocks = [_naive_paths(config, rng, min(simulate.BLOCK, batch_n - start), t_grid)
              for start in range(0, batch_n, simulate.BLOCK)]
    return np.concatenate([b[0] for b in blocks]), np.concatenate([b[1] for b in blocks])


def _naive_grid_hits(config, t_grid, boxes, n_paths):
    t_grid = np.asarray(t_grid, dtype=float)
    hits = np.zeros((len(t_grid), len(boxes)), dtype=np.int64)
    for i, batch_n in enumerate(simulate._batch_plan(n_paths, config.batch_size)):
        rng = simulate._batch_rng(config, i, simulate._CLAIM_STREAM)
        d1, d2 = _naive_batch(config, rng, batch_n, t_grid)
        for j, box in enumerate(boxes):
            hits[:, j] += simulate._in_box(d1, d2, box).sum(axis=0)
    return hits


GRID = [0.5, 1.0, 1.5, 2.0]


@pytest.mark.parametrize(
    "dep, r, boxes",
    [
        (FrankTri(P1, P1, E1, 1.0), 0.05,
         [Box2(2.0, 2.0, 5.0, 5.0), Box2(5.0, 5.0, 10.0, 10.0), Box2(0.0, 0.0, 1.0, 1e6)]),
        # arrivals land exactly on grid times: pins "an arrival at s counts at t >= s"
        (Independent(P1, P1, Deterministic(0.5)), 0.0,
         [Box2(1.0, 1.0, 5.0, 5.0), Box2(3.0, 3.0, 20.0, 20.0), Box2(0.0, 0.0, 1e15, 1e15)]),
        # the lowest corners (2, 2) come from different boxes, so the
        # candidate prefilter d1 > 2, d2 > 2 passes paths in neither box
        (FrankTri(P1, P1, E1, 1.0), 0.05, [Box2(2.0, 8.0, 5.0, 5.0), Box2(8.0, 2.0, 5.0, 5.0)]),
    ],
    ids=["frank-discounted", "deterministic-on-grid", "frank-crossed-corners"],
)
def test_grid_matches_naive_reference(dep, r, boxes):
    cfg = make_config(dep=dep, r=r, batch=30_000)
    want = _naive_grid_hits(cfg, GRID, boxes, 70_000)
    assert want.min() > 100  # every cell is exercised
    np.testing.assert_array_equal(simulate_grid(cfg, GRID, boxes, 70_000), want)


def test_grid_blocks_match_naive_reference(monkeypatch):
    # batches of 30000 paths run as blocks of 8192, 8192, 8192 and 5424
    monkeypatch.setattr(simulate, "BLOCK", 8192)
    cfg = make_config(dep=FrankTri(P1, P1, E1, 1.0), r=0.05, batch=30_000)
    boxes = [Box2(2.0, 2.0, 5.0, 5.0), Box2(5.0, 5.0, 10.0, 10.0)]
    want = _naive_grid_hits(cfg, GRID, boxes, 70_000)
    assert want.min() > 100
    np.testing.assert_array_equal(simulate_grid(cfg, GRID, boxes, 70_000, threads=2), want)


def test_grid_without_boxes_keeps_its_shape():
    cfg = make_config(batch=30_000)
    assert simulate_grid(cfg, GRID, [], 50_000).shape == (len(GRID), 0)


# the compare-frank benchmark workload (perfbench/workloads/compare-frank.json)
# with 2e5 paths
COMPARE_FRANK_BOXES = [Box2(x, x, 5.0, 5.0) for x in (10.0, 20.0, 40.0)]


def compare_frank_config(batch, dep=FrankTri(P1, P1, E1, 1.0)):
    return ModelConfig(dependence=dep, t_max=2.0, r=0.05, seed=7, batch_size=batch)


@pytest.mark.parametrize(
    "dep, batch, threads, want",
    [
        (FrankTri(P1, P1, E1, 1.0), 500_000, 1, [[72, 6, 0], [289, 26, 1], [611, 57, 3], [1039, 128, 9]]),
        (FrankTri(P1, P1, E1, 1.0), 70_000, 2, [[84, 8, 2], [287, 21, 5], [629, 62, 5], [1050, 120, 9]]),
        (Independent(P1, P1, E1), 70_000, 2, [[135, 12, 1], [382, 45, 2], [777, 98, 6], [1213, 137, 5]]),
        (NestedFrankProduct(P1, P1, E1, 0.5), 70_000, 2,
         [[79, 12, 0], [294, 29, 0], [614, 62, 7], [1032, 119, 8]]),
    ],
    ids=["one-batch", "three-batches", "independent-three-batches", "nested05-three-batches"],
)
def test_compare_frank_golden_hits(dep, batch, threads, want):
    # a kernel or sampler rewrite must keep the draws, and so these counts,
    # bit for bit
    hits = simulate_grid(compare_frank_config(batch, dep), GRID, COMPARE_FRANK_BOXES, 200_000, threads=threads)
    np.testing.assert_array_equal(hits, want)


def test_grid_batch_memory_is_bounded():
    # one block at a time: sampler buffers plus the three-row state, about
    # 10 float arrays of block size, whatever the batch size
    for n in (200_000, 1_000_000):
        cfg = compare_frank_config(n)
        simulate_grid(cfg, GRID, COMPARE_FRANK_BOXES, 1_000)  # warm up
        tracemalloc.start()
        try:
            simulate_grid(cfg, GRID, COMPARE_FRANK_BOXES, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 8 * simulate.BLOCK, n


def test_grid_rows_follow_caller_order():
    cfg = make_config()
    boxes = [Box2(2.0, 2.0, 5.0, 5.0)]
    ordered = simulate_grid(cfg, [0.5, 1.0, 2.0], boxes, 50_000)
    shuffled = simulate_grid(cfg, [2.0, 0.5, 1.0, 0.5], boxes, 50_000)
    np.testing.assert_array_equal(shuffled, ordered[[2, 0, 1, 0]])


def test_net_loss_premiums_stay_paired_across_blocks(monkeypatch):
    # batches of 40000 paths as blocks of 16384, 16384 and 7232
    monkeypatch.setattr(simulate, "BLOCK", 16_384)
    test_net_loss_compound_poisson_matches_reference()


def test_net_loss_compound_poisson_matches_reference():
    # stochastic premiums must stay paired with their own path
    cfg = ModelConfig(
        dependence=FrankTri(P1, P1, E1, 1.0), t_max=2.0, r=0.05,
        premiums=(CompoundPoisson(2.0, Exponential(0.5)), Linear(1.0)),
        seed=3, batch_size=40_000,
    )
    t, x, widths = 1.5, (5.0, 5.0), (10.0, 10.0)
    target = Box2(x[0], x[1], *widths)
    target = Box2(target.x1, target.x2, widths[0] * math.exp(-0.05 * t), widths[1] * math.exp(-0.05 * t))
    want = 0
    for i, batch_n in enumerate(simulate._batch_plan(100_000, cfg.batch_size)):
        rng = simulate._batch_rng(cfg, i, simulate._CLAIM_STREAM)
        d1, d2 = _naive_batch(cfg, rng, batch_n, np.array([t]))
        s1, s2 = simulate._premium_values(cfg, i, batch_n, t)
        want += int(np.count_nonzero(simulate._in_box(d1[:, 0] - s1, d2[:, 0] - s2, target)))
    assert want > 100
    assert simulate_net_loss(cfg, x, t, widths, 100_000).hits == want


def test_lemma33_boxes_share_one_pass():
    cfg = make_config(dep=FrankTri(P1, P1, E1, 1.0), r=0.05, batch=60_000)
    boxes = [Box2(2.0, 2.0, 5.0, 5.0), Box2(5.0, 5.0, 10.0, 10.0)]
    joint = lemma33_check(cfg, 2, 1.5, boxes, 150_000)
    alone = [lemma33_check(cfg, 2, 1.5, b, 150_000) for b in boxes]
    assert joint == alone


@pytest.mark.parametrize(
    "run",
    [
        lambda cfg: simulate_grid(cfg, [1.0, 2.0], [Box2(1.0, 1.0, 1.0, 1.0)], 100),
        lambda cfg: lemma33_check(cfg, 2, 2.0, Box2(1.0, 1.0, 1.0, 1.0), 100),
        lambda cfg: simulate_net_loss(cfg, (1.0, 1.0), 2.0, (1.0, 1.0), 100),
    ],
    ids=["grid", "lemma33", "net-loss"],
)
def test_arrival_cap_is_uniform(monkeypatch, run):
    # arrivals at 0.25, 0.5, ..., 2.0: eight inside the horizon
    cfg = make_config(dep=Independent(P1, P1, Deterministic(0.25)))
    monkeypatch.setattr(simulate, "MAX_ARRIVALS", 8)
    run(cfg)
    monkeypatch.setattr(simulate, "MAX_ARRIVALS", 7)
    with pytest.raises(RuntimeError, match="arrivals"):
        run(cfg)
