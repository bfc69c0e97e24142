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
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    assert p.discounted(rng, 10, 0.0, 3.0) == pytest.approx(6.0)
    assert p.discounted(rng, 10, 0.1, 3.0) == pytest.approx(2.0 * (1 - math.exp(-0.3)) / 0.1)
    assert rng.bit_generator.state == state  # a closed form draws nothing
    with pytest.raises(ValueError):
        Linear(-1.0)


def test_compound_poisson_premium_moments():
    cp = CompoundPoisson(rate=3.0, jump_dist=Exponential(2.0))
    rng = np.random.default_rng(5)
    vals = cp.discounted(rng, 200_000, 0.0, 2.0)
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


def test_config_rejects_zero_point_mass_g():
    # simulate_grid would otherwise run MAX_ARRIVALS rounds without moving a clock
    with pytest.raises(ValueError, match="infinitely many arrivals"):
        ModelConfig(dependence=Independent(P1, P1, Deterministic(0.0)), t_max=1.0)


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
    """Discounted claim pair per path at each grid time, shapes (n, m).

    Each round draws theta for every alive path, then the claims of the
    arrivals inside the horizon.
    """
    m = len(t_grid)
    acc1, acc2 = np.zeros((n, m)), np.zeros((n, m))
    clock = np.zeros(n)
    alive_idx = np.arange(n)
    while alive_idx.size:
        theta, arrivals = config.dependence.sample_theta(rng, alive_idx.size)
        clock[alive_idx] += theta
        sigma = clock[alive_idx]
        arrived = sigma <= t_grid[-1]
        rows = alive_idx[arrived]
        if rows.size:
            x1, x2 = config.dependence.sample_claims(rng, arrivals[..., arrived])
            sig = sigma[arrived]
            bucket = np.searchsorted(t_grid, sig, side="left")
            disc = np.exp(-config.r * sig) if config.r > 0 else 1.0
            acc1[rows, bucket] += x1 * disc
            acc2[rows, bucket] += x2 * disc
        alive_idx = rows
    return np.cumsum(acc1, axis=1), np.cumsum(acc2, axis=1)


def _blocks(n_paths):
    """(block index, path count) of each simulate.BLOCK-path block of a run."""
    return enumerate(min(simulate.BLOCK, n_paths - start) for start in range(0, n_paths, simulate.BLOCK))


def _naive_block(config, block, n, t_grid):
    """_naive_paths on the block's own claim stream."""
    return _naive_paths(config, simulate._block_rng(config, block, simulate._CLAIM_STREAM), n, t_grid)


def _naive_grid_hits(config, t_grid, boxes, n_paths):
    t_grid = np.asarray(t_grid, dtype=float)
    hits = np.zeros((len(t_grid), len(boxes)), dtype=np.int64)
    for block, n in _blocks(n_paths):
        d1, d2 = _naive_block(config, block, n, t_grid)
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
    # 70000 paths run as eight blocks of 8192 and one of 4464
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
        (FrankTri(P1, P1, E1, 1.0), 500_000, 1, [[98, 7, 3], [304, 25, 4], [621, 56, 4], [1016, 109, 11]]),
        (FrankTri(P1, P1, E1, 1.0), 70_000, 2, [[98, 7, 3], [304, 25, 4], [621, 56, 4], [1016, 109, 11]]),
        (Independent(P1, P1, E1), 70_000, 2, [[155, 9, 2], [402, 43, 2], [740, 85, 7], [1098, 156, 12]]),
        (NestedFrankProduct(P1, P1, E1, 0.5), 70_000, 2,
         [[80, 13, 1], [314, 38, 5], [643, 73, 4], [1094, 114, 9]]),
    ],
    ids=["one-batch", "three-batches", "independent-three-batches", "nested05-three-batches"],
)
def test_compare_frank_golden_hits(dep, batch, threads, want):
    # a kernel or sampler rewrite must keep the draws, and so these counts,
    # bit for bit; the batch size does not enter them, so the two Frank
    # cases agree
    hits = simulate_grid(compare_frank_config(batch, dep), GRID, COMPARE_FRANK_BOXES, 200_000, threads=threads)
    np.testing.assert_array_equal(hits, want)


def test_grid_batch_memory_is_bounded():
    # one block at a time: sampler buffers plus the three-row state, about
    # 10 float arrays of block size, whatever the path count
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
    # 100000 paths as six blocks of 16384 and one of 1696
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
    for block, n in _blocks(100_000):
        d1, d2 = _naive_block(cfg, block, n, np.array([t]))
        s1, s2 = simulate._premium_values(cfg, block, n, t)
        want += int(np.count_nonzero(simulate._in_box(d1[:, 0] - s1, d2[:, 0] - s2, target)))
    assert want > 100
    assert simulate_net_loss(cfg, x, t, widths, 100_000).hits == want


def _naive_lemma33_tallies(config, n, t_grid, boxes, n_paths):
    """lemma33_check's four tallies per (t, box), shape (len(t_grid), len(boxes), 4).

    Each block's paths run one arrival at a time to the largest t on the
    block's own claim stream, drawing theta for every alive path and then
    the claims of the arrivals inside the horizon; per path the reference
    records N(t) at every grid time (the arrivals at times <= t) and its
    first n discounted claim pairs, which are the claims of every path with
    N(t) = n.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    tally = np.zeros((len(t_grid), len(boxes), 4), dtype=np.int64)
    for block, size in _blocks(n_paths):
        rng = simulate._block_rng(config, block, simulate._CLAIM_STREAM)
        counts = np.zeros((size, len(t_grid)), dtype=np.int64)
        v1, v2 = np.zeros((n, size)), np.zeros((n, size))
        clock = np.zeros(size)
        alive, k = np.arange(size), 0
        while alive.size:
            theta, arrivals = config.dependence.sample_theta(rng, alive.size)
            clock[alive] += theta
            arrived = clock[alive] <= t_grid.max()
            alive = alive[arrived]
            if not alive.size:
                break
            x1, x2 = config.dependence.sample_claims(rng, arrivals[..., arrived])
            sigma = clock[alive]
            counts[alive] += sigma[:, None] <= t_grid
            if k < n:
                disc = np.exp(-config.r * sigma)
                v1[k, alive] = x1 * disc
                v2[k, alive] = x2 * disc
            k += 1
        s1, s2 = np.zeros(size), np.zeros(size)
        for k in range(n):  # summed in arrival order, as the paths accumulate them
            s1, s2 = s1 + v1[k], s2 + v2[k]
        for j, box in enumerate(boxes):
            in1 = ((v1 > box.x1) & (v1 <= box.x1 + box.d1)).sum(axis=0)
            in2 = ((v2 > box.x2) & (v2 <= box.x2 + box.d2)).sum(axis=0)
            pair_count = in1 * in2
            lhs = simulate._in_box(s1, s2, box)
            for i in range(len(t_grid)):
                on = counts[:, i] == n
                pc = pair_count[on]
                tally[i, j] += (lhs[on].sum(), pc.sum(), np.count_nonzero(pc), (pc * pc).sum())
    return tally


def _lemma33_cells(per_t):
    """The four tallies behind each (t, box) triple: lhs hits, rhs positives, rhs mean and its error."""
    return [[(lhs.hits, rhs.hits, rhs.value, rhs.std_error) for lhs, rhs, _ in per_box] for per_box in per_t]


@pytest.mark.parametrize(
    "dep, r, t_grid, boxes",
    [
        (FrankTri(P1, P1, E1, 1.0), 0.05, GRID, [Box2(2.0, 2.0, 5.0, 5.0), Box2(5.0, 5.0, 10.0, 10.0)]),
        # arrivals land exactly on grid times: pins "an arrival at s counts at t >= s"
        (Independent(P1, P1, Deterministic(0.5)), 0.0, GRID,
         [Box2(1.0, 1.0, 5.0, 5.0), Box2(3.0, 3.0, 20.0, 20.0), Box2(0.0, 0.0, 1e15, 1e15)]),
        # results come back in the caller's order, repeats included
        (FrankTri(P1, P1, E1, 1.0), 0.05, [1.5, 0.5, 2.0, 0.5],
         [Box2(2.0, 2.0, 5.0, 5.0), Box2(5.0, 5.0, 10.0, 10.0)]),
    ],
    ids=["frank-discounted", "deterministic-on-grid", "unsorted-repeated"],
)
def test_lemma33_grid_matches_naive_reference(dep, r, t_grid, boxes):
    cfg = make_config(dep=dep, r=r)
    n, n_paths = 2, 70_000
    tally = _naive_lemma33_tallies(cfg, n, t_grid, boxes, n_paths)
    want = [[simulate._lemma33_result(row, n_paths) for row in per_box] for per_box in tally]
    assert tally[..., 0].max(axis=0).min() > 100  # every box is exercised at some t
    got = lemma33_check(cfg, n, t_grid, boxes, n_paths)
    assert _lemma33_cells(got) == _lemma33_cells(want)
    # the largest horizon reads as a run to that horizon alone
    top = int(np.argmax(t_grid))
    assert _lemma33_cells([lemma33_check(cfg, n, t_grid[top], boxes, n_paths)]) == _lemma33_cells([got[top]])
    # one box gives one triple per horizon
    one = lemma33_check(cfg, n, t_grid, boxes[0], n_paths)
    assert _lemma33_cells([[triple] for triple in one]) == _lemma33_cells([[per_box[0]] for per_box in got])


def _count_draws(monkeypatch, cls):
    """Tally the arrivals that cls's two sampler stages draw for: {"theta": count, "claims": count}."""
    drawn = {"theta": 0, "claims": 0}
    sample_theta, sample_claims = cls.sample_theta, cls.sample_claims

    def theta(self, rng, n):
        drawn["theta"] += n
        return sample_theta(self, rng, n)

    def claims(self, rng, state):
        x1, x2 = sample_claims(self, rng, state)
        drawn["claims"] += x1.size
        return x1, x2

    monkeypatch.setattr(cls, "sample_theta", theta)
    monkeypatch.setattr(cls, "sample_claims", claims)
    return drawn


def test_grid_draws_claims_only_inside_the_horizon(monkeypatch):
    # a path draws theta N(t_max) + 1 times and claims N(t_max) times: with
    # arrivals at 0.25, 0.5, ..., 2.0 and 2.25, that is 9 and 8
    box = Box2(1.0, 1.0, 5.0, 5.0)
    drawn = _count_draws(monkeypatch, Independent)
    simulate_grid(make_config(dep=Independent(P1, P1, Deterministic(0.25))), GRID, [box], 1000)
    assert drawn == {"theta": 9 * 1000, "claims": 8 * 1000}
    # where paths leave at different rounds, too
    drawn.update(theta=0, claims=0)
    simulate_grid(make_config(dep=Independent(P1, P1, Exponential(4.0))), GRID, [box], 10_000)
    assert drawn["claims"] == drawn["theta"] - 10_000 > 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lemma33_stops_after_round_n(monkeypatch, n):
    # the event scores only round n, so no path draws after it: at most n + 1
    # thetas and n claim pairs per path, where running every path to t = 2
    # would draw ~9 of each
    cfg = make_config(dep=FrankTri(P1, P1, Exponential(4.0), 1.0))
    box, n_paths = Box2(1.0, 1.0, 5.0, 5.0), 100_000
    drawn = _count_draws(monkeypatch, FrankTri)
    lhs, rhs, _ = lemma33_check(cfg, n, 2.0, box, n_paths)
    assert lhs.hits > 20 and rhs.hits > 20
    assert n_paths < drawn["theta"] <= n_paths * (n + 1)
    assert drawn["claims"] == drawn["theta"] - n_paths  # none for a path's last theta
    # eight arrivals lie inside the horizon, but the cap of 7 is never reached;
    # every path draws theta n + 1 times and claims n times
    det = make_config(dep=Independent(P1, P1, Deterministic(0.25)))
    drawn = _count_draws(monkeypatch, Independent)
    full = lemma33_check(det, n, 2.0, box, 1000)
    assert drawn == {"theta": (n + 1) * 1000, "claims": n * 1000}
    monkeypatch.setattr(simulate, "MAX_ARRIVALS", 7)
    assert lemma33_check(det, n, 2.0, box, 1000) == full


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
        lambda cfg: simulate_net_loss(cfg, (1.0, 1.0), 2.0, (1.0, 1.0), 100),
    ],
    ids=["grid", "net-loss"],
)
def test_arrival_cap_is_uniform(monkeypatch, run):
    # arrivals at 0.25, 0.5, ..., 2.0: eight inside the horizon
    cfg = make_config(dep=Independent(P1, P1, Deterministic(0.25)))
    monkeypatch.setattr(simulate, "MAX_ARRIVALS", 8)
    run(cfg)
    monkeypatch.setattr(simulate, "MAX_ARRIVALS", 7)
    with pytest.raises(RuntimeError, match="arrivals"):
        run(cfg)


@pytest.mark.parametrize("t", [0.0, -1.0, 2.5, math.nan])
@pytest.mark.parametrize(
    "run",
    [
        lambda cfg, t: simulate_grid(cfg, [1.0, t], [Box2(1.0, 1.0, 1.0, 1.0)], 100),
        lambda cfg, t: lemma33_check(cfg, 2, t, Box2(1.0, 1.0, 1.0, 1.0), 100),
        lambda cfg, t: simulate_net_loss(cfg, (1.0, 1.0), t, (1.0, 1.0), 100),
    ],
    ids=["grid", "lemma33", "net-loss"],
)
def test_horizon_check_is_uniform(run, t):
    # every estimator takes its horizons in (0, t_max] and nothing else
    cfg = make_config()
    with pytest.raises(ValueError, match="t_max"):
        run(cfg, t)
    run(cfg, 2.0)
