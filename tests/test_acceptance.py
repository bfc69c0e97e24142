"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Each criterion runs at its stated tolerance.  Two clauses are expected
red — they assert statements that the exact model genuinely violates at
the stated levels; the analysis lives next to the supplementary tests
that pin the true behaviour (see test_criterion_5_supplement and
test_criterion_6_supplement).
"""
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from renewalrisk.asymptotics import Box2, theorem_rhs
from renewalrisk.copulas import (
    FrankTri,
    Independent,
    NestedFrankProduct,
    SarmanovFGM,
    bounds_over_horizon,
    condition_ratio_scan,
    mean_h_check,
)
from renewalrisk.counterexample import CounterexampleF, m_index
from renewalrisk.marginals import Exponential, Pareto, local_prob
from renewalrisk.renewal import renewal_function, tilted_measure, tilted_triplet
from renewalrisk.simulate import (
    Linear,
    ModelConfig,
    lemma33_check,
    simulate_discounted_claims,
    simulate_grid,
    simulate_net_loss,
)

from conftest import record_acceptance

PARETO1 = Pareto(1.0)
EXP1 = Exponential(1.0)
THREADS = 4


def _verdict(num, ok, detail):
    record_acceptance(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


# -- 1 ----------------------------------------------------------------------
def test_criterion_1_renewal_solver():
    t0 = time.time()
    grid = renewal_function(EXP1, 5.0, 1e-3)
    elapsed = time.time() - t0
    err = float(np.max(np.abs(grid.lambda_values - grid.times)))
    ok = err <= 1e-3 and elapsed < 5.0
    _verdict(1, ok, f"max|lambda-t|={err:.2e} (tol 1e-3), runtime {elapsed:.2f}s (<5s)")


# -- 2 ----------------------------------------------------------------------
def test_criterion_2_tilted_measures():
    dep = FrankTri(PARETO1, PARETO1, EXP1, 1.0)
    grid = renewal_function(EXP1, 2.0, 1e-3)
    (unit,) = tilted_measure(grid, [lambda u: np.ones_like(u)])
    unit_err = float(np.max(np.abs(unit.values - grid.lambda_values)))

    rep = bounds_over_horizon(dep, 2.0)
    lam = grid.lambda_values[1:]  # ratios at t > 0
    in_b = in_d = True
    for i in (1, 2):
        (ti,) = tilted_measure(grid, [lambda u, i=i: np.asarray(dep.h_func(i, u)) * np.ones_like(u)])
        ratio = ti.values[1:] / lam
        in_b &= bool(np.all((ratio >= rep.b_lower - 1e-9) & (ratio <= rep.b_upper + 1e-9)))
    (tj,) = tilted_measure(grid, [lambda u: np.asarray(dep.g_func(u)) * np.ones_like(u)])
    ratio_j = tj.values[1:] / lam
    in_d = bool(np.all((ratio_j >= rep.d_lower - 1e-9) & (ratio_j <= rep.d_upper + 1e-9)))

    ok = unit_err <= 1e-6 and in_b and in_d
    _verdict(
        2,
        ok,
        f"unit-tilt error {unit_err:.2e} (tol 1e-6); "
        f"h-tilt ratios in [{rep.b_lower:.3f},{rep.b_upper:.3f}]: {in_b}; "
        f"g-tilt ratios in [{rep.d_lower:.3f},{rep.d_upper:.3f}]: {in_d}",
    )


# -- 3 ----------------------------------------------------------------------
def test_criterion_3_copula_validity():
    variants = [
        FrankTri(PARETO1, PARETO1, EXP1, 0.5),
        FrankTri(PARETO1, PARETO1, EXP1, 1.0),
        FrankTri(PARETO1, PARETO1, EXP1, 3.0),
        NestedFrankProduct(PARETO1, PARETO1, EXP1, 0.5),
        NestedFrankProduct(PARETO1, PARETO1, EXP1, 1.0),
        SarmanovFGM(PARETO1, PARETO1, EXP1, 0.5, 0.3, 0.1),
        SarmanovFGM(PARETO1, PARETO1, EXP1, -0.3, 0.2, 0.4),
        SarmanovFGM(PARETO1, PARETO1, EXP1, 0.2, -0.2, 0.2),
        SarmanovFGM(PARETO1, PARETO1, EXP1, 0.9, 0.05, 0.04),
        SarmanovFGM(PARETO1, PARETO1, EXP1, -0.2, -0.2, -0.2),
    ]
    t0 = time.time()
    rng = np.random.default_rng(2024)
    min_vol = math.inf
    max_h_dev = 0.0
    for spec in variants:
        lo = rng.random((100_000, 3))
        hi = lo + rng.random((100_000, 3)) * (1.0 - lo)
        min_vol = min(min_vol, float(spec.c_volumes(lo, hi).min()))
        for i in (1, 2):
            max_h_dev = max(max_h_dev, abs(mean_h_check(spec, i) - 1.0))
    elapsed = time.time() - t0
    ok = min_vol >= -1e-12 and max_h_dev <= 1e-10 and elapsed < 30.0
    _verdict(
        3,
        ok,
        f"min c-volume {min_vol:.2e} (>=-1e-12), max |E h - 1| {max_h_dev:.1e} "
        f"(<=1e-10), runtime {elapsed:.1f}s (<30s), 1e5 boxes x {len(variants)} variants",
    )


# -- 4 ----------------------------------------------------------------------
def test_criterion_4_condition_scans():
    dep = FrankTri(PARETO1, PARETO1, EXP1, 1.0)
    s_grid = np.linspace(0.0, 2.0, 50)
    x_grid = [10.0, 100.0, 1000.0, 10000.0]
    ok = True
    worst_last = 0.0
    details = []
    for condition in (1, 2, 3):
        dev = condition_ratio_scan(dep, 1, s_grid, x_grid, 1.0, condition=condition)
        mono = bool(np.all(np.diff(dev) < 0))
        ok &= mono and dev[-1] <= 0.02
        worst_last = max(worst_last, dev[-1])
        details.append(f"cond{condition}: last {dev[-1]:.1e} {'dec' if mono else 'NOT dec'}")
    _verdict(4, ok, "; ".join(details) + f" (tol 2% at x=1e4, worst {worst_last:.1e})")


# -- 5 ----------------------------------------------------------------------
def test_criterion_5_counterexample():
    F = CounterexampleF(8)
    tab = F.table
    ordering = all(
        tab.a[n] < tab.b[n] < tab.mid[n] < tab.a[n + 1] for n in range(1, 9)
    )
    m12 = m_index(12) == 11
    total = F.cdf(F.x_max)
    norm_ok = abs(total - 1.0) <= 1e-12
    tail_ok = F.tail_bound < 2.0**-110
    witness_ok = all(
        abs(F.almost_decreasing_witness(n) / math.log(n + 1) - 1.0) <= 1e-12
        for n in range(1, 8)
    )
    conv = [abs(F.self_convolution_ratios(tab.a[n])[0] - 1.0) for n in (2, 3, 4)]
    conv_234_decreasing = conv[0] > conv[1] > conv[2]
    mids = [F.self_convolution_ratios(tab.a[n])[1] for n in range(2, 9)]
    mid_to_zero = all(a > b for a, b in zip(mids[1:], mids[2:])) and mids[-1] < 1e-11

    ok = (ordering and m12 and norm_ok and tail_ok and witness_ok
          and conv_234_decreasing and mid_to_zero)
    _verdict(
        5,
        ok,
        f"ordering {ordering}, m_12==11 {m12}, integral dev {abs(total-1):.1e} "
        f"(tol 1e-12), tail {F.tail_bound:.1e} (<2^-110), witnesses {witness_ok}, "
        f"|conv ratio-1| over n=2,3,4 = {conv[0]:.4g},{conv[1]:.4g},{conv[2]:.4g} "
        f"strictly decreasing: {conv_234_decreasing} (known red: the asymptotic "
        f"regime activates only for n>=3; see supplementary test), "
        f"middle part -> 0: {mid_to_zero}",
    )


def test_criterion_5_supplement_true_trend():
    # the statement that is actually true: the deviation decreases strictly
    # once the asymptotic regime activates (n >= 3), reaching ~2e-5 at n=8,
    # and the middle part vanishes; this is the limit behaviour the
    # construction demonstrates
    F = CounterexampleF(8)
    devs = [abs(F.self_convolution_ratios(F.table.a[n])[0] - 1.0) for n in range(3, 9)]
    assert all(a > b for a, b in zip(devs, devs[1:])), devs
    assert devs[-1] < 1e-3


# -- 6 ----------------------------------------------------------------------
def test_criterion_6_poisson_oracle():
    box = Box2(20.0, 20.0, 5.0, 5.0)
    p = local_prob(PARETO1, box.window1)
    grid = renewal_function(EXP1, 2.0, 1e-3)
    (unit,) = tilted_measure(grid, [lambda u: np.ones_like(u)])
    quad_dev = 0.0
    for t in (0.5, 1.0, 2.0):
        val = theorem_rhs(PARETO1, PARETO1, [box], 0.0, [t], unit, unit, unit)[0][0].total
        oracle = p * p * (t * t + t)
        quad_dev = max(quad_dev, abs(val / oracle - 1.0))
    quad_ok = quad_dev <= 0.005

    config = ModelConfig(
        dependence=Independent(PARETO1, PARETO1, EXP1), t_max=2.0, r=0.0, seed=101
    )
    hits = simulate_grid(config, [0.5, 1.0, 2.0], [box], 100_000_000, threads=THREADS)
    mc_ok = True
    cells, red = [], []
    for i, t in enumerate(( 0.5, 1.0, 2.0)):
        n_hit = int(hits[i, 0])
        est = n_hit / 1e8
        se = math.sqrt(est * (1 - est) / 1e8)
        oracle = p * p * (t * t + t)
        lo, hi = (est - 1.96 * se) / oracle, (est + 1.96 * se) / oracle
        inside = 0.8 <= lo and hi <= 1.25
        mc_ok &= inside
        if not inside:
            red.append(f"{t:g}")
        cells.append(f"t={t}: CI/oracle [{lo:.3f},{hi:.3f}] {'ok' if inside else 'OUT'}")
    ok = quad_ok and mc_ok
    _verdict(
        6,
        ok,
        f"quadrature dev {quad_dev:.2e} (tol 0.5%): {'ok' if quad_ok else 'OUT'}; "
        + "; ".join(cells)
        + (f" (known red at t={','.join(red)}: at x=20 the exact probability exceeds the "
           "first-order formula by 21%, 36% and 59% at t=0.5, 1 and 2, confirmed by an independent "
           "convolution oracle; see supplementary test)" if red else ""),
    )


def test_criterion_6_supplement_convolution_oracle():
    # the exact probability at x=20 sits above the first-order asymptotic by
    # a genuine pre-asymptotic factor; an independent semi-analytic oracle
    # (Poisson mixture of n-fold Pareto convolutions) pins the factor at
    # 1.206 / 1.362 / 1.590 for t = 0.5 / 1 / 2, and MC must agree with IT
    box = Box2(20.0, 20.0, 5.0, 5.0)
    p = local_prob(PARETO1, box.window1)
    factors = {0.5: 1.206, 1.0: 1.362, 2.0: 1.590}
    config = ModelConfig(
        dependence=Independent(PARETO1, PARETO1, EXP1), t_max=2.0, r=0.0, seed=77
    )
    hits = simulate_grid(config, list(factors), [box], 20_000_000, threads=THREADS)
    for i, (t, factor) in enumerate(factors.items()):
        est = int(hits[i, 0]) / 2e7
        se = math.sqrt(est * (1 - est) / 2e7)
        exact = p * p * (t * t + t) * factor
        assert abs(est - exact) < 3 * se + 0.02 * exact, (t, est, exact, se)


# -- 7 ----------------------------------------------------------------------
def test_criterion_7_main_theorem_trend():
    dep = FrankTri(PARETO1, PARETO1, EXP1, 1.0)
    config = ModelConfig(dependence=dep, t_max=2.0, r=0.05, seed=31)
    t_grid = [0.5, 1.0, 1.5, 2.0]
    x_grid = [10.0, 20.0, 40.0]
    boxes = [Box2(x, x, 5.0, 5.0) for x in x_grid]

    t1, t2, tj = tilted_triplet(renewal_function(EXP1, 2.0, 1e-3), dep)

    hits = simulate_grid(config, t_grid, boxes, 100_000_000, threads=THREADS)
    max_dev = []
    for j, box in enumerate(boxes):
        worst = 0.0
        for i, t in enumerate(t_grid):
            est = int(hits[i, j]) / 1e8
            se = math.sqrt(est * (1 - est) / 1e8)
            asym = theorem_rhs(PARETO1, PARETO1, [box], 0.05, [t], t1, t2, tj)[0][0].total
            # CI accounting: deviation net of 1.96 se cannot be blamed on MC
            dev = max(abs(est / asym - 1.0) - 1.96 * se / asym, 0.0)
            worst = max(worst, dev)
        max_dev.append(worst)
    non_increasing = all(a >= b - 1e-12 for a, b in zip(max_dev, max_dev[1:]))
    ok = non_increasing and max_dev[-1] <= 0.4
    _verdict(
        7,
        ok,
        "max-over-t |emp/asym - 1| (CI-adjusted) per x=10,20,40: "
        + ", ".join(f"{d:.3f}" for d in max_dev)
        + f"; non-increasing {non_increasing}, <=0.4 at x=40: {max_dev[-1] <= 0.4}"
        " (known red: an exact convolution oracle puts the true deviation at"
        " 0.27/0.59/0.59 for these x — the decreasing regime starts at x~40"
        " and the 0.4 band is reached only near x~100; see supplementary"
        " tests for the certified trend)",
    )


def _independent_oracle_devs(x_levels, t_levels, d=5.0, h=0.01, xmax=800.0, n_terms=40):
    """Exact |P/asym - 1| for the independent r=0 model via convolutions.

    P(D in box, r=0) = sum_n Poisson(t)(n) * q_n(x)^2 with q_n the window
    probability of the n-fold Pareto(1) convolution; asym = p^2 (t^2 + t).
    """
    from scipy.signal import fftconvolve

    grid = np.arange(0.0, xmax, h)
    mid = grid + h / 2
    pdf = (1.0 / (1.0 + grid) - 1.0 / (1.0 + grid + h)) / h

    def winq(dens, x):
        m = (mid > x) & (mid <= x + d)
        return float(dens[m].sum()) * h

    qn = {1: {x: winq(pdf, x) for x in x_levels}}
    cur = pdf.copy()
    for n in range(2, n_terms + 1):
        cur = fftconvolve(cur, pdf)[: len(grid)] * h
        qn[n] = {x: winq(cur, x) for x in x_levels}

    out = {}
    for x in x_levels:
        p = 1 / (1 + x) - 1 / (1 + x + d)
        devs = []
        for t in t_levels:
            pois = [math.exp(-t) * t**n / math.factorial(n) for n in range(n_terms + 1)]
            exact = sum(pois[n] * qn[n][x] ** 2 for n in range(1, n_terms + 1))
            devs.append(abs(exact / (p * p * (t * t + t)) - 1.0))
        out[x] = max(devs)
    return out


def test_criterion_7_supplement_exact_trend():
    # the certified statement: the first-order formula does converge
    # uniformly over t, but the non-increasing regime begins at x ~ 40;
    # along x = 40, 80, 160, 320 the exact max-over-t deviation decreases
    # strictly and falls below 0.16
    devs = _independent_oracle_devs((40.0, 80.0, 160.0, 320.0), (0.5, 1.0, 1.5, 2.0))
    seq = [devs[x] for x in (40.0, 80.0, 160.0, 320.0)]
    assert all(a > b for a, b in zip(seq, seq[1:])), seq
    assert seq[0] == pytest.approx(0.591, abs=0.02)
    assert seq[-1] < 0.16


def test_criterion_7_supplement_mc_matches_oracle_at_x40():
    # the simulator reproduces the exact pre-asymptotic factor at the
    # criterion-7 level x=40 (independent, r=0, where the oracle is exact):
    # P/asym = 1.173 / 1.320 / 1.591 at t = 0.5 / 1 / 2
    box = Box2(40.0, 40.0, 5.0, 5.0)
    p = local_prob(PARETO1, box.window1)
    factors = {0.5: 1.173, 1.0: 1.320, 2.0: 1.591}
    config = ModelConfig(
        dependence=Independent(PARETO1, PARETO1, EXP1), t_max=2.0, r=0.0, seed=88
    )
    n = 100_000_000
    hits = simulate_grid(config, list(factors), [box], n, threads=THREADS)
    for i, (t, factor) in enumerate(factors.items()):
        est = int(hits[i, 0]) / n
        se = math.sqrt(est * (1 - est) / n)
        exact = p * p * (t * t + t) * factor
        assert abs(est - exact) < 3 * se + 0.02 * exact, (t, est, exact, se)


# -- 8 ----------------------------------------------------------------------
def test_criterion_8_net_loss_identity():
    overlaps = []
    for rep in range(10):
        config = ModelConfig(
            dependence=FrankTri(PARETO1, PARETO1, EXP1, 1.0),
            t_max=2.0,
            r=0.05,
            premiums=(Linear(1.0), Linear(2.0)),
            seed=500 + rep,
            batch_size=200_000,
        )
        t, widths, x = 1.5, (5.0, 5.0), (10.0, 12.0)
        nl = simulate_net_loss(config, x, t, widths, 400_000, threads=THREADS)
        disc = (1 - math.exp(-config.r * t)) / config.r
        scale = math.exp(-config.r * t)
        shifted = Box2(x[0] + disc, x[1] + 2 * disc, widths[0] * scale, widths[1] * scale)
        direct = simulate_discounted_claims(config, t, shifted, 400_000, threads=THREADS)
        overlaps.append(nl.ci95[0] <= direct.ci95[1] and direct.ci95[0] <= nl.ci95[1])
    ci_ok = all(overlaps)

    config0 = ModelConfig(
        dependence=FrankTri(PARETO1, PARETO1, EXP1, 1.0),
        t_max=2.0,
        r=0.0,
        premiums=(Linear(1.0), Linear(2.0)),
        seed=999,
        batch_size=200_000,
    )
    nl0 = simulate_net_loss(config0, (10.0, 12.0), 1.5, (5.0, 5.0), 400_000)
    direct0 = simulate_discounted_claims(
        config0, 1.5, Box2(11.5, 15.0, 5.0, 5.0), 400_000
    )
    exact_ok = nl0.hits == direct0.hits
    ok = ci_ok and exact_ok
    _verdict(
        8,
        ok,
        f"CI overlap in {sum(overlaps)}/10 replications at r=0.05; "
        f"exact hit equality at r=0: {exact_ok} ({nl0.hits} hits both sides)",
    )


# -- 9 ----------------------------------------------------------------------
def test_criterion_9_lemma_identity():
    dep = FrankTri(PARETO1, PARETO1, EXP1, 1.0)
    config = ModelConfig(dependence=dep, t_max=2.0, r=0.05, seed=5)
    # one pass scores the three boxes, each as a call with that box alone
    # would (test_lemma33_boxes_share_one_pass)
    boxes = [Box2(x, x, 20.0, 20.0) for x in (10.0, 20.0, 40.0)]
    results = lemma33_check(config, 2, 2.0, boxes, 40_000_000, threads=THREADS)
    ratios = [ratio for _, _, ratio in results]
    hits = [(lhs.hits, rhs.hits) for lhs, rhs, _ in results]
    trend = abs(ratios[-1] - 1.0) < abs(ratios[0] - 1.0)
    band = 0.8 <= ratios[-1] <= 1.25
    enough = min(hits[-1]) >= 100
    ok = trend and band and enough
    _verdict(
        9,
        ok,
        "lhs/rhs per x=10,20,40: " + ", ".join(f"{r:.4f}" for r in ratios)
        + f"; closer to 1 at x=40 than x=10: {trend}; in [0.8,1.25] at x=40: {band}; "
        f"hits at x=40 {hits[-1]} (>=100 per side: {enough})",
    )


# -- 10 ---------------------------------------------------------------------
def test_criterion_10_determinism(tmp_path):
    doc = {
        "model": {
            "f1": {"family": "pareto", "alpha": 1.0},
            "f2": {"family": "pareto", "alpha": 1.0},
            "g": {"family": "exponential", "rate": 1.0},
            "dependence": {"kind": "frank-tri", "gamma": 1.0},
            "r": 0.05,
            "t_max": 2.0,
            "seed": 11,
            "batch_size": 50000,
        },
        "experiment": "compare",
        "grids": {"t_grid": [0.5, 1.0], "x_grid": [10.0, 20.0], "d": 5.0},
        "n_paths": 400000,
        "renewal_step": 0.002,
    }
    # batch_size is inert: a second size and none at all give the same bytes
    runs = [(50000, 1), (50000, 4), (50000, 16), (300000, 4), (None, 4)]
    outputs = []
    for i, (batch_size, threads) in enumerate(runs):
        if batch_size is None:
            del doc["model"]["batch_size"]
        else:
            doc["model"]["batch_size"] = batch_size
        cfg, out = tmp_path / f"cfg{i}.json", tmp_path / f"out{i}.csv"
        cfg.write_text(json.dumps(doc))
        res = subprocess.run(
            [sys.executable, "-m", "renewalrisk.cli", "--config", str(cfg),
             "--threads", str(threads), "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert res.returncode == 0, res.stderr
        outputs.append(out.read_bytes())
    ok = all(o == outputs[0] for o in outputs)
    _verdict(10, ok, f"compare CSV byte-identical across 1/4/16 threads and batch_size "
                     f"50000/300000/unset: {ok} ({len(outputs[0])} bytes)")
