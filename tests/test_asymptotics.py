import math
import tracemalloc

import numpy as np
import pytest

from renewalrisk.asymptotics import (
    AsymptoticValue,
    Box2,
    net_loss_window_shift,
    theorem_rhs,
)
from renewalrisk.copulas import FrankTri
from renewalrisk.marginals import Exponential, LocalWindow, Pareto, local_prob, scaled_local_prob
from renewalrisk.renewal import renewal_function, tilted_measure, tilted_triplet


def poisson_tilted(t_max=3.0, h=1e-3):
    grid = renewal_function(Exponential(1.0), t_max, h)
    (tm,) = tilted_measure(grid, [lambda u: np.ones_like(u)])
    return tm, tm, tm


def _rhs(f1, f2, box, r, t, *tms):
    return theorem_rhs(f1, f2, [box], r, [t], *tms)[0][0]


def _direct_theorem_rhs(f1, f2, box, r, t, tilted_1, tilted_2, tilted_joint):
    """Reference evaluator: the same cells summed by direct convolution, O(K^2)."""
    h = tilted_1.grid.step
    k_t = round(t / h)
    if k_t == 0:
        return AsymptoticValue(0.0, 0.0, 0.0)
    inc1, inc2, incj = (tm.increments[1 : k_t + 1] for tm in (tilted_1, tilted_2, tilted_joint))
    mids = h * (np.arange(1, k_t + 1) - 0.5)
    p1_mid = scaled_local_prob(f1, box.window1, r, mids)
    p2_mid = scaled_local_prob(f2, box.window2, r, mids)
    s_cap = min(int(t / h + 1 + 1e-9), 2 * k_t)
    tau = h * np.arange(1, s_cap)
    conv_a = np.convolve(inc1, p2_mid * inc2)[: s_cap - 1]
    conv_b = np.convolve(p1_mid * inc1, inc2)[: s_cap - 1]
    cross = float(np.dot(scaled_local_prob(f1, box.window1, r, tau), conv_a)
                  + np.dot(scaled_local_prob(f2, box.window2, r, tau), conv_b))
    diagonal = float(np.dot(p1_mid * p2_mid, incj))
    return AsymptoticValue(cross + diagonal, cross, diagonal)


def _assert_values_close(got, want, rel):
    for a, b in zip((got.total, got.cross_term, got.diagonal_term),
                    (want.total, want.cross_term, want.diagonal_term)):
        assert a == pytest.approx(b, rel=rel, abs=0)


def test_box_validation():
    with pytest.raises(ValueError):
        Box2(-1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        Box2(1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Box2(1.0, 1.0, 1.0, math.inf)
    b = Box2(2.0, 3.0, 1.0, 2.0)
    assert b.window1 == LocalWindow(2.0, 1.0)
    assert b.window2 == LocalWindow(3.0, 2.0)


def test_poisson_unit_closed_form():
    # independent Poisson case, r=0, unit weights: the approximation equals
    # p1 p2 (t^2 + t) with p_i the window probabilities
    f = Pareto(1.0)
    box = Box2(20.0, 20.0, 5.0, 5.0)
    t1, t2, tj = poisson_tilted()
    p1 = local_prob(f, box.window1)
    p2 = local_prob(f, box.window2)
    for t in (0.5, 1.0, 2.0):
        val = _rhs(f, f, box, 0.0, t, t1, t2, tj)
        exact = p1 * p2 * (t * t + t)
        assert val.total == pytest.approx(exact, rel=5e-3)
        assert val.cross_term == pytest.approx(p1 * p2 * t * t, rel=5e-3)
        assert val.diagonal_term == pytest.approx(p1 * p2 * t, rel=5e-3)


def test_monotone_in_t_and_zero_at_origin():
    f = Pareto(1.0)
    box = Box2(10.0, 10.0, 2.0, 2.0)
    t1, t2, tj = poisson_tilted()
    vals = [_rhs(f, f, box, 0.05, t, t1, t2, tj).total for t in (0.0, 0.5, 1.0, 2.0, 3.0)]
    assert vals[0] == 0.0
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_step_halving_consistency():
    f = Pareto(1.0)
    box = Box2(10.0, 10.0, 2.0, 2.0)
    coarse = poisson_tilted(h=2e-3)
    fine = poisson_tilted(h=1e-3)
    a = _rhs(f, f, box, 0.05, 2.0, *coarse).total
    b = _rhs(f, f, box, 0.05, 2.0, *fine).total
    assert a == pytest.approx(b, rel=2e-3)


def test_discount_reduces_probability():
    # discounting shrinks claims, so reaching a high box becomes harder
    f = Pareto(1.0)
    box = Box2(10.0, 10.0, 2.0, 2.0)
    t1, t2, tj = poisson_tilted()
    v0 = _rhs(f, f, box, 0.0, 2.0, t1, t2, tj).total
    v5 = _rhs(f, f, box, 0.5, 2.0, t1, t2, tj).total
    assert v5 < v0


def test_t_outside_grid_raises():
    f = Pareto(1.0)
    box = Box2(10.0, 10.0, 2.0, 2.0)
    t1, t2, tj = poisson_tilted(t_max=1.0, h=1e-3)
    for ts in ([2.0], [0.5, 2.0, 1.0], [0.5, -0.1]):
        with pytest.raises(ValueError):
            theorem_rhs(f, f, [box], 0.0, ts, t1, t2, tj)


def test_mismatched_grids_raise():
    f = Pareto(1.0)
    box = Box2(10.0, 10.0, 2.0, 2.0)
    a = poisson_tilted(h=1e-3)[0]
    b = poisson_tilted(h=2e-3)[0]
    with pytest.raises(ValueError):
        _rhs(f, f, box, 0.0, 1.0, a, b, a)


def test_net_loss_shift_r_zero():
    box = Box2(10.0, 20.0, 5.0, 5.0)
    out = net_loss_window_shift(box, (1.0, 2.0), 0.0, 3.0)
    assert out == Box2(13.0, 26.0, 5.0, 5.0)


def test_net_loss_shift_discounted():
    box = Box2(10.0, 20.0, 5.0, 5.0)
    r, t = 0.05, 2.0
    out = net_loss_window_shift(box, (1.0, 2.0), r, t)
    disc = (1.0 - math.exp(-r * t)) / r
    assert out.x1 == pytest.approx(10.0 + disc)
    assert out.x2 == pytest.approx(20.0 + 2 * disc)
    assert out.d1 == pytest.approx(5.0 * math.exp(-r * t))
    # r -> 0 limit matches the r = 0 branch
    tiny = net_loss_window_shift(box, (1.0, 2.0), 1e-12, t)
    assert tiny.x1 == pytest.approx(12.0, rel=1e-6)


def test_net_loss_shift_validation():
    with pytest.raises(ValueError):
        net_loss_window_shift(Box2(1, 1, 1, 1), (-1.0, 0.0), 0.0, 1.0)


@pytest.mark.parametrize("x", [10.0, 40.0])
def test_theorem_rhs_matches_direct_convolution(x):
    f1, f2 = Pareto(1.0), Pareto(2.0)
    grid = renewal_function(Exponential(1.0), 2.0, 1e-3)
    tms = tilted_triplet(grid, FrankTri(f1, f2, Exponential(1.0), 1.0))
    box = Box2(x, x, 5.0, 5.0)
    for t in (0.5, 1.0, 1.5, 2.0):
        val = _rhs(f1, f2, box, 0.05, t, *tms)
        _assert_values_close(val, _direct_theorem_rhs(f1, f2, box, 0.05, t, *tms), rel=1e-12)


def test_theorem_rhs_t_sequence_matches_scalar_calls():
    # one pass up to the largest t serves a t list in any order with repeats,
    # each horizon equal to a one-horizon call; 0.73215 / h ends in .5 and
    # 1.23452 / h in .2, the two s_cap boundary rules
    f1, f2 = Pareto(1.0), Pareto(2.0)
    grid = renewal_function(Exponential(1.0), 2.0, 1e-4)  # K = 2e4 cells
    tms = tilted_triplet(grid, FrankTri(f1, f2, Exponential(1.0), 1.0))
    box = Box2(20.0, 20.0, 5.0, 5.0)
    ts = [1.23452, 0.0, 0.73215, 2.00004, 0.73215, 1e-5, 0.5]
    vals = [per_t[0] for per_t in theorem_rhs(f1, f2, [box], 0.05, ts, *tms)]
    assert len(vals) == len(ts)
    for t, val in zip(ts, vals):
        _assert_values_close(val, _rhs(f1, f2, box, 0.05, t, *tms), rel=1e-13)
        _assert_values_close(val, _direct_theorem_rhs(f1, f2, box, 0.05, t, *tms), rel=1e-12)
    assert vals[1] == AsymptoticValue(0.0, 0.0, 0.0)
    assert vals[2] == vals[4]


def test_theorem_rhs_box_sequence_matches_single_boxes():
    # one pass shares the tilted measures' transforms across boxes; each box's
    # values equal a call with that box alone, for one horizon and a t list
    f1, f2 = Pareto(1.0), Pareto(2.0)
    grid = renewal_function(Exponential(1.0), 2.0, 1e-4)
    tms = tilted_triplet(grid, FrankTri(f1, f2, Exponential(1.0), 1.0))
    boxes = [Box2(20.0, 20.0, 5.0, 5.0), Box2(0.0, 3.0, 0.5, 2.0), Box2(40.0, 10.0, 1.0, 5.0),
             Box2(20.0, 20.0, 5.0, 5.0)]
    ts = [1.23452, 0.0, 0.73215, 2.0]
    per_t = theorem_rhs(f1, f2, boxes, 0.05, ts, *tms)
    assert isinstance(per_t, list) and len(per_t) == len(ts)
    for t, vals in zip(ts, per_t):
        assert isinstance(vals, list) and len(vals) == len(boxes)
        for box, val in zip(boxes, vals):
            _assert_values_close(val, _rhs(f1, f2, box, 0.05, t, *tms), rel=1e-13)
        assert vals[0] == vals[3]
    assert per_t[1] == [AsymptoticValue(0.0, 0.0, 0.0)] * len(boxes)
    assert theorem_rhs(f1, f2, boxes, 0.05, [2.0], *tms) == [per_t[3]]
    with pytest.raises(ValueError):
        theorem_rhs(f1, f2, boxes, 0.05, [2.5], *tms)


def test_theorem_rhs_calls_no_blas(monkeypatch):
    # a threaded BLAS splits long 1-D dots across cores and stalls when one is
    # busy; the reductions are plain sums, so no BLAS entry point may be reached
    def no_blas(*args, **kwargs):
        raise AssertionError("theorem_rhs reached a BLAS reduction")

    f = Pareto(1.0)
    tms = poisson_tilted(t_max=2.0, h=5e-5)  # K = 4e4 cells
    for name in ("dot", "vdot", "inner"):
        monkeypatch.setattr(np, name, no_blas)
    box = Box2(10.0, 10.0, 5.0, 5.0)
    top = _rhs(f, f, box, 0.05, 2.0, *tms)
    vals = [per_t[0] for per_t in theorem_rhs(f, f, [box], 0.05, [0.5, 1.0, 1.5, 2.0], *tms)]
    assert all(a.total < b.total for a, b in zip(vals, vals[1:]))
    assert vals[-1].total == pytest.approx(top.total, rel=1e-13)


def _working_memory(fn) -> int:
    """Peak bytes fn() allocates beyond what it returns, after one warm-up call."""
    fn()
    tracemalloc.start()
    try:
        out = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del out
    return peak - held


def test_theorem_rhs_memory_does_not_grow_with_boxes():
    # boxes are streamed, one box's arrays at a time: 12 boxes need the
    # working memory of 3 within one K-length array (holding every box's
    # operands up front read 14.0 and 32.1 arrays)
    grid = renewal_function(Exponential(1.0), 2.0, 5e-5)  # K = 4e4 cells
    f = Pareto(1.0)
    tms = tilted_triplet(grid, FrankTri(f, f, Exponential(1.0), 1.0))
    k_array = 8 * len(grid.lambda_values)

    def peak(n_boxes):
        boxes = [Box2(10.0 * (i + 1), 10.0 * (i + 1), 5.0, 5.0) for i in range(n_boxes)]
        return _working_memory(lambda: theorem_rhs(f, f, boxes, 0.05, [0.5, 1.0, 1.5, 2.0], *tms))

    three, twelve = peak(3), peak(12)
    assert abs(twelve - three) <= k_array, (three / k_array, twelve / k_array)
