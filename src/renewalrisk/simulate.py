"""Exact Monte Carlo of the bidimensional renewal risk model.

Paths draw each arrival's theta first and its claim pair (X1, X2) given
theta only if the arrival lands inside the horizon, until the renewal
clock passes it, accumulating the discounted claim pair; estimators are
plain hit counters with binomial confidence intervals (Clopper-Pearson
at low counts).

Every estimator runs on one streaming kernel, `_stream_block`.  It keeps
the state of the paths still alive as the rows of one matrix, compacted
once per arrival round.  Each round an estimator's event, a pure
function of the alive paths' state, names the paths it scores and gives
each a few weights (a box hit, a pair count); the kernel adds them at
the times of the run's grid that the path's interval [t_from, t_to)
between two arrivals holds, so one pass over the paths fills a whole
(t, box) grid.  The paths of one round have all made that round's
number of arrivals, so N(t) is one integer per event call rather than a
per-path array.  The cells of one run share common random numbers (their
estimates are correlated, never biased).

Reproducibility: the unit of work is a block of BLOCK paths run to the
horizon.  Block k of a run draws from its own PCG64DXSM stream, seeded
by ``SeedSequence(seed, spawn_key=(k, stream id))``; each round it draws
theta for every alive path, then the claims of the arrivals inside the
horizon.  So its draws depend on the seed, k and its own path count
alone (only the last block of a run may hold fewer than BLOCK paths).
Block results land in preallocated slots and merge by summation, so the
result is bit-identical however many worker threads run the blocks.
``ModelConfig.batch_size`` is accepted and validated but affects neither
the draws nor the scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import Box2, theorem_rhs
from .copulas import DependenceSpec
from .marginals import Deterministic, Marginal

__all__ = [
    "Linear",
    "CompoundPoisson",
    "ModelConfig",
    "Estimate",
    "simulate_discounted_claims",
    "simulate_grid",
    "simulate_net_loss",
    "lemma33_check",
    "uniformity_scan",
    "SCAN_COLUMNS",
]

#: stream ids separating the independent substreams of one block
_CLAIM_STREAM, _PREMIUM_STREAM = 0, 1

#: hard cap on arrivals per path within the horizon; exceeding it means
#: G puts mass absurdly close to zero for the requested horizon
MAX_ARRIVALS = 1_000_000

#: paths per block, the unit of Monte Carlo work and of its random streams
BLOCK = 1 << 16


@dataclass(frozen=True)
class Linear:
    """Deterministic premium income C(t) = rate * t."""

    rate: float

    def __post_init__(self):
        if self.rate < 0:
            raise ValueError("premium rate must be >= 0")

    def discounted(self, rng, n: int, r: float, t: float) -> float:
        """int_0^t e^{-ry} C(dy), a closed form shared by all n paths; draws nothing from rng."""
        if r == 0:
            return self.rate * t
        return self.rate * (-math.expm1(-r * t)) / r


@dataclass(frozen=True)
class CompoundPoisson:
    """Premium income as a compound Poisson process of positive jumps."""

    rate: float
    jump_dist: Marginal

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError("jump arrival rate must be > 0")

    def discounted(self, rng, n: int, r: float, t: float) -> np.ndarray:
        """Per-path int_0^t e^{-ry} C(dy) by simulating the jumps."""
        counts = rng.poisson(self.rate * t, size=n)
        total = int(counts.sum())
        times = rng.random(total) * t
        jumps = self.jump_dist.quantile(rng.random(total))
        vals = jumps * np.exp(-r * times)
        return np.bincount(np.repeat(np.arange(n), counts), weights=vals, minlength=n)


@dataclass(frozen=True)
class ModelConfig:
    """Full model: dependence (with marginals), discounting, premiums."""

    dependence: DependenceSpec
    t_max: float
    r: float = 0.0
    premiums: tuple = (Linear(0.0), Linear(0.0))
    seed: int = 0
    #: accepted for existing configs; draws and scheduling follow BLOCK
    batch_size: int = 2_000_000

    def __post_init__(self):
        if self.t_max <= 0:
            raise ValueError("horizon t_max must be > 0")
        if isinstance(self.g_dist, Deterministic) and self.g_dist.value == 0:
            raise ValueError("inter-arrival times of 0 put infinitely many arrivals at time 0")
        if self.r < 0:
            raise ValueError("force of interest r must be >= 0")
        if len(self.premiums) != 2:
            raise ValueError("exactly one premium process per claim class")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")

    @property
    def f1(self) -> Marginal:
        return self.dependence.f1

    @property
    def f2(self) -> Marginal:
        return self.dependence.f2

    @property
    def g_dist(self) -> Marginal:
        return self.dependence.g_dist


@dataclass(frozen=True)
class Estimate:
    value: float
    std_error: float
    ci95: tuple[float, float]
    hits: int
    n: int
    unreliable: bool

    @classmethod
    def from_hits(cls, hits: int, n: int) -> Estimate:
        """Plain MC estimate of a probability from `hits` successes in `n` paths."""
        p = hits / n
        se = math.sqrt(max(p * (1.0 - p), 0.0) / n)
        if hits < 100:
            # exact binomial interval; the normal one is useless down here
            lo, hi = _clopper_pearson(int(hits), int(n))
        else:
            lo, hi = p - 1.96 * se, p + 1.96 * se
        return cls(value=p, std_error=se, ci95=(lo, hi), hits=int(hits), n=int(n), unreliable=hits < 30)


def _binom_cdf_root(k: int, n: int, target: float) -> float:
    """The p in (0, 1) with P(Bin(n, p) <= k) = target, for 0 <= k < n.

    The CDF falls strictly in p, so p is bisected until the bracket
    closes to adjacent doubles.  Its k+1 terms come from the ratio
    recurrence, starting at P(Bin(n, p) = 0) = exp(n log1p(-p)).
    """
    a, b = 0.0, 1.0
    while True:
        p = 0.5 * (a + b)
        if not a < p < b:
            return p
        term = math.exp(n * math.log1p(-p))
        odds = p / (1.0 - p)
        cdf = term
        for j in range(k):
            term *= (n - j) / (j + 1) * odds
            cdf += term
        if cdf > target:
            a = p
        else:
            b = p


def _clopper_pearson(k: int, n: int) -> tuple[float, float]:
    """Exact 95% interval for a binomial p from k successes in n trials.

    lo solves P(Bin(n, lo) >= k) = 0.025 and hi solves
    P(Bin(n, hi) <= k) = 0.025 (the beta quantiles, by the binomial-beta
    identity).  For 2k > n, hi is taken from the mirrored count,
    1 - lo(n - k, n), which keeps the sum short and away from p -> 1.
    """
    lo = 0.0 if k == 0 else _binom_cdf_root(k - 1, n, 0.975)
    if k == n:
        hi = 1.0
    elif 2 * k > n:
        hi = 1.0 - _binom_cdf_root(n - k - 1, n, 0.975)
    else:
        hi = _binom_cdf_root(k, n, 0.025)
    return lo, hi


def _block_rng(config: ModelConfig, block: int, stream: int):
    seq = np.random.SeedSequence(int(config.seed), spawn_key=(block, stream))
    return np.random.Generator(np.random.PCG64DXSM(seq))


def _run_batches(worker, n_paths: int, threads: int) -> list:
    """``worker(block, block_n)`` for each block of n_paths paths, in block order.

    Every block holds BLOCK paths but the last.  The callers merge the
    results by a plain sum, so thread scheduling cannot affect the total.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    # imported here, so the quadrature-only experiments never load it (or its logging)
    from concurrent.futures import ThreadPoolExecutor

    sizes = [min(BLOCK, n_paths - start) for start in range(0, n_paths, BLOCK)]
    with ThreadPoolExecutor(max_workers=max(1, threads)) as pool:
        return list(pool.map(worker, range(len(sizes)), sizes))


def _time_grid(config: ModelConfig, t):
    """The sorted distinct horizons of t (a scalar or a sequence), and each given horizon's index there."""
    grid, index = np.unique(np.atleast_1d(np.asarray(t, dtype=float)), return_inverse=True)
    if not (grid.size and 0 < grid[0] and grid[-1] <= config.t_max + 1e-12):
        raise ValueError(f"horizons must lie in (0, t_max={config.t_max}]")
    return grid, index


def _stream_block(config: ModelConfig, block: int, n: int, grid, k: int, event,
                  claims: int = 0, carry: dict | None = None) -> np.ndarray:
    """Run the n paths of one block to grid[-1]; the event's weight sums per grid time, shape (len(grid), k).

    Each round draws one theta per alive path and moves its clock from
    its last arrival ``t_from`` to its next one ``t_to``; an arrival at
    time s counts at every t >= s, so a path holds one state at every t
    in [t_from, t_to).  Before the claims of ``t_to`` are added,
    ``event(state, count)`` sees every alive path: ``state`` maps "d1",
    "d2" (discounted claim sums) to arrays over the alive paths, plus
    "v1" and "v2" (the first ``claims`` discounted claims, zero-padded,
    shape (claims, paths)) if ``claims``, and the entries of ``carry``
    (per-path arrays in path order, or scalars); ``count`` is the round
    number, N(t) on [t_from, t_to) of every path.  The event returns
    None or ``(rows, weights)``: indices of the paths it scores and k
    weight arrays over them.  A row's weights count at the grid times in
    its [t_from, t_to) through a difference array over the grid that one
    cumsum turns into sums (floats, exact for integer weights).

    The per-path state is one float matrix, a row per quantity.  After
    the event, all rows and the sampler's per-arrival state are compacted
    together by one index of the paths whose ``t_to`` is <= grid[-1], and
    only those arrivals draw their claims (X1, X2), which are discounted
    and added in place.  Paths stay in order, so the draws depend on n
    and the block's claim stream alone.  ``event`` must not modify or
    keep the arrays it is given.  Given ``claims``, the event scores no
    round after round ``claims``, so the block returns once that round
    has been scored and draws no further theta or claims.
    """
    rng = _block_rng(config, block, _CLAIM_STREAM)
    dep = config.dependence
    m, t_top = len(grid), grid[-1]
    diff = np.zeros((k, m + 1))
    carry = carry or {}
    v0 = 3 + len(carry)  # rows: clock, d1, d2, carry entries, v1 block, v2 block
    rows = np.zeros((v0 + 2 * claims, n))
    for i, value in enumerate(carry.values(), 3):
        rows[i] = value
    for round_no in range(MAX_ARRIVALS + 1):
        live = rows[:, :n]
        clock = live[0]
        state = {"d1": live[1], "d2": live[2], **{key: live[i] for i, key in enumerate(carry, 3)}}
        if claims:
            state["v1"], state["v2"] = live[v0:v0 + claims], live[v0 + claims:]
        t_to, arrivals = dep.sample_theta(rng, n)
        t_to += clock
        scored = event(state, round_no)
        if scored is not None:
            hit, weights = scored
            first = np.searchsorted(grid, clock[hit], side="left")
            stop = np.searchsorted(grid, t_to[hit], side="left")
            for j, w in enumerate(weights):
                diff[j] += np.bincount(first, weights=w, minlength=m + 1)
                diff[j] -= np.bincount(stop, weights=w, minlength=m + 1)
        keep = np.flatnonzero(t_to <= t_top)
        if keep.size == 0 or (claims and round_no == claims):
            return np.cumsum(diff[:, :m], axis=1).T
        if keep.size < n:
            n = keep.size
            t_to, arrivals = t_to[keep], arrivals[..., keep]
            for row in live[1:]:
                row[:n] = row[keep]
            live = rows[:, :n]
        del keep
        x1, x2 = dep.sample_claims(rng, arrivals)
        del arrivals
        if config.r > 0:
            disc = np.exp(-config.r * t_to)
            x1 *= disc
            x2 *= disc
            del disc
        live[0] = t_to
        live[1] += x1
        live[2] += x2
        if round_no < claims:
            live[v0 + round_no] = x1
            live[v0 + claims + round_no] = x2
        del x1, x2, t_to  # not held through the next round's draw
    raise RuntimeError(f"a path exceeded {MAX_ARRIVALS} arrivals; check G")


def _in_box(d1, d2, box: Box2):
    return (
        (d1 > box.x1) & (d1 <= box.x1 + box.d1) & (d2 > box.x2) & (d2 <= box.x2 + box.d2)
    )


def simulate_grid(config: ModelConfig, t_grid, boxes, n_paths: int, threads: int = 1):
    """Hit counts for every (t, box) cell from one shared path budget.

    Returns an integer array of shape (len(t_grid), len(boxes)), rows in
    the order of ``t_grid``; each cell's estimate uses all n_paths paths
    (common random numbers across cells, which only correlates the
    estimates, never biases them).  Each block is one pass of its paths.
    Each round, the paths past the lowest corner of every box are the
    candidates (a few percent), and each is weighted by its hit of each
    box.
    """
    grid, index = _time_grid(config, t_grid)
    boxes = list(boxes)
    lo1 = min((box.x1 for box in boxes), default=math.inf)
    lo2 = min((box.x2 for box in boxes), default=math.inf)

    def event(state, count):
        cand = np.flatnonzero((state["d1"] > lo1) & (state["d2"] > lo2))
        if cand.size == 0:
            return None
        d1, d2 = state["d1"][cand], state["d2"][cand]
        return cand, [_in_box(d1, d2, box) for box in boxes]

    def worker(block: int, n: int):
        return _stream_block(config, block, n, grid, len(boxes), event)

    hits = np.sum(_run_batches(worker, n_paths, threads), axis=0).astype(np.int64)
    return hits[index]


def simulate_discounted_claims(
    config: ModelConfig, t: float, box: Box2, n_paths: int, threads: int = 1
) -> Estimate:
    """P(discounted claim pair at t lands in the box), plain MC."""
    hits = simulate_grid(config, [t], [box], n_paths, threads=threads)
    return Estimate.from_hits(int(hits[0, 0]), n_paths)


#: the columns of the (t, box) table, in CSV order
SCAN_COLUMNS = ("t", "x1", "x2", "d1", "d2", "r", "asymptotic_total", "cross_term",
                "diagonal_term", "empirical", "empirical_se", "ratio")


def uniformity_scan(config, t_grid, boxes, tilted_triplet=None, n_paths: int | None = None, threads: int = 1):
    """The (t, box) table: one row per cell in ``SCAN_COLUMNS`` order, boxes outermost.

    Given ``n_paths``, one simulate_grid pass fills the empirical columns;
    given the tilted triplet, one theorem_rhs pass over all boxes fills
    the asymptotic ones; ratio (empirical over asymptotic total) needs both.
    Columns whose input is missing stay None.  With boxes the squares
    (x, x+d]^2 along growing levels x, the max-over-t deviation of the
    ratio from 1 should shrink along x.
    """
    hits = None if n_paths is None else simulate_grid(config, t_grid, boxes, n_paths, threads=threads)
    asyms = [[None] * len(boxes) for _ in t_grid]
    if tilted_triplet is not None:
        asyms = theorem_rhs(config.f1, config.f2, boxes, config.r, t_grid, *tilted_triplet)
    rows = []
    for j, box in enumerate(boxes):
        for i, t in enumerate(t_grid):
            asym = asyms[i][j]
            est = ratio = None
            if hits is not None:
                est = Estimate.from_hits(int(hits[i, j]), n_paths)
            if asym is not None and est is not None:
                ratio = est.value / asym.total if asym.total > 0 else math.nan
            rows.append([
                t, box.x1, box.x2, box.d1, box.d2, config.r,
                *((asym.total, asym.cross_term, asym.diagonal_term) if asym is not None else (None,) * 3),
                *((est.value, est.std_error) if est is not None else (None,) * 2),
                ratio,
            ])
    return rows


def simulate_net_loss(
    config: ModelConfig,
    x_levels: tuple[float, float],
    t: float,
    widths: tuple[float, float],
    n_paths: int,
    threads: int = 1,
) -> Estimate:
    """P(D_i(t) - C~_i(t) in (x_i, x_i + d_i e^{-rt}] for i = 1, 2): net loss past level x_i.

    D_i is the discounted claim sum, C~_i the discounted premium income.
    Shares the claim stream with simulate_discounted_claims (the premium
    stream is independent), so with deterministic premiums the event
    coincides path-by-path with the premium-shifted box event.
    """
    grid, _ = _time_grid(config, t)
    scale = math.exp(-config.r * t)
    target = Box2(x_levels[0], x_levels[1], widths[0] * scale, widths[1] * scale)

    def event(state, count):
        hit = np.flatnonzero(_in_box(state["d1"] - state["s1"], state["d2"] - state["s2"], target))
        return hit, np.ones((1, hit.size))

    def worker(block: int, n: int):
        s1, s2 = _premium_values(config, block, n, t)
        return _stream_block(config, block, n, grid, 1, event, carry={"s1": s1, "s2": s2})

    return Estimate.from_hits(int(np.sum(_run_batches(worker, n_paths, threads))), n_paths)


def _premium_values(config: ModelConfig, block: int, n: int, t: float):
    """Each premium's discounted income at t over the block's n paths, from the block's premium stream."""
    rng = _block_rng(config, block, _PREMIUM_STREAM)
    return [p.discounted(rng, n, config.r, t) for p in config.premiums]


def lemma33_check(
    config: ModelConfig, n: int, t, box, n_paths: int, threads: int = 1
):
    """Compare the n-arrival box event against the sum-of-pairs expectation.

    lhs estimates P(sum of the first n discounted claim pairs in the box,
    N(t) = n); rhs estimates E[sum over claim indices k, j <= n of
    1{claim-1 value k in window 1} 1{claim-2 value j in window 2};
    N(t) = n].  The single-big-jump principle makes the ratio tend to 1
    as the box levels grow.

    Returns (lhs, rhs, ratio) for one Box2.  ``box`` may also be a
    sequence of boxes, scored on one shared pass of the paths; the
    result is then a list of such triples, one per box, each equal to
    what a call with that box alone returns.  ``t`` may also be a
    sequence of horizons, in any order and with repeats; the result is
    then a list of such results, one per horizon, from one pass of the
    paths to the largest horizon.
    """
    if n not in (1, 2, 3):
        raise ValueError("n must be 1, 2 or 3")
    grid, index = _time_grid(config, t)
    boxes = [box] if isinstance(box, Box2) else list(box)

    def event(state, count):
        if count != n:
            return None
        s1, s2, v1, v2 = state["d1"], state["d2"], state["v1"], state["v2"]
        # per box: lhs hit, rhs pair count, rhs positive, rhs pair count squared
        weights = np.empty((len(boxes), 4, s1.size), dtype=np.int64)
        for b, w in zip(boxes, weights):
            in1 = ((v1 > b.x1) & (v1 <= b.x1 + b.d1)).sum(axis=0)
            in2 = ((v2 > b.x2) & (v2 <= b.x2 + b.d2)).sum(axis=0)
            w[1] = pair_count = in1 * in2
            w[0], w[2], w[3] = _in_box(s1, s2, b), pair_count > 0, pair_count * pair_count
        weights = weights.reshape(4 * len(boxes), s1.size)
        hit = np.flatnonzero(weights.any(axis=0))
        return hit, weights[:, hit]

    def worker(block: int, n_block: int):
        return _stream_block(config, block, n_block, grid, 4 * len(boxes), event, claims=n)

    tallies = np.sum(_run_batches(worker, n_paths, threads), axis=0).reshape(len(grid), len(boxes), 4)
    results = [[_lemma33_result(row, n_paths) for row in tallies[i]] for i in index]
    results = [per_box[0] for per_box in results] if isinstance(box, Box2) else results
    return results[0] if np.ndim(t) == 0 else results


def _lemma33_result(tally, n_paths: int):
    lhs_hits, rhs_sum, rhs_pos, rhs_sq = (int(v) for v in tally)
    lhs = Estimate.from_hits(lhs_hits, n_paths)
    mean = rhs_sum / n_paths
    se = math.sqrt(max(rhs_sq / n_paths - mean**2, 0.0) / n_paths)
    rhs = Estimate(value=mean, std_error=se, ci95=(mean - 1.96 * se, mean + 1.96 * se),
                   hits=rhs_pos, n=n_paths, unreliable=rhs_pos < 30)
    ratio = lhs.value / rhs.value if rhs.value > 0 else math.nan
    return lhs, rhs, ratio
