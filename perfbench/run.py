"""renewalrisk benchmark: three CLI workloads, end to end and traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are the configs in perfbench/workloads/; `--seed` goes to the
CLI's `--seed`.  Every CLI run is a fresh process on min(2, nproc)
threads, and every CSV it writes is checked (see README.md).

--trace 0  one warm-up set-up probe, then rounds of two set-up probes
           and one untraced CLI run, repeated while the next round fits
           in S seconds counted from the start; reports the end-to-end
           metrics (medians over the samples).
--trace 1  one untraced run, one run under the span recorder
           (traced_cli.py) and, for the Monte Carlo workloads, one
           single-thread run; reports the per-layer metrics.

The last line of stdout is {"correct", "attempted", "failed", "metrics"};
the line before it is a JSON report with every sample, the environment
and any check failures.  Exits 2 without a result when the program or
the benchmark's inputs are missing, or when no run succeeded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
NPROC = len(os.sched_getaffinity(0))
THREADS = min(2, NPROC)
#: set-up probes before each CLI run, so the probes spread over the run
PROBES_PER_ROUND = 2
#: every child is killed once the whole run has taken this long
START, RUN_BUDGET_S = time.perf_counter(), 170.0
ENV = {**os.environ, "PYTHONPATH": str(SRC)}

#: MC cell check: reference p is widened by Z_REF of its standard errors,
#: then the observed hit count must lie inside the two-sided binomial
#: interval of level 1 - ALPHA; a mean-type estimate must lie within
#: Z_MEAN combined standard errors.
Z_REF, ALPHA, Z_MEAN = 5.0, 1e-6, 6.0
#: quadrature check: well above float reordering (~1e-12), well below the
#: scheme's discretization change between renewal steps 1e-3 and 5e-5 (~1e-3)
QUAD_REL_TOL = 1e-6
QUAD_COLUMNS = ("asymptotic_total", "cross_term", "diagonal_term")
SCAN_HEADER = ["t", "x1", "x2", "d1", "d2", "r", "asymptotic_total", "cross_term",
               "diagonal_term", "empirical", "empirical_se", "ratio"]
LEMMA33_HEADER = ["t", "x1", "x2", "d1", "d2", "n", "lhs", "lhs_se", "lhs_hits",
                  "rhs", "rhs_se", "rhs_hits", "ratio"]
UNRELIABLE_HITS = 30

#: workload -> whether it simulates paths (and so gets a single-thread run)
WORKLOADS = {"compare-frank": True, "asymptotic-fine": False, "lemma33-nested": True}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.import_s": "s", "cli.parse_s": "s",
    "renewal.solve_s": "s", "renewal.tilt_s": "s", "renewal.nodes": "count",
    "asymptotics.rhs_s": "s", "asymptotics.rhs_self_s": "s", "asymptotics.rhs_calls": "count",
    "marginals.local_prob_s": "s", "marginals.quantile_s": "s", "marginals.quantile_draws": "count",
    "copulas.sample_s": "s", "copulas.triples": "count", "copulas.triples_per_s": "1/s",
    "simulate.calls": "count", "simulate.paths": "count", "simulate.resim_factor": "ratio",
    "simulate.draws_per_path": "ratio", "simulate.sim_s": "s", "simulate.self_s": "s",
    "simulate.paths_per_s": "1/s", "simulate.cpu_util": "ratio", "simulate.speedup_2t": "ratio",
    "simulate.rss_delta_mb": "MB", "simulate.min_cell_hits": "count",
    "simulate.unreliable_cells": "count", "trace.overhead": "ratio", "trace.absent": "count",
}


class NoResult(Exception):
    """No result can be reported: the program or an input is missing, or no run succeeded."""


# --- processes ------------------------------------------------------------


def _spawn(argv: list[str], log: Path):
    """Run argv to completion; return (exit code, wall seconds, rusage)."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=WORK, env=ENV, stdin=subprocess.DEVNULL, stdout=fh, stderr=fh)
    timer = threading.Timer(max(START + RUN_BUDGET_S - t0, 0.0), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def setup_probe(name: str) -> float | None:
    """Seconds from process start to `parse_config` returned, or None on failure."""
    log = WORK / f"{name}-probe.log"
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    code, _, _ = _spawn([sys.executable, str(BENCH / "setup_probe.py"), str(config_path(name))], log)
    try:
        return float(log.read_text().split()[-1]) - start if code == 0 else None
    except (ValueError, IndexError):
        return None


class Run:
    """One CLI process: its measurements, its CSV and what the checks found."""

    def __init__(self, name: str, seed: int, threads: int, tag: str, traced: bool = False):
        self.csv_path = WORK / f"{name}-{tag}.csv"
        self.spans_path = WORK / f"{name}-{tag}.spans.json"
        for stale in (self.csv_path, self.spans_path):
            stale.unlink(missing_ok=True)
        cli = ["--config", str(config_path(name)), "--seed", str(seed),
               "--threads", str(threads), "--out", str(self.csv_path)]
        head = ([sys.executable, str(BENCH / "traced_cli.py"), str(self.spans_path)] if traced
                else [sys.executable, "-m", "renewalrisk.cli"])
        self.code, self.wall_s, usage = _spawn(head + cli, WORK / f"{name}-{tag}.log")
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.errors = [] if self.code == 0 else [f"{tag}: exit code {self.code}"]
        self.csv = self.csv_path.read_bytes() if self.code == 0 and self.csv_path.exists() else b""
        self.stats = {}
        if self.code == 0:
            try:
                errors, self.stats = CHECKS[name](self.csv.decode(), load_config(name), reference()[name])
            except (ValueError, KeyError, IndexError, UnicodeDecodeError) as exc:
                errors = [f"malformed CSV: {type(exc).__name__}: {exc}"]
            self.errors += [f"{tag}: {e}" for e in errors]

    @property
    def ok(self) -> bool:
        return not self.errors


# --- inputs ---------------------------------------------------------------


def config_path(name: str) -> Path:
    return BENCH / "workloads" / f"{name}.json"


def load_config(name: str) -> dict:
    return json.loads(config_path(name).read_text())


@functools.cache
def reference() -> dict:
    return json.loads((BENCH / "reference.json").read_text())


def require_inputs(name: str) -> None:
    for path in (SRC / "renewalrisk" / "cli.py", config_path(name), BENCH / "reference.json"):
        if not path.is_file():
            raise NoResult(f"{path.relative_to(ROOT)} not found")


# --- correctness checks ---------------------------------------------------


def _rows(text: str, header: list[str], cfg: dict, t_outer: bool) -> list[dict]:
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames != header:
        raise ValueError(f"header {reader.fieldnames} != {header}")
    rows = list(reader)
    for i, row in enumerate(rows):
        if None in row or None in row.values():
            raise ValueError(f"data row {i + 1} does not have {len(header)} fields")
    grids = cfg["grids"]
    d = float(grids["d"])
    cells = ([(t, x) for t in grids["t_grid"] for x in grids["x_grid"]] if t_outer
             else [(t, x) for x in grids["x_grid"] for t in grids["t_grid"]])
    if len(rows) != len(cells):
        raise ValueError(f"{len(rows)} rows, expected {len(cells)}")
    for row, (t, x) in zip(rows, cells):
        got = tuple(float(row[k]) for k in ("t", "x1", "x2", "d1", "d2"))
        if got != (float(t), float(x), float(x), d, d):
            raise ValueError(f"row for cell {got} where (t={t}, x={x}, d={d}) was expected")
    return rows


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _binomial_bounds(n: int, p: float, se: float) -> tuple[int, int]:
    from scipy.stats import binom

    p_lo, p_hi = max(p - Z_REF * se, 0.0), min(p + Z_REF * se, 1.0)
    return int(binom.ppf(ALPHA / 2, n, p_lo)), int(binom.isf(ALPHA / 2, n, p_hi))


def _check_hits(label: str, hits: int, n: int, p_ref: float, se_ref: float, errors: list) -> None:
    lo, hi = _binomial_bounds(n, p_ref, se_ref)
    if not lo <= hits <= hi:
        errors.append(f"{label}: {hits} hits in {n} paths outside [{lo}, {hi}] (reference p={p_ref:.4g})")


def _check_quadrature(rows: list[dict], ref_rows: list[dict], errors: list) -> None:
    for row, ref in zip(rows, ref_rows, strict=True):
        for col in QUAD_COLUMNS:
            if not _close(float(row[col]), ref[col], QUAD_REL_TOL):
                errors.append(f"t={row['t']} x={row['x1']} {col}={row[col]} vs reference {ref[col]!r}")


def _ratio_ok(ratio: str, num: float, den: float) -> bool:
    if den == 0:
        return math.isnan(float(ratio))
    return _close(float(ratio), num / den, 1e-12)


def check_compare(text: str, cfg: dict, ref: dict):
    rows = _rows(text, SCAN_HEADER, cfg, t_outer=False)
    n = int(cfg["n_paths"])
    errors = []
    _check_quadrature(rows, ref["quadrature"], errors)
    hits_all = []
    for row, cell in zip(rows, ref["cells"], strict=True):
        label = f"t={row['t']} x={row['x1']}"
        p = float(row["empirical"])
        hits = round(p * n)
        hits_all.append(hits)
        if hits / n != p:
            errors.append(f"{label}: empirical {p!r} is not a hit count over {n} paths")
        if not _close(float(row["empirical_se"]), math.sqrt(p * (1 - p) / n), 1e-9):
            errors.append(f"{label}: empirical_se {row['empirical_se']} inconsistent with p")
        _check_hits(label, hits, n, cell["p"], cell["se"], errors)
        if not _ratio_ok(row["ratio"], p, float(row["asymptotic_total"])):
            errors.append(f"{label}: ratio {row['ratio']} != empirical / asymptotic_total")
    return errors, {"min_cell_hits": min(hits_all),
                    "unreliable_cells": sum(h < UNRELIABLE_HITS for h in hits_all)}


def check_asymptotic(text: str, cfg: dict, ref: dict):
    rows = _rows(text, SCAN_HEADER, cfg, t_outer=False)
    errors = []
    _check_quadrature(rows, ref["quadrature"], errors)
    for row in rows:
        if row["empirical"] or row["empirical_se"] or row["ratio"]:
            errors.append(f"t={row['t']} x={row['x1']}: Monte Carlo columns filled in an asymptotic run")
    return errors, {}


def check_lemma33(text: str, cfg: dict, ref: dict):
    rows = _rows(text, LEMMA33_HEADER, cfg, t_outer=True)
    n = int(cfg["n_paths"])
    n_ref = int(ref["n_paths"])
    errors, hits_all, unreliable = [], [], 0
    for row, cell in zip(rows, ref["cells"], strict=True):
        label = f"t={row['t']} x={row['x1']}"
        if int(row["n"]) != int(cfg["n"]):
            errors.append(f"{label}: n={row['n']}, expected {cfg['n']}")
        lhs, lhs_hits, rhs = float(row["lhs"]), int(row["lhs_hits"]), float(row["rhs"])
        if lhs_hits / n != lhs:
            errors.append(f"{label}: lhs {lhs!r} != lhs_hits / n_paths")
        _check_hits(f"{label} lhs", lhs_hits, n, cell["lhs"], cell["lhs_se"], errors)
        # rhs is a mean of per-path pair counts: scale the reference's
        # per-path variance to this run's path count
        tol = Z_MEAN * math.sqrt(cell["rhs_se"] ** 2 * n_ref / n + cell["rhs_se"] ** 2)
        if abs(rhs - cell["rhs"]) > tol:
            errors.append(f"{label}: rhs {rhs!r} differs from reference {cell['rhs']!r} by more than {tol:.3g}")
        if not _ratio_ok(row["ratio"], lhs, rhs):
            errors.append(f"{label}: ratio {row['ratio']} != lhs / rhs")
        rhs_hits = int(row["rhs_hits"])
        hits_all += [lhs_hits, rhs_hits]
        unreliable += min(lhs_hits, rhs_hits) < UNRELIABLE_HITS
    return errors, {"min_cell_hits": min(hits_all), "unreliable_cells": unreliable}


CHECKS = {"compare-frank": check_compare, "asymptotic-fine": check_asymptotic,
          "lemma33-nested": check_lemma33}


# --- environment ----------------------------------------------------------


def _blas() -> dict:
    import ctypes
    import glob

    import numpy as np

    info = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    deps = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info.update(name=deps.get("name"), version=deps.get("version"), threads=None)
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        try:
            info["threads"] = int(ctypes.CDLL(lib).scipy_openblas_get_num_threads64_())
        except (OSError, AttributeError):
            pass
    return info


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": NPROC, "threads": THREADS, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__, "blas": _blas(),
        "git_commit": _git_commit(), "seed": seed,
        "config_sha256": {w: hashlib.sha256(config_path(w).read_bytes()).hexdigest() for w in WORKLOADS},
        "reference_sha256": hashlib.sha256((BENCH / "reference.json").read_bytes()).hexdigest(),
    }


# --- modes ----------------------------------------------------------------


def summary(values: list[float]) -> dict:
    """Sample count, median and maximum (the highest percentile a few samples support)."""
    return {"n": len(values), "median": statistics.median(values), "max": max(values)}


def end_to_end(name: str, seed: int, seconds: float):
    if setup_probe(name) is None:  # warm-up: fills bytecode caches, proves the program imports
        raise NoResult(f"set-up probe failed; see {WORK / (name + '-probe.log')}")
    setup, runs = [], []
    rounds_start = time.perf_counter()
    while True:
        setup += [setup_probe(name) for _ in range(PROBES_PER_ROUND)]
        runs.append(Run(name, seed, THREADS, f"e2e{len(runs)}"))
        now = time.perf_counter()
        next_end = now + (now - rounds_start) / len(runs)
        if next_end > START + seconds or now > START + RUN_BUDGET_S:
            break
    good = [r for r in runs if r.ok]
    for r in good[1:]:
        if r.csv != good[0].csv:
            r.errors.append(f"{r.csv_path.name}: CSV differs from the first run of the same seed")
    good = [r for r in runs if r.ok]
    failed_probes = sum(s is None for s in setup)
    setup = [s for s in setup if s is not None]
    if not good or not setup:
        raise NoResult(f"no successful run of {len(runs)}; first errors: {runs[0].errors}")
    samples = {"wall_s": [r.wall_s for r in good], "setup_s": setup,
               "peak_rss_mb": [r.rss_mb for r in good]}
    metrics = {k: statistics.median(v) for k, v in samples.items()}
    cfg = load_config(name)
    report = {
        "samples": samples,
        "summary": {k: summary(v) for k, v in samples.items()},
        "cpu_s": [r.cpu_s for r in good],
        "failed_setup_probes": failed_probes,
        "fail_rate": (len(runs) - len(good)) / len(runs),
    }
    if WORKLOADS[name]:
        cells = len(cfg["grids"]["t_grid"]) * len(cfg["grids"]["x_grid"])
        report["path_cells_per_s"] = summary([cfg["n_paths"] * cells / r.wall_s for r in good])
    return runs, metrics, report


def per_layer(name: str, seed: int):
    import tracer

    plain = Run(name, seed, THREADS, "plain")
    traced = Run(name, seed, THREADS, "traced", traced=True)
    single = Run(name, seed, 1, "single") if WORKLOADS[name] else None
    runs = [r for r in (plain, traced, single) if r is not None]
    for r in runs[1:]:
        if r.code == 0 and r.csv != plain.csv:
            r.errors.append(f"{r.csv_path.name}: CSV differs from the untraced {THREADS}-thread run")
    if plain.code != 0 or traced.code != 0 or not traced.spans_path.exists():
        raise NoResult("traced pass failed: " + "; ".join(e for r in runs for e in r.errors))
    doc = json.loads(traced.spans_path.read_text())
    agg = tracer.summarize(doc["spans"])

    def get(kind: str, field: str) -> float:
        return agg.get(kind, {}).get(field, 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    cfg = load_config(name)
    paths, triples = get("simulate.top", "count"), get("copulas.sample", "count")
    sim_s = get("simulate.top", "wall_s")
    rss_before = doc["rss_before_sim_kb"]
    metrics = {
        "cli.import_s": doc["import_s"],
        "cli.parse_s": get("cli.parse", "wall_s"),
        "renewal.solve_s": get("renewal.solve", "wall_s"),
        "renewal.tilt_s": get("renewal.tilt", "wall_s"),
        "renewal.nodes": get("renewal.solve", "count"),
        "asymptotics.rhs_s": get("asymptotics.rhs", "wall_s"),
        "asymptotics.rhs_self_s": get("asymptotics.rhs", "self_s"),
        "asymptotics.rhs_calls": get("asymptotics.rhs", "calls"),
        "marginals.local_prob_s": get("marginals.local_prob", "wall_s"),
        "marginals.quantile_s": get("marginals.quantile", "wall_s"),
        "marginals.quantile_draws": get("marginals.quantile", "count"),
        "copulas.sample_s": get("copulas.sample", "wall_s"),
        "copulas.triples": triples,
        "copulas.triples_per_s": ratio(triples, get("copulas.sample", "wall_s")),
        "simulate.calls": get("simulate.top", "calls"),
        "simulate.paths": paths,
        "simulate.resim_factor": ratio(paths, cfg.get("n_paths", 0)),
        "simulate.draws_per_path": ratio(triples, paths),
        "simulate.sim_s": sim_s,
        "simulate.self_s": get("simulate.batch", "self_s"),
        "simulate.paths_per_s": ratio(paths, sim_s),
        "simulate.cpu_util": ratio(get("simulate.batch", "cpu_s"), sim_s * THREADS),
        "simulate.speedup_2t": ratio(single.wall_s, plain.wall_s) if single is not None and single.ok else 0.0,
        "simulate.rss_delta_mb": (doc["rss_end_kb"] - rss_before) / 1024.0 if rss_before else 0.0,
        "simulate.min_cell_hits": plain.stats.get("min_cell_hits", 0),
        "simulate.unreliable_cells": plain.stats.get("unreliable_cells", 0),
        "trace.overhead": traced.wall_s / plain.wall_s,
        "trace.absent": len(doc["absent"]),
    }
    report = {
        "absent": doc["absent"],
        "zero": sorted(k for k, v in metrics.items() if v == 0),
        "spans": len(doc["spans"]),
        "kinds": agg,
        "wall_s": {r.csv_path.stem: r.wall_s for r in runs},
        "cpu_s": {r.csv_path.stem: r.cpu_s for r in runs},
        "peak_rss_mb": {r.csv_path.stem: r.rss_mb for r in runs},
        "csv_identical": all(r.csv == plain.csv for r in runs),
    }
    return runs, metrics, report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must lie in [0, 2**64)")
    try:
        require_inputs(args.workload)
        WORK.mkdir(exist_ok=True)
        env = environment(args.seed)
        if args.trace:
            runs, values, report = per_layer(args.workload, args.seed)
            units = PER_LAYER
        else:
            runs, values, report = end_to_end(args.workload, args.seed, args.seconds)
            units = END_TO_END
    except NoResult as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed = sum(not r.ok for r in runs)
    report = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "environment": env, **report,
              "errors": [e for r in runs for e in r.errors]}
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
