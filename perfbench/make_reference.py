"""Regenerate perfbench/reference.json, the values the benchmark checks outputs against.

Usage (from the repository root, about ten minutes on two cores):

    PYTHONPATH=src python3 perfbench/make_reference.py

Monte Carlo references come from the package's own simulator with a path
budget far larger than the workloads use and a seed no workload uses, so
their standard errors are small next to a workload's.  Quadrature
references are the CLI's `asymptotic` output for each workload config;
the benchmark compares against them with a relative tolerance.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import os
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from renewalrisk.asymptotics import Box2
from renewalrisk.cli import main as cli_main
from renewalrisk.cli import parse_config
from renewalrisk.simulate import lemma33_check, simulate_grid

HERE = Path(__file__).resolve().parent
REF_SEED = 9_000_000_001
GRID_PATHS = 200_000_000
LEMMA33_PATHS = 20_000_000
#: as in run.py; the CLI's output does not depend on the thread count
THREADS = min(2, len(os.sched_getaffinity(0)))


def _config(name: str) -> dict:
    return parse_config(json.loads((HERE / "workloads" / f"{name}.json").read_text()))


def _quadrature(name: str) -> list[dict]:
    """The CLI's asymptotic rows for a workload config, keyed by (t, x)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(["asymptotic", "--config", str(HERE / "workloads" / f"{name}.json"), "--out", "-"])
    if code != 0:
        sys.exit(f"asymptotic run of {name} failed with exit code {code}")
    return [
        {"t": float(row["t"]), "x": float(row["x1"]),
         **{k: float(row[k]) for k in ("asymptotic_total", "cross_term", "diagonal_term")}}
        for row in csv.DictReader(io.StringIO(buf.getvalue()))
    ]


def _grid_cells(name: str) -> list[dict]:
    cfg = _config(name)
    model = dataclasses.replace(cfg["model"], seed=REF_SEED, batch_size=1_000_000)
    t_grid, x_grid, d = cfg["grids"]["t_grid"], cfg["grids"]["x_grid"], cfg["grids"]["d"]
    hits = simulate_grid(model, t_grid, [Box2(x, x, d, d) for x in x_grid], GRID_PATHS, threads=THREADS)
    cells = []
    for j, x in enumerate(x_grid):
        for i, t in enumerate(sorted(t_grid)):
            p = int(hits[i, j]) / GRID_PATHS
            cells.append({"t": t, "x": float(x), "p": p, "se": math.sqrt(p * (1 - p) / GRID_PATHS),
                          "hits": int(hits[i, j])})
    return cells


def _lemma33_cells(name: str) -> list[dict]:
    cfg = _config(name)
    model = dataclasses.replace(cfg["model"], seed=REF_SEED, batch_size=500_000)
    d = cfg["grids"]["d"]
    cells = []
    for t in cfg["grids"]["t_grid"]:
        for x in cfg["grids"]["x_grid"]:
            lhs, rhs, _ = lemma33_check(model, cfg["n"], t, Box2(x, x, d, d), LEMMA33_PATHS, threads=THREADS)
            cells.append({"t": t, "x": float(x),
                          "lhs": lhs.value, "lhs_se": lhs.std_error, "lhs_hits": lhs.hits,
                          "rhs": rhs.value, "rhs_se": rhs.std_error, "rhs_hits": rhs.hits})
    return cells


def main() -> None:
    ref = {
        "seed": REF_SEED,
        "numpy": np.__version__,
        "compare-frank": {"n_paths": GRID_PATHS, "cells": _grid_cells("compare-frank"),
                          "quadrature": _quadrature("compare-frank")},
        "asymptotic-fine": {"quadrature": _quadrature("asymptotic-fine")},
        "lemma33-nested": {"n_paths": LEMMA33_PATHS, "cells": _lemma33_cells("lemma33-nested")},
    }
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
