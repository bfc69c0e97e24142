#!/usr/bin/env python3
"""Empirical vs asymptotic box probabilities over a (t, x) grid.

Reproduces the headline uniformity experiment: for the Frank-dependent
model with Pareto(1) claims and Poisson arrivals, estimate the
discounted-claims box probability by Monte Carlo at every (t, x) cell and
compare with the quadrature evaluation of the asymptotic formula.  The
max-over-t relative deviation should shrink as x grows.

Usage: python3 scripts/run_uniformity.py [--paths N] [--threads K] [--out CSV]
"""
import argparse
import csv
import sys

from renewalrisk.asymptotics import Box2, theorem_rhs
from renewalrisk.copulas import FrankTri
from renewalrisk.marginals import Exponential, Pareto
from renewalrisk.renewal import renewal_function, tilted_triplet
from renewalrisk.simulate import ModelConfig, simulate_grid


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--paths", type=int, default=10_000_000)
    ap.add_argument("--threads", type=int, default=4)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out", default="-")
    args = ap.parse_args()

    pareto, expo = Pareto(1.0), Exponential(1.0)
    dep = FrankTri(pareto, pareto, expo, 1.0)
    config = ModelConfig(dependence=dep, t_max=2.0, r=0.05, seed=args.seed)

    t_grid = [0.5, 1.0, 1.5, 2.0]
    x_grid = [10.0, 20.0, 40.0]
    d = 5.0
    boxes = [Box2(x, x, d, d) for x in x_grid]

    grid = renewal_function(expo, config.t_max, 1e-3)
    t1, t2, tj = tilted_triplet(grid, dep)

    hits = simulate_grid(config, t_grid, boxes, args.paths, threads=args.threads)

    out = sys.stdout if args.out == "-" else open(args.out, "w", newline="")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["t", "x", "empirical", "asymptotic", "ratio"])
    worst = {x: 0.0 for x in x_grid}
    for i, t in enumerate(t_grid):
        for j, box in enumerate(boxes):
            emp = hits[i, j] / args.paths
            asym = theorem_rhs(pareto, pareto, box, config.r, t, t1, t2, tj).total
            ratio = emp / asym
            worst[box.x1] = max(worst[box.x1], abs(ratio - 1.0))
            writer.writerow([t, box.x1, float(emp), float(asym), float(ratio)])
    if out is not sys.stdout:
        out.close()
    for x in x_grid:
        print(f"x={x:>5g}: max |ratio - 1| over t = {worst[x]:.4f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
