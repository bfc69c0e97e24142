#!/usr/bin/env python3
"""Convergence scans for the three dependence conditions, per copula.

For each copula variant and each condition (single-claim, joint, and
given-the-other-claim), prints the max deviation of the exact conditional
window probability from its asymptotic factorization along an increasing
level grid.  Every row should decrease left to right.

Usage: python3 scripts/run_conditions.py
"""
import numpy as np

from renewalrisk.copulas import (
    FrankTri,
    NestedFrankProduct,
    SarmanovFGM,
    condition_ratio_scan,
)
from renewalrisk.marginals import Exponential, Pareto


def main() -> int:
    pareto, expo = Pareto(1.0), Exponential(1.0)
    specs = {
        "frank gamma=1": FrankTri(pareto, pareto, expo, 1.0),
        "nested gamma=0.5": NestedFrankProduct(pareto, pareto, expo, 0.5),
        "fgm (0.3,-0.2,0.4)": SarmanovFGM(pareto, pareto, expo, 0.3, -0.2, 0.4),
    }
    s_grid = np.linspace(0.0, 2.0, 50)
    x_grid = [10.0, 100.0, 1000.0, 10000.0, 1e6, 1e8]
    print(f"{'copula':<20} cond  " + "  ".join(f"x={x:<8g}" for x in x_grid))
    for name, spec in specs.items():
        for condition in (1, 2, 3):
            dev = condition_ratio_scan(spec, 1, s_grid, x_grid, 1.0, condition=condition)
            row = "  ".join(f"{v:<10.3e}" for v in dev)
            trend = "ok" if np.all(np.diff(dev) < 0) else "NOT DECREASING"
            print(f"{name:<20} {condition}     {row}  {trend}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
