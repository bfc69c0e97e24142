"""Numerical laboratory for a bidimensional renewal risk model.

Two correlated heavy-tailed claim streams arrive at common renewal
epochs, with claim sizes and the following inter-arrival time coupled
through a tri-dimensional copula.  The package provides exact Monte
Carlo simulation of the discounted aggregate claim pair and of the net
loss, a quadrature evaluator of the local asymptotic approximation to
the joint law, renewal-function machinery, the copula families with
their closed-form dependence weights, and a piecewise-linear density
showing that local subexponentiality does not imply an almost decreased
local law.
"""

from .marginals import (
    Deterministic,
    Exponential,
    LocalWindow,
    Marginal,
    Pareto,
    Weibull,
    local_prob,
    scaled_local_prob,
)
from .copulas import (
    DependenceSpec,
    FrankTri,
    Independent,
    NestedFrankProduct,
    SarmanovFGM,
)
from .counterexample import CounterexampleF

__all__ = [
    "Deterministic",
    "Exponential",
    "LocalWindow",
    "Marginal",
    "Pareto",
    "Weibull",
    "local_prob",
    "scaled_local_prob",
    "DependenceSpec",
    "FrankTri",
    "Independent",
    "NestedFrankProduct",
    "SarmanovFGM",
    "CounterexampleF",
]
