"""Self-contained conic solver: PSD + second-order + nonnegative cones."""

from .cones import NONNEG, PSD, SOC, ConeBlock, smat, svec
from .model import ConeProgramBuilder
from .solver import (
    DUAL_INFEASIBLE,
    MAX_ITER,
    OPTIMAL,
    PRIMAL_INFEASIBLE,
    ConicProblem,
    ConicSolution,
    SolveOptions,
    solve,
)

__all__ = [
    "NONNEG",
    "PSD",
    "SOC",
    "ConeBlock",
    "ConeProgramBuilder",
    "ConicProblem",
    "ConicSolution",
    "SolveOptions",
    "OPTIMAL",
    "PRIMAL_INFEASIBLE",
    "DUAL_INFEASIBLE",
    "MAX_ITER",
    "smat",
    "solve",
    "svec",
]
