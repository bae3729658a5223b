"""A small ILP modelling layer with HiGHS and pure-Python backends.

Backends are looked up through a pluggable registry (``"highs"`` and
``"branch-and-bound"`` ship built in); see :mod:`repro.ilp.registry`.
"""

from repro.ilp.branch_and_bound import BranchAndBoundSolver
from repro.ilp.model import MAXIMIZE, MINIMIZE, Constraint, LinExpr, Model, Variable
from repro.ilp.registry import (
    DEFAULT_SOLVER,
    get_solver,
    register_solver,
    resolve_solver,
    solver_names,
    unregister_solver,
)
from repro.ilp.scipy_backend import ScipyMilpSolver
from repro.ilp.solution import Solution, SolveStatus

__all__ = [
    "Model",
    "Variable",
    "LinExpr",
    "Constraint",
    "MINIMIZE",
    "MAXIMIZE",
    "Solution",
    "SolveStatus",
    "ScipyMilpSolver",
    "BranchAndBoundSolver",
    "DEFAULT_SOLVER",
    "register_solver",
    "unregister_solver",
    "solver_names",
    "get_solver",
    "resolve_solver",
]
