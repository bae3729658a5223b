"""A pure-Python branch-and-bound MILP solver.

This backend exists for three reasons:

* it removes the hard dependency of the *core algorithm* on any particular
  external solver (the paper's contribution is the encoding, not CPLEX);
* it is the reference solver against which the HiGHS backend is
  cross-checked on small instances: HiGHS's presolve answers "infeasible"
  on some feasible sort-refinement models, and this backend does not
  (``tests/test_highs_regressions.py``);
* it powers the backend ablation benchmark in ``benchmarks/``.

It solves LP relaxations with ``scipy.optimize.linprog`` (HiGHS LP) and
branches depth-first on the most fractional integer variable.  Nodes store
only the *bound overrides* accumulated along their branch (a small dict
shared copy-on-branch), never a full copy of all variable bounds.  It is
only intended for small models (tens to a few hundred integer variables);
the default backend for real refinement runs is
:class:`repro.ilp.scipy_backend.ScipyMilpSolver`.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.optimize import linprog

from repro.ilp.model import Model
from repro.ilp.solution import Solution, SolveStatus

__all__ = ["BranchAndBoundSolver"]

_INTEGRALITY_TOLERANCE = 1e-6

#: A node's branching decisions: variable index -> (lower, upper) override.
_Overrides = Dict[int, Tuple[float, float]]


class BranchAndBoundSolver:
    """Branch and bound over LP relaxations.

    Parameters
    ----------
    time_limit:
        Wall-clock budget in seconds (the best incumbent found so far is
        returned with status ``feasible``/``time_limit`` when exceeded).
    max_nodes:
        Hard cap on the number of explored nodes.
    """

    name = "branch-and-bound"

    def __init__(self, time_limit: Optional[float] = None, max_nodes: int = 200_000):
        self.time_limit = time_limit
        self.max_nodes = max_nodes

    def solve(self, model: Model) -> Solution:
        """Solve ``model`` exactly (within the node/time limits)."""
        if model.n_variables == 0:
            return Solution(status=SolveStatus.OPTIMAL, objective=0.0, backend=self.name)
        arrays = model.to_arrays(sparse=True)
        started = time.perf_counter()

        c = arrays["c"]
        A = arrays["A"]
        cl, cu = arrays["cl"], arrays["cu"]
        integer_indexes = [i for i, flag in enumerate(arrays["integrality"]) if flag]

        # linprog wants one-sided rows: stack A x <= cu and -A x <= -cl.
        finite_upper = np.isfinite(cu)
        finite_lower = np.isfinite(cl)
        from scipy import sparse as sp

        blocks = []
        rhs_parts = []
        if finite_upper.any():
            blocks.append(A[finite_upper])
            rhs_parts.append(cu[finite_upper])
        if finite_lower.any():
            blocks.append(-A[finite_lower])
            rhs_parts.append(-cl[finite_lower])
        if blocks:
            A_ub = sp.vstack(blocks, format="csr")
            b_ub = np.concatenate(rhs_parts)
        else:
            A_ub, b_ub = None, None

        base_lower = arrays["xl"].astype(float)
        base_upper = arrays["xu"].astype(float)

        best_value = math.inf
        best_solution: Optional[np.ndarray] = None
        nodes_explored = 0
        hit_limit = False

        # A node is (parent LP bound, overrides).  The root has no
        # overrides; children share the parent dict copy-on-branch, so
        # memory per node is O(depth) decisions, not O(n) bounds.
        stack: List[Tuple[float, _Overrides]] = [(-math.inf, {})]

        while stack:
            if nodes_explored >= self.max_nodes:
                hit_limit = True
                break
            if self.time_limit is not None and time.perf_counter() - started > self.time_limit:
                hit_limit = True
                break
            parent_bound, overrides = stack.pop()
            if parent_bound >= best_value - 1e-9:
                continue  # bound became stale after the incumbent improved
            nodes_explored += 1
            lower = base_lower.copy()
            upper = base_upper.copy()
            for index, (lo, hi) in overrides.items():
                lower[index] = lo
                upper[index] = hi
            relaxation = linprog(
                c, A_ub=A_ub, b_ub=b_ub, bounds=np.column_stack((lower, upper)), method="highs"
            )
            if relaxation.status != 0 or relaxation.x is None:
                continue  # infeasible or numerically bad node: prune
            if relaxation.fun >= best_value - 1e-9:
                continue  # bound: cannot improve the incumbent
            x = relaxation.x
            fractional = _most_fractional(x, integer_indexes)
            if fractional is None:
                best_value = float(relaxation.fun)
                best_solution = x.copy()
                continue
            index, value = fractional
            node_lower = float(lower[index])
            node_upper = float(upper[index])
            floor_value = math.floor(value)
            ceil_value = math.ceil(value)
            bound = float(relaxation.fun)
            if node_lower <= floor_value:
                floor_overrides = dict(overrides)
                floor_overrides[index] = (node_lower, float(floor_value))
                stack.append((bound, floor_overrides))
            if ceil_value <= node_upper:
                ceil_overrides = dict(overrides)
                ceil_overrides[index] = (float(ceil_value), node_upper)
                stack.append((bound, ceil_overrides))

        elapsed = time.perf_counter() - started
        if best_solution is None:
            status = SolveStatus.TIME_LIMIT if hit_limit else SolveStatus.INFEASIBLE
            return Solution(
                status=status,
                solve_time=elapsed,
                backend=self.name,
                message=f"explored {nodes_explored} nodes",
            )
        values = {
            var: float(round(best_solution[var.index]))
            if var.is_integer
            else float(best_solution[var.index])
            for var in model.variables
        }
        objective = float(model.objective.value(values))
        status = SolveStatus.FEASIBLE if hit_limit else SolveStatus.OPTIMAL
        return Solution(
            status=status,
            values=values,
            objective=objective,
            solve_time=elapsed,
            backend=self.name,
            message=f"explored {nodes_explored} nodes",
        )


def _most_fractional(x: np.ndarray, integer_indexes: List[int]) -> Optional[Tuple[int, float]]:
    """Return the integer-constrained index whose value is farthest from integral."""
    best_index = None
    best_distance = _INTEGRALITY_TOLERANCE
    for index in integer_indexes:
        value = x[index]
        distance = abs(value - round(value))
        if distance > best_distance:
            best_distance = distance
            best_index = index
    if best_index is None:
        return None
    return best_index, float(x[best_index])
