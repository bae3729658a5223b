"""MILP backend built on ``scipy.optimize.milp`` (the HiGHS solver).

The paper uses IBM ILOG CPLEX 12.5; HiGHS plays the same role here: an
exact branch-and-cut MILP solver.  See DESIGN.md for the substitution
rationale.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Optional

from scipy.optimize import Bounds, LinearConstraint, milp

from repro.exceptions import ILPError
from repro.ilp.model import Model
from repro.ilp.solution import Solution, SolveStatus

__all__ = ["ScipyMilpSolver"]


class ScipyMilpSolver:
    """Solve :class:`~repro.ilp.model.Model` instances with HiGHS via SciPy.

    Parameters
    ----------
    time_limit:
        Optional wall-clock limit in seconds passed to HiGHS (per solve
        call).

    HiGHS asks for proven optimality (a relative gap of 0).  When it ends
    in its "Solve error" status, the model is solved once more with
    presolve off (the errors seen so far came from presolve); a second
    error is returned as :data:`SolveStatus.ERROR`, never as an answer.
    """

    name = "scipy-highs"

    def __init__(self, time_limit: Optional[float] = None):
        self.time_limit = time_limit

    def solve(self, model: Model) -> Solution:
        """Solve ``model`` and return a :class:`Solution`."""
        if model.n_variables == 0:
            # Degenerate but legal: an empty model is trivially optimal.
            return Solution(status=SolveStatus.OPTIMAL, objective=0.0, backend=self.name)
        arrays = model.to_arrays(sparse=True)
        constraints = []
        if model.n_constraints > 0:
            constraints.append(LinearConstraint(arrays["A"], arrays["cl"], arrays["cu"]))
        bounds = Bounds(arrays["xl"], arrays["xu"])
        options = {"mip_rel_gap": 0.0}
        if self.time_limit is not None:
            options["time_limit"] = float(self.time_limit)
        solve = partial(
            milp,
            c=arrays["c"],
            constraints=constraints,
            integrality=arrays["integrality"],
            bounds=bounds,
        )
        started = time.perf_counter()
        try:
            result = solve(options=options)
            if int(getattr(result, "status", _HIGHS_ERROR)) == _HIGHS_ERROR:
                result = solve(options=dict(options, presolve=False))
        except Exception as error:  # pragma: no cover - defensive
            raise ILPError(f"scipy.optimize.milp failed: {error}") from error
        elapsed = time.perf_counter() - started

        status = _translate_status(result)
        values = {}
        objective = None
        if result.x is not None:
            values = {var: float(result.x[var.index]) for var in model.variables}
            objective = float(model.objective.value(values))
        return Solution(
            status=status,
            values=values,
            objective=objective,
            solve_time=elapsed,
            backend=self.name,
            message=str(getattr(result, "message", "")),
        )


#: ``scipy.optimize.milp``'s status for everything that is not an answer.
_HIGHS_ERROR = 4


def _translate_status(result) -> str:
    """Map the SciPy/HiGHS status codes onto :class:`SolveStatus`."""
    # scipy.optimize.milp: status 0 = optimal, 1 = iteration/time limit,
    # 2 = infeasible, 3 = unbounded, 4 = other.
    status_code = int(getattr(result, "status", _HIGHS_ERROR))
    if status_code == 0:
        return SolveStatus.OPTIMAL
    if status_code == 1:
        return SolveStatus.FEASIBLE if result.x is not None else SolveStatus.TIME_LIMIT
    if status_code == 2:
        return SolveStatus.INFEASIBLE
    if status_code == 3:
        return SolveStatus.UNBOUNDED
    return SolveStatus.ERROR

