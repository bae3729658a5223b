"""Tests for the two MILP backends (HiGHS via SciPy, and branch & bound).

Small classic models (knapsack, assignment, infeasible systems) are solved
with both backends, which must agree on feasibility and optimal value.
"""

from __future__ import annotations

import pytest

from repro.exceptions import InfeasibleError
from repro.ilp.branch_and_bound import BranchAndBoundSolver
from repro.ilp.model import MAXIMIZE, Constraint, LinExpr, Model
from repro.ilp.scipy_backend import ScipyMilpSolver
from repro.ilp.solution import Solution, SolveStatus

BACKENDS = [ScipyMilpSolver, BranchAndBoundSolver]


def knapsack_model() -> tuple[Model, float]:
    """0/1 knapsack with optimal value 11 (items 2 and 3)."""
    model = Model("knapsack")
    values = [6, 5, 6, 1]
    weights = [4, 3, 3, 1]
    capacity = 6
    items = [model.add_binary(f"item{i}") for i in range(4)]
    model.add_constraint(LinExpr.sum(w * x for w, x in zip(weights, items)) <= capacity)
    model.set_objective(LinExpr.sum(v * x for v, x in zip(values, items)), sense=MAXIMIZE)
    return model, 11.0


def infeasible_model() -> Model:
    model = Model("infeasible")
    x = model.add_binary("x")
    model.add_constraint(Constraint(LinExpr({x: 1.0}), lower=2, upper=3))
    return model


def assignment_model() -> tuple[Model, float]:
    """2x2 assignment problem with cost matrix [[1, 10], [10, 1]] -> optimum 2."""
    model = Model("assignment")
    x = {(i, j): model.add_binary(f"x{i}{j}") for i in range(2) for j in range(2)}
    costs = {(0, 0): 1, (0, 1): 10, (1, 0): 10, (1, 1): 1}
    for i in range(2):
        model.add_constraint(Constraint(LinExpr.sum(x[i, j] for j in range(2)), lower=1, upper=1))
    for j in range(2):
        model.add_constraint(Constraint(LinExpr.sum(x[i, j] for i in range(2)), lower=1, upper=1))
    model.set_objective(LinExpr.sum(costs[key] * var for key, var in x.items()))
    return model, 2.0


@pytest.mark.parametrize("backend", BACKENDS)
class TestBackends:
    def test_knapsack_optimum(self, backend):
        model, optimum = knapsack_model()
        solution = backend().solve(model)
        assert solution.status == SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(optimum)
        assert model.check_solution(solution.values)

    def test_assignment_optimum(self, backend):
        model, optimum = assignment_model()
        solution = backend().solve(model)
        assert solution.status == SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(optimum)

    def test_infeasible_model(self, backend):
        solution = backend().solve(infeasible_model())
        assert solution.status == SolveStatus.INFEASIBLE
        assert not solution.is_feasible
        with pytest.raises(InfeasibleError):
            solution.require_feasible()

    def test_empty_model_is_trivially_optimal(self, backend):
        solution = backend().solve(Model("empty"))
        assert solution.status == SolveStatus.OPTIMAL

    def test_pure_feasibility_model(self, backend):
        model = Model("feasibility")
        x = model.add_binary("x")
        y = model.add_binary("y")
        model.add_constraint(Constraint(x + y, lower=1, upper=1))
        solution = backend().solve(model)
        assert solution.is_feasible
        assert solution.int_value(x) + solution.int_value(y) == 1


class TestSolutionObject:
    def test_value_accessors(self):
        model, _ = knapsack_model()
        solution = ScipyMilpSolver().solve(model)
        variable = model.variables[0]
        assert solution.value(variable) in (0.0, 1.0)
        assert solution.int_value(variable) in (0, 1)
        other = Model().add_binary("unknown")
        assert solution.value(other, default=-1.0) == -1.0
        assert solution.int_value(other, default=-1) == -1

    def test_restricted_to(self):
        model, _ = knapsack_model()
        solution = ScipyMilpSolver().solve(model)
        named = solution.restricted_to({"first": model.variables[0]})
        assert set(named) == {"first"}

    def test_mixed_integer_continuous_model(self):
        model = Model("mixed")
        x = model.add_binary("x")
        y = model.add_variable("y", 0.0, 10.0)
        model.add_constraint(y <= 3 + 2 * x)
        model.set_objective(y, sense=MAXIMIZE)
        solution = ScipyMilpSolver().solve(model)
        assert solution.objective == pytest.approx(5.0)

    def test_branch_and_bound_respects_node_limit(self):
        model, _ = knapsack_model()
        solver = BranchAndBoundSolver(max_nodes=1)
        solution = solver.solve(model)
        # With a single node the solver can at best have explored the root.
        assert solution.status in (
            SolveStatus.OPTIMAL,
            SolveStatus.FEASIBLE,
            SolveStatus.TIME_LIMIT,
            SolveStatus.INFEASIBLE,
        )
