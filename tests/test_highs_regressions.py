"""Models on which HiGHS has answered wrongly, pinned against partition enumeration.

Both tables were found by running the searches against an enumeration of
every signature partition (``tests/test_encoder_oracle.py``).  The
encoding is right on both: the branch-and-bound backend answers them as the
enumeration does.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.core.decision import decide_sort_refinement
from repro.core.encoder import SortRefinementEncoder
from repro.core.search import highest_theta_refinement, lowest_k_refinement
from repro.exceptions import ILPError
from repro.functions import coverage_function
from repro.ilp.branch_and_bound import BranchAndBoundSolver
from repro.ilp.scipy_backend import ScipyMilpSolver
from repro.ilp.solution import Solution, SolveStatus
from repro.matrix.signatures import SignatureTable
from repro.rdf.namespaces import EX
from repro.rules import coverage, similarity

P = [EX[f"p{i}"] for i in range(4)]


def table(spec) -> SignatureTable:
    return SignatureTable.from_counts(
        P, {frozenset(P[i] for i in sig): count for sig, count in spec}, name="regression"
    )


@pytest.fixture
def solve_error_table() -> SignatureTable:
    """Sim, k = 3: HiGHS with presolve ends θ = 7/10 in "Solve error"; θ* = 62/77."""
    return table([((0, 2), 6), ((3,), 5), ((0, 3), 3), ((1,), 3), ((0, 1, 2), 2)])


@pytest.fixture
def presolve_infeasible_table() -> SignatureTable:
    """Cov, k = 3, θ = 7/10 is feasible (θ* = 37/44), yet HiGHS's presolve says infeasible."""
    return table([((0, 1, 2, 3), 6), ((3,), 6), ((1,), 4), ((1, 2, 3), 3), ((0, 1), 2)])


class TestSolveErrorIsNotInfeasible:
    def test_the_model_is_solved_again_without_presolve(self, solve_error_table):
        instance = SortRefinementEncoder(similarity()).encode(
            solve_error_table, k=3, theta=Fraction(7, 10)
        )
        assert ScipyMilpSolver().solve(instance.model).status == SolveStatus.OPTIMAL

    def test_highest_theta_reaches_the_enumerated_optimum(self, solve_error_table):
        result = highest_theta_refinement(
            solve_error_table, similarity(), 3, step=Fraction(1, 20), initial_theta=0
        )
        assert result.theta == pytest.approx(0.8)  # floor(20 · 62/77) / 20

    def test_lowest_k_up_stops_at_three(self, solve_error_table):
        result = lowest_k_refinement(
            solve_error_table, similarity(), Fraction(3, 4), direction="up"
        )
        assert result.k == 3

    def test_a_persisting_error_raises_naming_k_and_theta(self, solve_error_table):
        class Failing:
            def solve(self, model):
                return Solution(status=SolveStatus.ERROR, message="HiGHS Status 4")

        with pytest.raises(ILPError, match=r"k=3, theta=7/10"):
            decide_sort_refinement(
                solve_error_table, similarity(), Fraction(7, 10), 3, solver=Failing()
            )
        with pytest.raises(ILPError, match="k=1, theta=3/4"):
            lowest_k_refinement(
                solve_error_table, similarity(), Fraction(3, 4), direction="up",
                solver=Failing(),
            )


class TestPresolveInfeasible:
    def encode(self, presolve_infeasible_table):
        return SortRefinementEncoder(coverage()).encode(
            presolve_infeasible_table, k=3, theta=Fraction(7, 10)
        )

    @pytest.mark.xfail(
        strict=True,
        reason="HiGHS presolve answers 'infeasible' on this feasible anchored model; "
        "turning presolve or the anchor off costs 2-25x on the refine benchmark",
    )
    def test_highs_answers_feasible(self, presolve_infeasible_table):
        solution = ScipyMilpSolver().solve(self.encode(presolve_infeasible_table).model)
        assert solution.is_feasible

    def test_branch_and_bound_answers_feasible(self, presolve_infeasible_table):
        instance = self.encode(presolve_infeasible_table)
        solution = BranchAndBoundSolver().solve(instance.model)
        assert solution.is_feasible
        refinement = instance.decode(solution)
        assert refinement.k <= 3
        assert refinement.min_structuredness(coverage_function()) >= 0.7
