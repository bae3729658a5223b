"""Tests for the ILP encoding of ExistsSortRefinement (Section 6).

These tests solve the encoding of one fixed table and compare the answer
against a brute-force enumeration of all signature partitions, for several
rules and thresholds.  ``tests/test_encoder_oracle.py`` checks the emitted
rows themselves against the enumeration, without a solver, on random tables.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import pytest

from repro.core.encoder import SortRefinementEncoder, to_fraction
from repro.core.refinement import refinement_from_assignment
from repro.exceptions import RefinementError
from repro.functions import (
    StructurednessFunction,
    coverage_function,
    similarity_function,
    symmetric_dependency_function,
)
from repro.ilp.branch_and_bound import BranchAndBoundSolver
from repro.ilp.scipy_backend import ScipyMilpSolver
from repro.matrix.signatures import SignatureTable
from repro.rdf.namespaces import EX
from repro.rules import coverage, similarity, symmetric_dependency


def brute_force_exists(table: SignatureTable, function: StructurednessFunction, theta: float, k: int) -> bool:
    """Enumerate all assignments of signatures to at most k sorts."""
    signatures = list(table.signatures)
    for assignment in product(range(k), repeat=len(signatures)):
        groups: dict[int, list] = {}
        for signature, index in zip(signatures, assignment):
            groups.setdefault(index, []).append(signature)
        ok = True
        for signatures_in_group in groups.values():
            value = function(table.select(signatures_in_group))
            if value < theta - 1e-12:
                ok = False
                break
        if ok:
            return True
    return False


@pytest.fixture
def small_table() -> SignatureTable:
    counts = {
        frozenset([EX.a]): 4,
        frozenset([EX.a, EX.b]): 3,
        frozenset([EX.b, EX.c]): 2,
        frozenset([EX.a, EX.b, EX.c]): 1,
    }
    return SignatureTable.from_counts([EX.a, EX.b, EX.c], counts, name="small")


class TestThresholdNormalisation:
    def test_to_fraction_accepts_floats_strings_and_fractions(self):
        assert to_fraction(0.9) == Fraction(9, 10)
        assert to_fraction("3/4") == Fraction(3, 4)
        assert to_fraction(Fraction(1, 3)) == Fraction(1, 3)
        assert to_fraction(1) == Fraction(1)

    def test_to_fraction_rejects_out_of_range(self):
        with pytest.raises(RefinementError):
            to_fraction(1.5)
        with pytest.raises(RefinementError):
            to_fraction(-0.1)


class TestEncoding:
    def test_variable_counts(self, small_table):
        encoder = SortRefinementEncoder(coverage())
        instance = encoder.encode(small_table, k=2, theta=0.5)
        k, n_sigs, n_props = 2, small_table.n_signatures, small_table.n_properties
        assert len(instance.x_vars) == k * n_sigs
        assert len(instance.u_vars) == k * n_props
        assert instance.n_cases == len({key for (_i, key) in instance.t_vars}) > 0
        stats = instance.statistics()
        assert stats["signatures"] == n_sigs
        assert stats["k"] == 2

    def test_invalid_k_raises(self, small_table):
        with pytest.raises(RefinementError):
            SortRefinementEncoder(coverage()).encode(small_table, k=0, theta=0.5)

    def test_case_cache_reused_across_thresholds(self, small_table):
        encoder = SortRefinementEncoder(coverage())
        first = encoder.compute_cases(small_table)
        second = encoder.compute_cases(small_table)
        assert first is second

    def test_pruning_grouped_cases_preserves_total_mass(self, small_table):
        """Grouped case coefficients must sum to the same totals as raw enumeration."""
        from repro.rules.counting import enumerate_rough_assignments

        rule = similarity()
        encoder = SortRefinementEncoder(rule, group_equivalent_cases=True)
        grouped = encoder.compute_cases(small_table)
        raw_total = sum(case.total for case in enumerate_rough_assignments(rule, small_table))
        raw_fav = sum(case.favourable for case in enumerate_rough_assignments(rule, small_table))
        assert sum(total for total, _fav in grouped.values()) == raw_total
        assert sum(fav for _total, fav in grouped.values()) == raw_fav

    def test_ungrouped_encoding_also_solves(self, small_table):
        encoder = SortRefinementEncoder(coverage(), group_equivalent_cases=False)
        instance = encoder.encode(small_table, k=2, theta=0.6)
        solution = ScipyMilpSolver().solve(instance.model)
        assert solution.is_feasible

    def test_symmetry_breaking_toggle_changes_constraint_count(self, small_table):
        with_symmetry = SortRefinementEncoder(coverage(), symmetry_breaking=True).encode(
            small_table, k=3, theta=0.5
        )
        without_symmetry = SortRefinementEncoder(coverage(), symmetry_breaking=False).encode(
            small_table, k=3, theta=0.5
        )
        assert with_symmetry.model.n_constraints == without_symmetry.model.n_constraints + 2


class TestDecoding:
    def test_decode_produces_valid_refinement(self, small_table):
        encoder = SortRefinementEncoder(coverage())
        instance = encoder.encode(small_table, k=2, theta=0.6)
        solution = ScipyMilpSolver().solve(instance.model)
        refinement = instance.decode(solution)
        refinement.validate()
        assert refinement.k <= 2
        assert refinement.threshold == pytest.approx(0.6)
        assert refinement.min_structuredness(coverage_function()) >= 0.6 - 1e-9

    def test_decode_requires_feasible_solution(self, small_table):
        encoder = SortRefinementEncoder(coverage())
        instance = encoder.encode(small_table, k=1, theta=1.0)
        solution = ScipyMilpSolver().solve(instance.model)
        assert not solution.is_feasible
        from repro.exceptions import InfeasibleError

        with pytest.raises(InfeasibleError):
            instance.decode(solution)


class TestAgainstBruteForce:
    @pytest.mark.parametrize("theta", [0.5, 0.6, 0.7, 0.8, 0.9, 1.0])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_coverage_feasibility_matches_brute_force(self, small_table, theta, k):
        encoder = SortRefinementEncoder(coverage())
        instance = encoder.encode(small_table, k=k, theta=theta)
        ilp_answer = ScipyMilpSolver().solve(instance.model).is_feasible
        brute = brute_force_exists(small_table, coverage_function(), theta, k)
        assert ilp_answer == brute

    @pytest.mark.parametrize("theta", [0.7, 0.9, 1.0])
    @pytest.mark.parametrize("k", [1, 2])
    def test_similarity_feasibility_matches_brute_force(self, small_table, theta, k):
        encoder = SortRefinementEncoder(similarity())
        instance = encoder.encode(small_table, k=k, theta=theta)
        ilp_answer = ScipyMilpSolver().solve(instance.model).is_feasible
        brute = brute_force_exists(small_table, similarity_function(), theta, k)
        assert ilp_answer == brute

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_symmetric_dependency_matches_brute_force(self, small_table, theta):
        rule = symmetric_dependency(EX.b, EX.c)
        function = symmetric_dependency_function(EX.b, EX.c)
        encoder = SortRefinementEncoder(rule)
        instance = encoder.encode(small_table, k=2, theta=theta)
        ilp_answer = ScipyMilpSolver().solve(instance.model).is_feasible
        assert ilp_answer == brute_force_exists(small_table, function, theta, 2)

    def test_branch_and_bound_backend_agrees_with_highs(self, small_table):
        encoder = SortRefinementEncoder(coverage())
        for theta, k in ((0.6, 2), (0.95, 2)):
            instance = encoder.encode(small_table, k=k, theta=theta)
            highs = ScipyMilpSolver().solve(instance.model).is_feasible
            bnb = BranchAndBoundSolver().solve(instance.model).is_feasible
            assert highs == bnb
