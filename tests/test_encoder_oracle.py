"""The ILP encoding against the paper's definition, by enumerating partitions.

``ExistsSortRefinement(r)`` (Section 5) asks whether the signatures can be
split into at most ``k`` implicit sorts that each reach σ_r ≥ θ.  On small
random tables every split can be enumerated, so the encoding of Section 6 is
checked here without a solver:

* for every assignment X of signatures to the ``k`` sorts, U and T are set
  to the values X implies (the sort uses property ``p``; every pair a case
  mentions is present) and the rows of ``model.to_arrays()`` are evaluated;
* those values satisfy the U-link and T-AND rows, and they are the *only*
  values that do: flipping any single U (against the rows free of T) or T
  (against every row but the thresholds) breaks a row — with X fixed each of
  those rows holds one U or one T, so this proves U and T are forced;
* flipping any single X breaks a row that holds only X, so a signature in
  no sort or in two sorts is cut off;
* the threshold rows hold exactly when every non-empty sort's exact
  ``Fraction`` σ reaches θ, per assignment under every symmetry breaking
  that admits it, and some assignment is feasible exactly when some split is.

θ lies on the 1/20 grid, so a threshold row's value is a multiple of 1/20
and a tolerance of 1e-9 cannot blur a violated row into a satisfied one.

The searches are then checked end to end against the same enumeration on
the pure-Python branch-and-bound backend (HiGHS's presolve misanswers a few
of these models, see ``tests/test_highs_regressions.py``).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import floor
from typing import Dict, FrozenSet, List, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.encoder import EncodedInstance, SortRefinementEncoder
from repro.core.search import highest_theta_refinement, lowest_k_refinement
from repro.exceptions import RefinementError
from repro.functions import (
    coverage_function,
    similarity_function,
    symmetric_dependency_function,
)
from repro.matrix.signatures import SignatureTable
from repro.rdf.namespaces import EX
from repro.rules import coverage, similarity, symmetric_dependency

TOLERANCE = 1e-9
PROPERTIES = [EX[f"p{i}"] for i in range(4)]
RULES = ("Cov", "Sim", "SymDep")


def rule_and_function(name: str):
    if name == "Cov":
        return coverage(), coverage_function()
    if name == "Sim":
        return similarity(), similarity_function()
    p0, p1 = PROPERTIES[0], PROPERTIES[1]
    return symmetric_dependency(p0, p1), symmetric_dependency_function(p0, p1)


@st.composite
def tables(draw, max_signatures: int) -> SignatureTable:
    """A table of ≤ ``max_signatures`` distinct non-empty signatures over 2–4 properties."""
    n_properties = draw(st.integers(2, 4))
    properties = PROPERTIES[:n_properties]
    masks = draw(
        st.lists(
            st.integers(1, 2 ** n_properties - 1),
            min_size=1, max_size=max_signatures, unique=True,
        )
    )
    counts = {
        frozenset(p for bit, p in enumerate(properties) if mask >> bit & 1):
            draw(st.integers(1, 6))
        for mask in masks
    }
    return SignatureTable.from_counts(properties, counts, name="random")


thetas = st.integers(0, 20).map(lambda n: Fraction(n, 20))


def fixed_table(spec) -> SignatureTable:
    """A table over p0–p3 from ``((property indexes), count)`` pairs."""
    counts = {frozenset(PROPERTIES[i] for i in sig): count for sig, count in spec}
    return SignatureTable.from_counts(PROPERTIES, counts, name="fixed")


#: The two tables of ``tests/test_highs_regressions.py``: HiGHS's presolve
#: ends a Sim probe of the first in "Solve error" and calls a feasible Cov
#: probe of the second infeasible.
HIGHS_ERROR_TABLE = fixed_table([((0, 2), 6), ((3,), 5), ((0, 3), 3), ((1,), 3), ((0, 1, 2), 2)])
HIGHS_INFEASIBLE_TABLE = fixed_table(
    [((0, 1, 2, 3), 6), ((3,), 6), ((1,), 4), ((1, 2, 3), 3), ((0, 1), 2)]
)


class SigmaOracle:
    """Exact σ of every group of signatures, memoised per group."""

    def __init__(self, table: SignatureTable, function):
        self.table = table
        self.function = function
        self.cache: Dict[FrozenSet, Fraction] = {}

    def sigma(self, group) -> Fraction:
        key = frozenset(group)
        if key not in self.cache:
            self.cache[key] = self.function.evaluate_fraction(self.table.select(list(key)))
        return self.cache[key]

    def min_sigma(self, groups) -> Fraction:
        """The smallest σ over the non-empty groups of a split."""
        return min(self.sigma(group) for group in groups if group)

    def best_by_k(self) -> Dict[int, Fraction]:
        """θ*(k): the largest min-σ of a split into at most k sorts, for every k."""
        best: Dict[int, Fraction] = {}
        for blocks in set_partitions(list(self.table.signatures)):
            value = self.min_sigma(blocks)
            best[len(blocks)] = max(best.get(len(blocks), Fraction(0)), value)
        running = Fraction(0)
        for k in range(1, self.table.n_signatures + 1):
            running = max(running, best.get(k, Fraction(0)))
            best[k] = running
        return best


def set_partitions(items: List) -> List[List[List]]:
    """Every partition of ``items`` into non-empty blocks."""
    if not items:
        return [[]]
    first, rest = items[0], items[1:]
    partitions = []
    for smaller in set_partitions(rest):
        partitions.append([[first]] + smaller)
        for index in range(len(smaller)):
            partitions.append(
                smaller[:index] + [[first] + smaller[index]] + smaller[index + 1:]
            )
    return partitions


def implied_values(instance: EncodedInstance, assignments: np.ndarray) -> np.ndarray:
    """The (variables × assignments) 0/1 matrix of X and the U and T it implies."""
    signatures = instance.table.signatures
    values = np.zeros((instance.model.n_variables, len(assignments)))
    x = {}
    for (i, sig), variable in instance.x_vars.items():
        x[(i, sig)] = assignments[:, signatures.index(sig)] == i
        values[variable.index] = x[(i, sig)]
    u = {}
    for (i, prop), variable in instance.u_vars.items():
        present = np.zeros(len(assignments), dtype=bool)
        for sig in signatures:
            if prop in sig:
                present |= x[(i, sig)]
        u[(i, prop)] = present
        values[variable.index] = present
    for (i, key), variable in instance.t_vars.items():
        consistent = np.ones(len(assignments), dtype=bool)
        for sig, prop in key:
            consistent &= x[(i, sig)] & u[(i, prop)]
        values[variable.index] = consistent
    return values


def row_kinds(instance: EncodedInstance) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Masks of the rows that hold only X, that hold no T, and that hold only T."""
    kind = {}
    for variable in instance.x_vars.values():
        kind[variable] = "X"
    for variable in instance.u_vars.values():
        kind[variable] = "U"
    for variable in instance.t_vars.values():
        kind[variable] = "T"
    constraints = instance.model.constraints
    touched = [{kind[v] for v in c.expression.coefficients} for c in constraints]
    only_x = np.array([kinds <= {"X"} for kinds in touched], dtype=bool)
    no_t = np.array(["T" not in kinds for kinds in touched], dtype=bool)
    only_t = np.array([kinds == {"T"} for kinds in touched], dtype=bool)
    return only_x, no_t, only_t


def check_against_enumeration(
    instance: EncodedInstance, oracle: SigmaOracle, k: int, theta: Fraction
) -> None:
    """Every assertion of the module docstring, on one freshly assembled model."""
    arrays = instance.model.to_arrays()
    A = arrays["A"].tocsc()
    lower = arrays["cl"][:, None] - TOLERANCE
    upper = arrays["cu"][:, None] + TOLERANCE
    signatures = instance.table.signatures
    assignments = np.array(list(product(range(k), repeat=len(signatures))), dtype=int)
    values = implied_values(instance, assignments)
    rows = A @ values
    holds = (rows >= lower) & (rows <= upper)
    only_x, no_t, only_t = row_kinds(instance)

    admissible = holds[only_x].all(axis=0)
    if instance.metadata["symmetry_breaking"] == "none":
        assert admissible.all(), "an assignment of every signature to one sort is cut off"
    assert admissible.any()
    structural = ~only_t
    assert holds[structural][:, admissible].all(), "implied U/T values break a link or AND row"

    # Flipping one X must break an X-only row, one U a row free of T, and
    # one T a row that is not a threshold row.
    for variables, allowed in (
        (instance.x_vars.values(), only_x),
        (instance.u_vars.values(), no_t & ~only_x),
        (instance.t_vars.values(), structural & ~only_x),
    ):
        for variable in variables:
            column = A.getcol(variable.index)
            touched = column.indices[allowed[column.indices]]
            assert len(touched), f"{variable.name} is in no row that could force it"
            delta = 1.0 - 2.0 * values[variable.index][admissible]
            coefficients = column.toarray()[touched, 0][:, None]
            flipped = rows[touched][:, admissible] + coefficients * delta
            broken = (flipped < lower[touched]) | (flipped > upper[touched])
            assert broken.any(axis=0).all(), f"{variable.name} is not forced"

    model_feasible = admissible & holds.all(axis=0)
    expected = np.array(
        [
            oracle.min_sigma(
                [
                    [sig for sig, sort in zip(signatures, row) if sort == i]
                    for i in range(k)
                ]
            ) >= theta
            for row in assignments
        ],
        dtype=bool,
    )
    assert (model_feasible[admissible] == expected[admissible]).all(), (
        "the threshold rows disagree with the exact σ of some split"
    )
    assert model_feasible.any() == expected.any()


@settings(
    max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    table=tables(max_signatures=6),
    rule_name=st.sampled_from(RULES),
    k=st.integers(1, 3),
    theta=thetas,
    symmetry=st.sampled_from(["none", "anchor", "hash"]),
    grouped=st.booleans(),
    walk=st.lists(st.tuples(st.integers(1, 4), thetas), max_size=4),
)
def test_encoding_decides_exists_sort_refinement(
    table, rule_name, k, theta, symmetry, grouped, walk
):
    rule, function = rule_and_function(rule_name)
    oracle = SigmaOracle(table, function)
    encoder = SortRefinementEncoder(
        rule, symmetry_breaking=symmetry, group_equivalent_cases=grouped
    )
    check_against_enumeration(encoder.encode(table, k, theta), oracle, k, theta)
    # The cached path, after an earlier (k, θ) walk grew, shrank and
    # re-thresholded its blocks.
    for earlier_k, earlier_theta in walk:
        encoder.encode_incremental(table, earlier_k, earlier_theta)
    check_against_enumeration(encoder.encode_incremental(table, k, theta), oracle, k, theta)


def test_set_partitions_are_counted_by_bell_numbers():
    assert [len(set_partitions(list(range(n)))) for n in range(6)] == [1, 1, 2, 5, 15, 52]


@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@example(table=HIGHS_ERROR_TABLE, rule_name="Sim", k=3, theta=Fraction(3, 4))
@example(table=HIGHS_INFEASIBLE_TABLE, rule_name="Cov", k=3, theta=Fraction(7, 10))
@given(
    table=tables(max_signatures=5),
    rule_name=st.sampled_from(RULES),
    k=st.integers(1, 3),
    theta=thetas,
)
def test_searches_match_enumeration_on_branch_and_bound(table, rule_name, k, theta):
    """highest θ and lowest k agree with θ*(k), the best min-σ of a split into ≤ k sorts."""
    rule, function = rule_and_function(rule_name)
    best = SigmaOracle(table, function).best_by_k()
    k = min(k, table.n_signatures)

    result = highest_theta_refinement(
        table, rule, k, step=Fraction(1, 20), initial_theta=0, solver="branch-and-bound"
    )
    assert result.theta == float(Fraction(floor(20 * best[k]), 20))

    feasible_ks = [j for j in range(1, table.n_signatures + 1) if best[j] >= theta]
    for direction in ("up", "down", "auto"):
        if not feasible_ks:
            with pytest.raises(RefinementError):
                lowest_k_refinement(
                    table, rule, theta, direction=direction, solver="branch-and-bound"
                )
            continue
        found = lowest_k_refinement(
            table, rule, theta, direction=direction, solver="branch-and-bound"
        )
        assert found.k == feasible_ks[0], direction
