"""Cross-checks for the cached k-sweep / θ-sweep encoder state.

A model assembled from an encoder's cached sweep state must be
*bit-identical* to one assembled from a fresh state, however the cache got
there, and a search must return identical results (same k, same θ, same
refinement partitions, same probe trace) whether its encoder is fresh or was
warmed by an earlier (k, θ) walk over the same table.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro.api import Dataset
from repro.core.encoder import SortRefinementEncoder
from repro.core.search import highest_theta_refinement, lowest_k_refinement
from repro.ilp.model import Model
from repro.rdf.graph import RDFGraph
from repro.rdf.namespaces import EX
from repro.rdf.terms import Literal
from repro.rules import coverage, similarity
from repro.service.wire import strip_timing


def models_identical(a: Model, b: Model) -> bool:
    arrays_a, arrays_b = a.to_arrays(), b.to_arrays()
    for key in ("c", "cl", "cu", "xl", "xu", "integrality"):
        if not np.array_equal(arrays_a[key], arrays_b[key]):
            return False
    if not np.array_equal(arrays_a["A"].toarray(), arrays_b["A"].toarray()):
        return False
    return [v.name for v in a.variables] == [v.name for v in b.variables]


class TestIncrementalEncoding:
    @pytest.mark.parametrize("symmetry", ["anchor", "none", "hash"])
    def test_models_are_bit_identical_to_from_scratch(self, toy_persons_table, symmetry):
        for rule in (coverage(), similarity()):
            encoder = SortRefinementEncoder(rule, symmetry_breaking=symmetry)
            # Probe a k/θ walk that grows, shrinks and revisits blocks.
            for k, theta in [
                (1, Fraction(1, 2)),
                (2, Fraction(7, 10)),
                (4, Fraction(9, 10)),
                (2, Fraction(7, 10)),
                (3, Fraction(4, 5)),
            ]:
                fresh = encoder.encode(toy_persons_table, k, theta)
                cached = encoder.encode_incremental(toy_persons_table, k, theta)
                assert models_identical(fresh.model, cached.model)

    def test_sweep_state_reuses_blocks_between_probes(self, toy_persons_table):
        encoder = SortRefinementEncoder(coverage())
        first = encoder.encode_incremental(toy_persons_table, 2, Fraction(1, 2))
        second = encoder.encode_incremental(toy_persons_table, 3, Fraction(3, 4))
        # The k=2 blocks (their Variable objects) are shared across probes.
        for key, variable in first.x_vars.items():
            assert second.x_vars[key] is variable

    def test_case_coefficients_are_computed_once(self, toy_persons_table):
        encoder = SortRefinementEncoder(coverage())
        first = encoder.compute_cases(toy_persons_table)
        assert encoder.compute_cases(toy_persons_table) is first


def assignment_groups(refinement):
    """The partition as a canonical set of frozensets of signatures."""
    groups = {}
    for sig, index in refinement.assignment().items():
        groups.setdefault(index, set()).add(sig)
    return {frozenset(g) for g in groups.values()}


class TestSearchEquivalence:
    """A fresh encoder and one warmed by another (k, θ) walk agree on every scenario."""

    def run_both(self, search, table, rule, *args, **kwargs):
        fresh = search(table, rule, *args, encoder=SortRefinementEncoder(rule), **kwargs)
        warmed_encoder = SortRefinementEncoder(rule)
        for k, theta in [(4, Fraction(9, 10)), (1, Fraction(1, 3)), (3, Fraction(3, 5))]:
            warmed_encoder.encode_incremental(table, k, theta)
        warmed = search(table, rule, *args, encoder=warmed_encoder, **kwargs)
        assert warmed.k == fresh.k
        assert warmed.theta == fresh.theta
        assert assignment_groups(warmed.refinement) == assignment_groups(fresh.refinement)
        assert [(s.theta, s.k, s.feasible, s.status) for s in warmed.steps] == [
            (s.theta, s.k, s.feasible, s.status) for s in fresh.steps
        ]
        return fresh

    def test_highest_theta_cov(self, toy_persons_table):
        self.run_both(
            highest_theta_refinement, toy_persons_table, coverage(), 2, step=0.05
        )

    def test_highest_theta_sim(self, toy_persons_table):
        self.run_both(
            highest_theta_refinement, toy_persons_table, similarity(), 2, step=0.05
        )

    def test_highest_theta_without_witness_skip(self, toy_persons_table):
        with_skip = highest_theta_refinement(
            toy_persons_table, coverage(), 2, step=0.05, witness_skip=True
        )
        without_skip = highest_theta_refinement(
            toy_persons_table, coverage(), 2, step=0.05, witness_skip=False
        )
        assert with_skip.theta == pytest.approx(without_skip.theta)
        assert [(s.theta, s.feasible) for s in with_skip.steps] == [
            (s.theta, s.feasible) for s in without_skip.steps
        ]
        # Witness-certified probes avoid the solver; the trace length does not change.
        assert with_skip.n_solver_probes <= without_skip.n_solver_probes

    @pytest.mark.parametrize("direction", ["up", "down", "auto"])
    def test_lowest_k_directions(self, toy_persons_table, direction):
        self.run_both(
            lowest_k_refinement, toy_persons_table, coverage(), 0.9, direction=direction
        )

    def test_lowest_k_without_witness_skip_agrees_on_k(self, toy_persons_table):
        with_skip = lowest_k_refinement(
            toy_persons_table, coverage(), 0.9, direction="down", witness_skip=True
        )
        without_skip = lowest_k_refinement(
            toy_persons_table, coverage(), 0.9, direction="down", witness_skip=False
        )
        assert with_skip.k == without_skip.k
        assert with_skip.n_solver_probes <= without_skip.n_solver_probes

    def test_witness_steps_are_marked_in_the_trace(self, toy_persons_table):
        result = lowest_k_refinement(
            toy_persons_table, coverage(), 0.9, direction="down", witness_skip=True
        )
        statuses = {step.status for step in result.steps}
        assert "witness" in statuses
        # Witness-certified refinements still satisfy the threshold exactly.
        from repro.functions import coverage_function

        assert result.refinement.min_structuredness(coverage_function()) >= 0.9 - 1e-9


def _persons_graph() -> RDFGraph:
    """A small persons-like graph with a clear alive/dead split."""
    graph = RDFGraph(name="metamorphic persons")
    triples = []
    for i in range(12):
        s = EX[f"person{i}"]
        triples.append((s, EX.name, Literal(f"n{i}")))
        if i < 9:
            triples.append((s, EX.birthDate, Literal("1900")))
        if i < 4:
            triples.append((s, EX.deathDate, Literal("1980")))
        if i % 5 == 0:
            triples.append((s, EX.description, Literal("...")))
    graph.add_triples(triples)
    return graph


#: A delta that moves subjects between signature sets, adds a property to
#: the universe and drops one entity entirely.
_METAMORPHIC_ADD = [
    (EX.person10, EX.deathDate, Literal("1999")),
    (EX.person11, EX.spouse, EX.person0),
    (EX.newcomer, EX.name, Literal("n12")),
]
_METAMORPHIC_REMOVE = [
    (EX.person0, EX.deathDate, Literal("1980")),
    (EX.person5, EX.name, Literal("n5")),
    (EX.person5, EX.birthDate, Literal("1900")),
    (EX.person5, EX.description, Literal("...")),
    (EX.absent, EX.name, Literal("no-op")),
]


class TestMutationMetamorphic:
    """After ``dataset.mutate``, searches must answer exactly as a fresh
    dataset built from the final graph — the mutated chain and the
    session's shared encoder state may not leak stale artifacts."""

    def mutated_and_fresh(self):
        dataset = Dataset.from_graph(_persons_graph(), name="metamorphic persons")
        session = dataset.session()
        # Warm every layer (table, encoder blocks, result cache) pre-delta.
        session.evaluate("Cov")
        session.lowest_k("Cov", theta="1/2")
        session.sweep("Cov", k_values=(2, 3), step="1/4")
        dataset.mutate(add=_METAMORPHIC_ADD, remove=_METAMORPHIC_REMOVE)
        final = RDFGraph(list(dataset.graph), name="metamorphic persons")
        fresh_session = Dataset.from_graph(final, name="metamorphic persons").session()
        return session, fresh_session

    def test_lowest_k_after_mutation_matches_fresh_dataset(self):
        session, fresh = self.mutated_and_fresh()
        mutated_result = session.lowest_k("Cov", theta="1/2")
        fresh_result = fresh.lowest_k("Cov", theta="1/2")
        assert mutated_result.k == fresh_result.k
        assert mutated_result.theta == pytest.approx(fresh_result.theta)
        assert assignment_groups(mutated_result.refinement) == assignment_groups(
            fresh_result.refinement
        )
        assert strip_timing(mutated_result.to_dict()) == strip_timing(
            fresh_result.to_dict()
        )

    def test_sweep_after_mutation_matches_fresh_dataset(self):
        session, fresh = self.mutated_and_fresh()
        mutated_result = session.sweep("Cov", k_values=(2, 3), step="1/4")
        fresh_result = fresh.sweep("Cov", k_values=(2, 3), step="1/4")
        assert mutated_result.thetas == pytest.approx(fresh_result.thetas)
        assert strip_timing(mutated_result.to_dict()) == strip_timing(
            fresh_result.to_dict()
        )

    def test_refine_after_mutation_matches_fresh_dataset_for_sim(self):
        session, fresh = self.mutated_and_fresh()
        mutated_result = session.refine("Sim", k=2, step="1/4")
        fresh_result = fresh.refine("Sim", k=2, step="1/4")
        assert strip_timing(mutated_result.to_dict()) == strip_timing(
            fresh_result.to_dict()
        )

    def test_repeat_after_mutation_is_cached_again(self):
        session, _ = self.mutated_and_fresh()
        first = session.lowest_k("Cov", theta="1/2")
        assert not first.cached  # the pre-mutation cache was invalidated
        second = session.lowest_k("Cov", theta="1/2")
        assert second.cached  # the post-mutation cache is live again

