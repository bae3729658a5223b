"""Differential property-test harness for incremental signature maintenance.

The correctness contract of the mutation path is *global bit-identity*:
after any sequence of in-place graph mutations, the incrementally patched
``PropertyMatrix`` and ``SignatureTable`` must equal a from-scratch
rebuild of the mutated graph — same labels in the same order, same data,
same signatures, same counts, same member tuples — and every
structuredness function must agree exactly (as ``Fraction``s, not
floats).

Each rule (``insert`` / ``delete`` / ``mixed``) runs ≥200 seeded random
scenarios: a random graph (multi-valued properties, literals and URIs,
``rdf:type`` triples), a random delta of its kind (including no-op
deletes of absent triples, duplicate inserts of present triples, entity
and property-universe removals, and delete-then-re-insert overlaps), and
the differential assertion.  The mixed rule additionally chains deltas so
the carried-forward member column and row → signature array are exercised
across generations.  A Hypothesis property replays short delta sequences
over a small typed graph and compares the patched table with
``from_matrix`` after every step.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.matrix.signatures as signatures_module
from repro.api import Dataset
from repro.functions.structuredness import (
    conditional_dependency,
    coverage,
    dependency,
    similarity,
    symmetric_dependency,
)
from repro.matrix.property_matrix import PropertyMatrix
from repro.matrix.signatures import SignatureTable
from repro.rdf.graph import RDFGraph
from repro.rdf.namespaces import EX, RDF
from repro.rdf.terms import Literal, Triple, URI

#: Scenarios per delta rule (the ISSUE's acceptance floor is 200).
N_SCENARIOS = 200


# --------------------------------------------------------------------- #
# Scenario generation
# --------------------------------------------------------------------- #
def random_graph(rng: np.random.Generator) -> RDFGraph:
    """A small random graph with literals, URIs, multi-values and types."""
    n_subjects = int(rng.integers(4, 11))
    n_properties = int(rng.integers(3, 7))
    subjects = [EX[f"s{i}"] for i in range(n_subjects)]
    properties = [EX[f"p{j}"] for j in range(n_properties)]
    sorts = [EX.SortA, EX.SortB]
    triples = []
    for s in subjects:
        for p in properties:
            if rng.random() < 0.4:
                # Sometimes several objects for one (s, p) pair, so deletes
                # can change multiplicity without changing the signature.
                for _ in range(int(rng.integers(1, 3))):
                    if rng.random() < 0.5:
                        triples.append((s, p, Literal(f"v{rng.integers(4)}")))
                    else:
                        triples.append((s, p, EX[f"o{rng.integers(4)}"]))
        if rng.random() < 0.5:
            triples.append((s, RDF.type, sorts[int(rng.integers(2))]))
    graph = RDFGraph(name="differential")
    graph.add_triples(triples)
    return graph


def _insert_delta(rng: np.random.Generator, graph: RDFGraph) -> tuple:
    existing = list(graph)
    add = []
    for _ in range(int(rng.integers(1, 8))):
        roll = rng.random()
        if roll < 0.25 and existing:
            # Duplicate insert of a present triple: a no-op by contract.
            add.append(existing[int(rng.integers(len(existing)))])
        elif roll < 0.5:
            add.append((EX[f"s{rng.integers(12)}"], EX[f"p{rng.integers(8)}"], Literal("new")))
        elif roll < 0.75:
            # Brand-new subject entering the universe.
            add.append((EX[f"fresh{rng.integers(4)}"], EX[f"p{rng.integers(8)}"], EX.obj))
        else:
            # Brand-new property entering the universe.
            add.append((EX[f"s{rng.integers(12)}"], EX[f"extra{rng.integers(3)}"], Literal("x")))
    if rng.random() < 0.3:
        add.append((EX[f"s{rng.integers(12)}"], RDF.type, EX.SortC))
    return add, []


def _delete_delta(rng: np.random.Generator, graph: RDFGraph) -> tuple:
    existing = list(graph)
    remove = []
    if existing:
        picks = rng.choice(len(existing), size=min(int(rng.integers(1, 8)), len(existing)), replace=False)
        remove.extend(existing[i] for i in picks)
    # No-op deletes: absent triples over known and unknown terms.
    remove.append((EX.s0, EX.p0, Literal("never-there")))
    remove.append((EX.ghost, EX.phantom, EX.nothing))
    if rng.random() < 0.3 and graph.n_subjects:
        # Remove a whole entity: its subject leaves the universe.
        victim = sorted(graph.subjects())[int(rng.integers(graph.n_subjects))]
        remove.extend(graph.triples_for_subject(victim))
    if rng.random() < 0.3:
        # Remove every use of one property: a column leaves the universe.
        properties = sorted(graph.properties())
        if properties:
            victim_p = properties[int(rng.integers(len(properties)))]
            remove.extend(graph.triples(predicate=victim_p))
    return [], remove


def random_delta(rng: np.random.Generator, graph: RDFGraph, kind: str) -> tuple:
    if kind == "insert":
        return _insert_delta(rng, graph)
    if kind == "delete":
        return _delete_delta(rng, graph)
    add, _ = _insert_delta(rng, graph)
    _, remove = _delete_delta(rng, graph)
    if remove and rng.random() < 0.5:
        # Delete-then-re-insert overlap: removals run first, so these
        # triples survive the mutation.
        add.extend(remove[: int(rng.integers(1, len(remove) + 1))])
    return add, remove


# --------------------------------------------------------------------- #
# The differential assertion
# --------------------------------------------------------------------- #
def assert_equals_rebuild(graph: RDFGraph, matrix: PropertyMatrix, table: SignatureTable, context: str):
    """Patched artifacts vs a from-scratch rebuild of the mutated graph."""
    rebuilt_matrix = PropertyMatrix.from_graph(graph)
    assert matrix == rebuilt_matrix, f"{context}: matrix differs from rebuild"
    assert matrix.subjects == rebuilt_matrix.subjects, context
    assert matrix.properties == rebuilt_matrix.properties, context

    rebuilt_table = SignatureTable.from_matrix(rebuilt_matrix)
    assert table == rebuilt_table, f"{context}: signature table differs from rebuild"
    assert table.signatures == rebuilt_table.signatures, context
    assert np.array_equal(table.count_vector(), rebuilt_table.count_vector()), context
    assert np.array_equal(table.support_matrix(), rebuilt_table.support_matrix()), context
    assert np.array_equal(
        table.property_count_vector(), rebuilt_table.property_count_vector()
    ), context
    for signature in rebuilt_table.signatures:
        assert table.members_of(signature) == rebuilt_table.members_of(signature), (
            f"{context}: member tuple differs for a signature"
        )

    # All five structuredness functions, exactly.
    assert coverage(table, exact=True) == coverage(rebuilt_table, exact=True), context
    assert similarity(table, exact=True) == similarity(rebuilt_table, exact=True), context
    properties = rebuilt_table.properties
    pairs = [(properties[0], properties[-1])] if properties else []
    if len(properties) >= 2:
        pairs.append((properties[1], properties[0]))
    for p1, p2 in pairs:
        assert dependency(table, p1, p2, exact=True) == dependency(
            rebuilt_table, p1, p2, exact=True
        ), context
        assert symmetric_dependency(table, p1, p2, exact=True) == symmetric_dependency(
            rebuilt_table, p1, p2, exact=True
        ), context
        assert conditional_dependency(table, p1, p2, exact=True) == conditional_dependency(
            rebuilt_table, p1, p2, exact=True
        ), context
    return rebuilt_matrix, rebuilt_table


class TestApplyDeltaDifferential:
    @pytest.mark.parametrize("kind", ["insert", "delete", "mixed"])
    def test_patched_artifacts_equal_rebuild(self, kind):
        kind_offset = {"insert": 1, "delete": 2, "mixed": 3}[kind]
        for seed in range(N_SCENARIOS):
            rng = np.random.default_rng(10_000 * kind_offset + seed)
            graph = random_graph(rng)
            matrix = PropertyMatrix.from_graph(graph)
            table = SignatureTable.from_matrix(matrix)
            add, remove = random_delta(rng, graph, kind)
            delta = graph.remove_triples(remove).merge(graph.add_triples(add))
            patched_matrix = matrix.apply_delta(graph, delta)
            patched_table = table.apply_delta(patched_matrix, delta)
            assert_equals_rebuild(
                graph, patched_matrix, patched_table, f"kind={kind} seed={seed}"
            )
            # The graph itself must equal a fresh term-level rebuild.
            assert graph == RDFGraph(list(graph)), f"kind={kind} seed={seed}"

    def test_chained_deltas_stay_identical(self):
        """Generations of patches never drift from the rebuild."""
        for seed in range(N_SCENARIOS // 4):
            rng = np.random.default_rng(777_000 + seed)
            graph = random_graph(rng)
            matrix = PropertyMatrix.from_graph(graph)
            table = SignatureTable.from_matrix(matrix)
            for step in range(4):
                kind = ["insert", "delete", "mixed", "mixed"][step]
                add, remove = random_delta(rng, graph, kind)
                delta = graph.remove_triples(remove).merge(graph.add_triples(add))
                matrix = matrix.apply_delta(graph, delta)
                table = table.apply_delta(matrix, delta)
                assert_equals_rebuild(
                    graph, matrix, table, f"chain seed={seed} step={step}"
                )

    def test_single_triple_toggles_equal_rebuild(self):
        """One-triple adds and removes, with and without a label entering or leaving."""
        seen = {"same universe": 0, "universe changed": 0}
        for seed in range(40):
            rng = np.random.default_rng(424_000 + seed)
            graph = random_graph(rng)
            matrix = PropertyMatrix.from_graph(graph)
            subjects = sorted(graph.subjects()) + [EX.fresh_subject]
            properties = sorted(graph.properties()) + [EX.fresh_property, RDF.type]
            objects = [EX.o1, Literal("1"), EX.SortA]
            for step in range(12):
                triple = (
                    subjects[int(rng.integers(len(subjects)))],
                    properties[int(rng.integers(len(properties)))],
                    objects[int(rng.integers(len(objects)))],
                )
                if triple in graph:
                    delta = graph.remove_triples([triple])
                else:
                    delta = graph.add_triples([triple])
                before = matrix.data.copy()
                patched = matrix.apply_delta(graph, delta)
                context = f"seed={seed} step={step} triple={triple}"
                assert patched == PropertyMatrix.from_graph(graph), context
                assert np.array_equal(matrix.data, before), context
                same = (
                    patched.subjects == matrix.subjects
                    and patched.properties == matrix.properties
                )
                if same:
                    # The fast path shares the labels with the old matrix.
                    assert patched.subjects is matrix.subjects, context
                seen["same universe" if same else "universe changed"] += 1
                matrix = patched
        assert min(seen.values()) >= 50, seen

    def test_empty_delta_is_exact_noop(self):
        rng = np.random.default_rng(5)
        graph = random_graph(rng)
        matrix = PropertyMatrix.from_graph(graph)
        table = SignatureTable.from_matrix(matrix)
        delta = graph.remove_triples([(EX.ghost, EX.phantom, EX.nothing)]).merge(
            graph.add_triples([next(iter(graph))])
        )
        assert delta.is_empty
        assert matrix.apply_delta(graph, delta) == matrix
        assert table.apply_delta(matrix, delta) == table

    def test_apply_delta_requires_member_tracking(self):
        table = SignatureTable.from_counts([EX.p], {frozenset([EX.p]): 3})
        graph = RDFGraph()
        delta = graph.add_triples([(EX.s, EX.p, Literal("1"))])
        matrix = PropertyMatrix.from_graph(graph)
        with pytest.raises(Exception, match="member"):
            table.apply_delta(matrix, delta)


# --------------------------------------------------------------------- #
# Hypothesis: short delta sequences on a small typed graph
# --------------------------------------------------------------------- #
#: Signature sets {p0}: a b c, {p0, p1}: d e, {p1, p2}: f; everyone typed.
BASE_ROWS = {"a": ["p0"], "b": ["p0"], "c": ["p0"], "d": ["p0", "p1"], "e": ["p0", "p1"], "f": ["p1", "p2"]}
#: g and h are brand-new subjects, p3 a brand-new property.
DELTA_SUBJECTS = ["a", "c", "d", "f", "g", "h"]
DELTA_PROPERTIES = ["p0", "p1", "p2", "p3", "type"]


def _typed_graph() -> RDFGraph:
    graph = RDFGraph(name="typed")
    graph.add_triples(
        _triple(s, p) for s, props in BASE_ROWS.items() for p in props + ["type"]
    )
    return graph


def _triple(subject: str, prop: str) -> tuple:
    if prop == "type":
        return (EX[subject], RDF.type, EX.Person)
    return (EX[subject], EX[prop], Literal("v"))


def _apply(graph: RDFGraph, delta: list):
    add = [_triple(s, p) for op, s, p in delta if op == "add"]
    remove = [_triple(s, p) for op, s, p in delta if op == "remove"]
    return graph.remove_triples(remove).merge(graph.add_triples(add))


def assert_table_equals_from_matrix(table: SignatureTable, matrix: PropertyMatrix, context):
    rebuilt = SignatureTable.from_matrix(matrix)
    assert table.signatures == rebuilt.signatures, context
    assert table.properties == rebuilt.properties, context
    assert np.array_equal(table.count_vector(), rebuilt.count_vector()), context
    assert np.array_equal(table.support_matrix(), rebuilt.support_matrix()), context
    for signature in rebuilt.signatures:
        assert table.members_of(signature) == rebuilt.members_of(signature), context
    for subject in matrix.subjects:
        assert table.signature_of(subject) == rebuilt.signature_of(subject), context


_deltas = st.lists(
    st.lists(
        st.tuples(
            st.sampled_from(["add", "remove"]),
            st.sampled_from(DELTA_SUBJECTS),
            st.sampled_from(DELTA_PROPERTIES),
        ),
        min_size=1,
        max_size=4,
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=150, deadline=None)
@given(deltas=_deltas, relabelled=st.booleans())
# f loses p2: {p1, p2} empties and {p1} is a new signature.
@example(deltas=[[("remove", "f", "p2")]], relabelled=False)
# A brand-new subject, then a brand-new property on it.
@example(deltas=[[("add", "g", "p0")], [("add", "g", "p3")]], relabelled=False)
# f's last triples go: the subject leaves the matrix (and p2 the columns).
@example(deltas=[[("remove", "f", "p1"), ("remove", "f", "p2"), ("remove", "f", "type")]], relabelled=False)
# c joins {p0, p1}: the 3- and 2-member signatures swap places.
@example(deltas=[[("add", "c", "p1")], [("remove", "c", "p1")]], relabelled=True)
def test_delta_sequences_keep_the_patched_table_equal_to_from_matrix(deltas, relabelled):
    graph = _typed_graph()
    matrix = PropertyMatrix.from_graph(graph)
    table = SignatureTable.from_matrix(matrix)
    if relabelled:
        # A mapping-built table, members listed in reverse: its member
        # column is not matrix rows, so the first patch re-bases it by
        # label and sorts every block into row order.
        table = SignatureTable(
            table.properties,
            table.counts(),
            members={sig: table.members_of(sig)[::-1] for sig in table.signatures},
        )
    for step, delta in enumerate(deltas):
        graph_delta = _apply(graph, delta)
        matrix = matrix.apply_delta(graph, graph_delta)
        table = table.apply_delta(matrix, graph_delta)
        assert_table_equals_from_matrix(table, matrix, f"step={step} delta={delta}")


def test_the_named_cases_happen():
    """The explicit examples above reach the cases they are named for."""
    graph = _typed_graph()
    matrix = PropertyMatrix.from_graph(graph)
    table = SignatureTable.from_matrix(matrix)
    before = table.signatures

    delta = _apply(graph, [("add", "c", "p1")])
    matrix = matrix.apply_delta(graph, delta)
    swapped = table.apply_delta(matrix, delta)
    assert swapped.signatures[:2] == (before[1], before[0])

    delta = _apply(graph, [("remove", "f", p) for p in ("p1", "p2", "type")])
    matrix = matrix.apply_delta(graph, delta)
    emptied = swapped.apply_delta(matrix, delta)
    assert frozenset([EX.p1, EX.p2]) not in emptied and not matrix.has_subject(EX.f)

    delta = _apply(graph, [("add", "g", "p3")])
    matrix = matrix.apply_delta(graph, delta)
    created = emptied.apply_delta(matrix, delta)
    assert created.signature_of(EX.g) == frozenset([EX.p3])
    assert frozenset([EX.p3]) not in emptied


class TestTogglePatchesInPlace:
    """A one-triple toggle moves one subject: no member is re-coerced or regrouped."""

    def _toggle(self, dataset: Dataset, monkeypatch, new_property: bool) -> list:
        matrix = dataset.matrix
        if new_property:
            # The property universe changes on every toggle.
            triple = (matrix.subjects[len(matrix.subjects) // 2], EX.toggled, Literal("1"))
        else:
            # No label enters or leaves: the steady state of a served toggle.
            row, column = np.argwhere(~matrix.data)[len(matrix.subjects) // 2]
            triple = (matrix.subjects[row], matrix.properties[column], Literal("1"))
        dataset.mutate(add=[triple])  # warm-up: index build and any one-off re-base
        dataset.mutate(remove=[triple])
        calls = []
        real_coerce = signatures_module.coerce_uri

        def counting_coerce(value):
            calls.append(value)
            return real_coerce(value)

        def no_init(self, *args, **kwargs):
            raise AssertionError("a toggle must not go through SignatureTable.__init__")

        monkeypatch.setattr(signatures_module, "coerce_uri", counting_coerce)
        monkeypatch.setattr(SignatureTable, "__init__", no_init)
        for _ in range(2):
            dataset.mutate(add=[triple])
            dataset.mutate(remove=[triple])
        monkeypatch.undo()
        assert dataset.stats["table_patches"] == 6
        return calls

    @pytest.mark.parametrize("new_property", [False, True])
    def test_a_toggle_calls_neither_init_nor_coerce_uri(self, monkeypatch, new_property):
        from repro.datasets import dbpedia_persons_graph

        graph = dbpedia_persons_graph(n_subjects=300, seed=3)
        dataset = Dataset.from_graph(graph, name="toggle")
        dataset.table
        assert self._toggle(dataset, monkeypatch, new_property) == []
        fresh = Dataset.from_graph(RDFGraph(list(dataset.graph)))
        assert_table_equals_from_matrix(dataset.table, fresh.matrix, "after toggles")

    def test_a_snapshot_loaded_table_patches_in_place_after_the_first_mutation(
        self, monkeypatch, tmp_path
    ):
        from repro.datasets import dbpedia_persons_graph

        graph = dbpedia_persons_graph(n_subjects=300, seed=3)
        Dataset.from_graph(graph, name="toggle").save(tmp_path / "snap")
        dataset = Dataset.load(tmp_path / "snap")
        dataset.table
        assert self._toggle(dataset, monkeypatch, new_property=False) == []
        assert_table_equals_from_matrix(dataset.table, dataset.matrix, "after toggles")


class TestDatasetMutationDifferential:
    """The facade-level contract: mutate == rebuild, with exact invalidation."""

    def test_mutated_dataset_equals_fresh_dataset(self):
        for seed in range(N_SCENARIOS // 5):
            rng = np.random.default_rng(321_000 + seed)
            graph = random_graph(rng)
            dataset = Dataset.from_graph(graph, name="differential")
            table_before = dataset.table  # force the full chain
            add, remove = random_delta(rng, graph, "mixed")
            result = dataset.mutate(add=add, remove=remove)
            fresh = Dataset.from_graph(RDFGraph(list(graph), name="differential"))
            assert dataset.table == fresh.table, f"seed={seed}"
            assert dataset.matrix == fresh.matrix, f"seed={seed}"
            if not result.added and not result.removed:
                assert result.generation == 0
                assert dataset.table is table_before
            else:
                assert result.generation == 1
                assert dataset.stats["matrix_patches"] == 1
                assert dataset.stats["table_patches"] == 1
                assert dataset.stats["table_builds"] == 1  # never rebuilt
            assert result.n_triples == len(graph)
            assert result.n_subjects == graph.n_subjects

    def test_unbuilt_stages_are_not_forced_by_mutation(self):
        rng = np.random.default_rng(9)
        graph = random_graph(rng)
        dataset = Dataset.from_graph(graph)
        add, remove = random_delta(rng, graph, "mixed")
        dataset.mutate(add=add, remove=remove)
        # Nothing downstream was built, so nothing was patched or rebuilt.
        assert dataset.stats["matrix_builds"] == 0
        assert dataset.stats["table_builds"] == 0
        assert dataset.stats["matrix_patches"] == 0
        fresh = Dataset.from_graph(RDFGraph(list(graph)))
        assert dataset.table == fresh.table

    def test_session_caches_invalidate_exactly_on_mutation(self):
        rng = np.random.default_rng(11)
        graph = random_graph(rng)
        dataset = Dataset.from_graph(graph, name="differential")
        session = dataset.session()
        before = session.evaluate("Cov", exact=True)
        assert session.evaluate("Cov", exact=True) is before  # cache hit
        assert session.stats["result_cache_hits"] == 1

        # A no-op mutation keeps the cache (generation unchanged).
        present = next(iter(graph))
        noop = session.mutate(add=[present])
        assert noop.generation == 0 and noop.added == 0
        assert session.evaluate("Cov", exact=True) is before
        assert session.stats["cache_invalidations"] == 0

        # A real mutation invalidates it and the new answer matches a
        # fresh session over the final graph, exactly.
        result = session.mutate(
            add=[(EX.brand_new, EX.p0, Literal("1"))],
            remove=list(graph.triples_for_subject(sorted(graph.subjects())[0])),
        )
        assert result.generation == 1
        after = session.evaluate("Cov", exact=True)
        assert session.stats["cache_invalidations"] == 1
        fresh = Dataset.from_graph(RDFGraph(list(graph), name="differential")).session()
        assert after.exact == fresh.evaluate("Cov", exact=True).exact

    def test_sweep_never_mixes_generations_under_concurrent_mutation(self, monkeypatch):
        """A mutation landing mid-sweep (from a sibling session) must not
        tear the result: every entry and the result's DatasetInfo describe
        the table snapshot taken at query start (regression: the k=1 entry
        used to search the old table while DatasetInfo re-read the new)."""
        import repro.api.session as session_module

        dataset = Dataset.from_ntriples_text(
            '<http://ex/a> <http://ex/p> "1" .\n<http://ex/b> <http://ex/q> "2" .\n'
        )
        session = dataset.session()
        subjects_before = dataset.table.n_subjects
        real_search = session_module.highest_theta_refinement
        fired = []

        def mutate_mid_sweep(table, *args, **kwargs):
            if not fired:
                fired.append(True)
                dataset.mutate(add=[(EX.late, EX.p, Literal("3"))])
            return real_search(table, *args, **kwargs)

        monkeypatch.setattr(session_module, "highest_theta_refinement", mutate_mid_sweep)
        result = session.sweep("Cov", k_values=(1, 2), step="1/2")
        infos = {entry.dataset for entry in result.entries} | {result.dataset}
        assert len(infos) == 1  # one generation throughout
        assert result.dataset.n_subjects == subjects_before
        # The next query sees the mutation (cache invalidated, new table).
        assert session.evaluate("Cov").dataset.n_subjects == subjects_before + 1

    def test_sibling_sessions_see_the_mutation(self):
        dataset = Dataset.from_ntriples_text(
            '<http://ex/a> <http://ex/p> "1" .\n<http://ex/b> <http://ex/q> "2" .\n'
        )
        reader = dataset.session()
        writer = dataset.session()
        stale = reader.evaluate("Cov", exact=True)
        writer.mutate(add=[("http://ex/b", "http://ex/p", Literal("3"))])
        updated = reader.evaluate("Cov", exact=True)
        assert updated.exact != stale.exact
        assert reader.stats["cache_invalidations"] == 1

    def test_with_sort_views_are_timing_independent_snapshots(self):
        """Derived handles snapshot at derivation time: whether their
        chain was built before or after a parent mutation must not change
        their contents (regression: a lazy factory over the live parent
        graph made identically-derived views diverge)."""
        nt = (
            '<http://ex/a> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/T> .\n'
            '<http://ex/a> <http://ex/p> "1" .\n'
            '<http://ex/b> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/T> .\n'
            '<http://ex/b> <http://ex/q> "2" .\n'
        )
        parent = Dataset.from_ntriples_text(nt, name="parent")
        early = parent.with_sort("http://ex/T")
        late = parent.with_sort("http://ex/T")
        early.table  # built before the parent mutates
        parent.mutate(add=[("http://ex/a", "http://ex/r", Literal("3"))])
        assert early.table == late.table  # access timing is irrelevant
        # The parent itself did move.
        assert parent.generation == 1
        assert parent.table != early.table

    def test_mutating_a_table_born_dataset_is_an_error(self, toy_persons_table):
        from repro.exceptions import DatasetError

        dataset = Dataset.from_table(toy_persons_table)
        with pytest.raises(DatasetError, match="without an RDF graph"):
            dataset.mutate(add=[(EX.s, EX.p, Literal("1"))])

    def test_patch_failure_degrades_to_rebuild_not_error(self, monkeypatch):
        """A validated mutation is *total*: even if an incremental patch
        blows up (a bug, memory pressure), the mutation reports success,
        the stale chain is dropped, and the next access rebuilds from the
        mutated graph — distributed callers replaying a mutation log must
        never see an applied mutation fail."""
        dataset = Dataset.from_ntriples_text(
            '<http://ex/a> <http://ex/p> "1" .\n<http://ex/b> <http://ex/q> "2" .\n'
        )
        dataset.table  # build the chain so there is something to patch
        monkeypatch.setattr(
            PropertyMatrix, "apply_delta", lambda *a, **k: (_ for _ in ()).throw(MemoryError())
        )
        result = dataset.mutate(add=[(EX.c, EX.p, Literal("3"))])
        assert result.generation == 1 and result.added == 1
        assert dataset.stats["patch_failures"] == 1
        monkeypatch.undo()
        fresh = Dataset.from_graph(RDFGraph(list(dataset.graph)))
        assert dataset.table == fresh.table  # rebuilt, not stale
        assert dataset.stats["table_builds"] == 2

    def test_mutation_is_atomic_under_invalid_triples(self):
        """A request with any ill-typed triple is rejected up front —
        nothing is applied, the generation does not move, and cached
        results stay live (regression: a half-applied mutation used to
        leave the graph and the cached table silently inconsistent)."""
        from repro.exceptions import RequestError

        dataset = Dataset.from_ntriples_text('<http://ex/a> <http://ex/p> "1" .\n')
        session = dataset.session()
        before = session.evaluate("Cov", exact=True)
        bad = Triple(URI("http://ex/ok"), Literal("not-a-predicate"), Literal("1"))
        with pytest.raises(RequestError, match="literal"):
            dataset.mutate(add=[("http://ex/fine", "http://ex/p", Literal("2")), bad])
        assert dataset.generation == 0
        assert not dataset.graph.has_subject("http://ex/fine")  # nothing applied
        assert session.evaluate("Cov", exact=True) is before  # cache intact

    def test_mutation_accepts_triples_and_wire_spellings(self):
        dataset = Dataset.from_ntriples_text('<http://ex/a> <http://ex/p> "1" .\n')
        graph = dataset.graph
        dataset.mutate(
            add=[
                Triple.create("http://ex/b", "http://ex/p", Literal("2")),
                ("<http://ex/c>", "<http://ex/p>", '"3"'),
            ]
        )
        assert graph.has_subject("http://ex/b") and graph.has_subject("http://ex/c")
        assert ("http://ex/c", "http://ex/p", Literal("3")) in graph
