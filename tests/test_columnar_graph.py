"""Differential tests: a column-backed ``RDFGraph`` against the same graph indexed.

``load_ntriples``, ``parse_ntriples`` and ``Snapshot.load_graph`` return a
graph backed by one ``(n, 3) int32`` array of distinct ID triples, which
answers the accessors a build reads (``len``, ``S(D)``, ``P(D)``, the
``M(D)`` coordinates, the ID-triple array and ``D_t``) without building the
SPO/POS/OSP hash indexes.  Every such answer must equal what the indexed
form of the same graph gives, on a Persons file and on an edge-case file
(BOM, CRLF, lone CR, escapes, language tags, datatypes, comments, a URI
with a space, repeated triples).  Snapshot segments must be identical
except ``graph_triples``, whose row order is free; query payloads must
agree after a mutation.  The indexed side iterates sets, so CI runs this
file under two hash seeds.
"""

from __future__ import annotations

import contextlib
import gc
import json
from pathlib import Path

import numpy as np
import pytest

from repro import telemetry as telemetry_module
from repro.api import Dataset
from repro.api.dataset import _mmap_backed
from repro.datasets import dbpedia_persons_graph
from repro.exceptions import RDFError
from repro.matrix.property_matrix import PropertyMatrix
from repro.matrix.signatures import SignatureTable
from repro.rdf.graph import RDFGraph
from repro.rdf.ntriples import load_ntriples, parse_ntriples
from repro.rdf.terms import Triple
from repro.service.wire import strip_timing
from repro.storage.snapshots import encode_chain, open_snapshot
from repro.telemetry import Telemetry, enable

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

#: BOM, CRLF and lone-CR line ends, escapes, tags, datatypes, comments, a
#: URI with a space, a repeated triple, a multi-valued (s, p) pair and a
#: subject first seen as an object (so ID order differs from file order).
EDGE_NTRIPLES = (
    f"\ufeff<http://e/s1> <{RDF_TYPE}> <http://e/T> .\r\n"
    '<http://e/s1> <http://e/p> "plain" .\r\n'
    '<http://e/s1> <http://e/p> "esc \\"q\\" \\n\\t" .\r'
    '<http://e/s2> <http://e/p> "42"^^<http://www.w3.org/2001/XMLSchema#int> .\n'
    '<http://e/s2> <http://e/q> "chat"@en-GB .\n'
    "# a comment line\n"
    "\n"
    "<http://e/a space> <http://e/p> <http://e/o> . # trailing comment\n"
    f"<http://e/s2> <{RDF_TYPE}> <http://e/T> .\n"
    '<http://e/s1> <http://e/p> "plain" .\n'
    "<http://e/o> <http://e/r> <http://e/s1> .\n"
    f"<http://e/o> <{RDF_TYPE}> <http://e/U> .\n"
    '<http://e/s3> <http://e/p> "\\\\" .\n'
    f"<http://e/s3> <{RDF_TYPE}> <http://e/U> .\n"
    f"<http://e/s3> <{RDF_TYPE}> <http://e/T> .\n"
)


@pytest.fixture(scope="module", params=["persons", "edge"])
def source(request, tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("columnar") / f"{request.param}.nt"
    if request.param == "persons":
        graph = dbpedia_persons_graph(n_subjects=600, seed=5)
        path.write_text("".join(triple.n3() + "\n" for triple in graph), encoding="utf-8")
    else:
        path.write_bytes(EDGE_NTRIPLES.encode("utf-8"))
    return path


def _indexed(path: Path) -> RDFGraph:
    graph = load_ntriples(path)
    graph._index()
    assert graph._columns is None
    return graph


def _row_set(ids: np.ndarray) -> set:
    return set(map(tuple, np.asarray(ids).tolist()))


def _decoded(graph: RDFGraph) -> set:
    term = graph.term_dictionary.term_of
    return {
        Triple(term(s), term(p), term(o)) for s, p, o in graph.triple_ids().tolist()
    }


def _sorts_to_try(graph: RDFGraph) -> list:
    return sorted(graph.all_sorts(), key=str) + ["http://e/not-a-sort", "http://e/o"]


# --------------------------------------------------------------------- #
# Column-answered accessors
# --------------------------------------------------------------------- #
def test_parsed_graph_is_column_backed_sorted_and_distinct(source):
    graph = load_ntriples(source)
    ids = graph.triple_ids()
    assert graph._columns is not None and ids.dtype == np.int32 and ids.shape[1] == 3
    assert not ids.flags.writeable
    order = np.lexsort((ids[:, 2], ids[:, 1], ids[:, 0]))
    np.testing.assert_array_equal(order, np.arange(len(ids)))
    assert len(_row_set(ids)) == len(ids) == len(graph)
    text_graph = parse_ntriples(source.read_text(encoding="utf-8-sig"))
    np.testing.assert_array_equal(text_graph.triple_ids(), ids)


def _shuffled(path: Path) -> RDFGraph:
    """The parsed graph over its rows in a random order, like an out-of-core segment."""
    graph = load_ntriples(path)
    rows = graph.triple_ids()[np.random.default_rng(3).permutation(len(graph))]
    return RDFGraph.from_triple_ids(rows, graph.term_dictionary, graph.name)


@pytest.mark.parametrize("row_order", ["sorted", "shuffled"])
def test_column_answered_accessors_equal_the_indexed_graph(source, row_order):
    columnar = load_ntriples(source) if row_order == "sorted" else _shuffled(source)
    indexed = _indexed(source)
    assert list(columnar.term_dictionary) == list(indexed.term_dictionary)
    assert len(columnar) == len(indexed) and bool(columnar) == bool(indexed)
    assert columnar.n_subjects == indexed.n_subjects
    assert columnar.subjects() == indexed.subjects()
    for exclude_type in (False, True):
        assert columnar.properties(exclude_type) == indexed.properties(exclude_type)
        col_pairs = columnar.subject_property_ids(exclude_type=exclude_type)
        idx_pairs = indexed.subject_property_ids(exclude_type=exclude_type)
        assert all(a.dtype == np.int32 for a in col_pairs)
        assert len(col_pairs[0]) == len(idx_pairs[0])
        assert set(zip(*map(np.ndarray.tolist, col_pairs))) == set(
            zip(*map(np.ndarray.tolist, idx_pairs))
        )
    assert _row_set(columnar.triple_ids()) == _row_set(indexed.triple_ids())
    assert _decoded(columnar) == set(indexed)
    assert PropertyMatrix.from_graph(columnar) == PropertyMatrix.from_graph(indexed)
    np.testing.assert_array_equal(
        PropertyMatrix.from_graph(columnar).data, PropertyMatrix.from_graph(indexed).data
    )
    # None of the above needed the hash indexes.
    assert columnar._columns is not None


@pytest.mark.parametrize("row_order", ["sorted", "shuffled"])
def test_sort_subgraph_filters_the_columns(source, row_order):
    columnar = load_ntriples(source) if row_order == "sorted" else _shuffled(source)
    indexed = _indexed(source)
    for sort in _sorts_to_try(indexed):
        col_sub, idx_sub = columnar.sort_subgraph(sort), indexed.sort_subgraph(sort)
        assert col_sub._columns is not None
        assert col_sub.term_dictionary is columnar.term_dictionary
        assert col_sub.name == idx_sub.name
        assert len(col_sub) == len(idx_sub) and col_sub.n_subjects == idx_sub.n_subjects
        assert _decoded(col_sub) == set(idx_sub)
        assert col_sub.subjects() == idx_sub.subjects()
        assert col_sub.properties() == idx_sub.properties()
        if len(idx_sub):
            assert PropertyMatrix.from_graph(col_sub) == PropertyMatrix.from_graph(idx_sub)
    assert columnar._columns is not None


@pytest.mark.parametrize("parent_form", ["columnar", "indexed"])
def test_with_sort_detaches_the_subgraph_onto_its_own_terms(source, parent_form):
    parent = Dataset.from_ntriples(source)
    if parent_form == "indexed":
        parent.graph._index()
    for sort in _sorts_to_try(_indexed(source)):
        # The triple-by-triple copy the detached graph replaces.
        reference = RDFGraph(list(parent.graph.sort_subgraph(sort)))
        for handle in (parent.with_sort(sort), Dataset.from_graph(parent.graph, sort=sort)):
            graph = handle.graph
            assert graph._columns is not None
            assert graph.term_dictionary is not parent.graph.term_dictionary
            assert len(graph.term_dictionary) == len(reference.term_dictionary)
            assert set(graph.term_dictionary) == set(reference.term_dictionary)
            assert _decoded(graph) == set(reference) and len(graph) == len(reference)
            if parent_form == "columnar":
                ids = graph.triple_ids()
                order = np.lexsort((ids[:, 2], ids[:, 1], ids[:, 0]))
                np.testing.assert_array_equal(order, np.arange(len(ids)))
            if len(reference):
                assert handle.table == Dataset.from_ntriples(source, sort=sort).table
    # Detaching reads the parent's columns without indexing them.
    assert (parent.graph._columns is not None) == (parent_form == "columnar")


#: No ``rdf:type`` triple, though the type URI is interned (as an object).
UNTYPED_NTRIPLES = (
    '<http://e/a> <http://e/p> "1" .\n'
    "<http://e/b> <http://e/q> <http://e/a> .\n"
    f"<http://e/b> <http://e/r> <{RDF_TYPE}> .\n"
)


@pytest.mark.parametrize("row_order", ["sorted", "shuffled"])
def test_sorts_and_describe_answer_from_the_columns(source, row_order):
    columnar = load_ntriples(source) if row_order == "sorted" else _shuffled(source)
    indexed = _indexed(source)
    assert columnar.all_sorts() == indexed.all_sorts()
    assert columnar.describe() == indexed.describe()
    assert columnar._columns is not None


def test_untyped_graph_sorts_and_describe_answer_from_the_columns(tmp_path):
    path = tmp_path / "untyped.nt"
    path.write_text(UNTYPED_NTRIPLES, encoding="utf-8")
    columnar, indexed = load_ntriples(path), _indexed(path)
    assert columnar.all_sorts() == indexed.all_sorts() == set()
    assert columnar.describe() == indexed.describe()
    assert columnar.describe()["sorts"] == 0
    assert columnar._columns is not None


def test_pattern_iteration_and_set_operations_match_after_the_index_build(source):
    columnar, indexed = load_ntriples(source), _indexed(source)
    assert set(columnar) == set(indexed)  # iteration builds the indexes
    assert columnar._columns is None
    assert columnar == indexed
    some = next(iter(indexed))
    assert some in columnar
    assert set(columnar.triples(subject=some.subject)) == set(indexed.triples(subject=some.subject))
    assert columnar.all_sorts() == indexed.all_sorts()
    assert columnar.describe() == indexed.describe()


def test_from_triple_ids_checks_its_array():
    dictionary = parse_ntriples(EDGE_NTRIPLES).term_dictionary
    for bad in (np.zeros((2, 3), dtype=np.int64), np.zeros((2, 2), dtype=np.int32)):
        with pytest.raises(RDFError, match="int32"):
            RDFGraph.from_triple_ids(bad, dictionary)
    empty = RDFGraph.from_triple_ids(np.zeros((0, 3), dtype=np.int32), dictionary)
    assert len(empty) == 0 and empty.n_subjects == 0 and not empty
    assert empty.sort_subgraph("http://e/T").triple_ids().shape == (0, 3)
    assert list(empty) == []


def test_copy_shares_the_columns_and_indexes_independently(source):
    graph = load_ntriples(source)
    clone = graph.copy(name="clone")
    assert clone._columns is not None and clone.name == "clone"
    assert np.shares_memory(clone.triple_ids(), graph.triple_ids())
    some = next(iter(clone))
    assert clone.remove(some)
    assert len(clone) == len(graph) - 1 and graph._columns is not None
    assert some in graph


# --------------------------------------------------------------------- #
# Snapshot segments and payloads
# --------------------------------------------------------------------- #
def _encoded(graph: RDFGraph) -> dict:
    matrix = PropertyMatrix.from_graph(graph)
    return encode_chain(graph, matrix, SignatureTable.from_matrix(matrix)).arrays


@pytest.mark.parametrize("with_sort", [False, True])
def test_encode_chain_segments_equal_the_indexed_graph(source, with_sort):
    columnar, indexed = load_ntriples(source), _indexed(source)
    pairs = [(columnar, indexed)]
    if with_sort:
        pairs = [(columnar.sort_subgraph(t), indexed.sort_subgraph(t)) for t in indexed.all_sorts()]
    for col_graph, idx_graph in pairs:
        col_arrays, idx_arrays = _encoded(col_graph), _encoded(idx_graph)
        assert set(col_arrays) == set(idx_arrays)
        for name, array in col_arrays.items():
            other = idx_arrays[name]
            assert array.dtype == other.dtype and array.shape == other.shape, name
            if name == "graph_triples":
                assert _row_set(array) == _row_set(other)
            else:
                assert array.tobytes() == other.tobytes(), name


def _payloads(dataset: Dataset) -> str:
    session = dataset.session()
    try:
        payloads = [
            strip_timing(session.evaluate(rule).to_dict()) for rule in ("Cov", "Sim")
        ]
    finally:
        session.close()
    return json.dumps(payloads, sort_keys=True)


def test_payloads_agree_after_an_add_and_remove_mutation(source):
    handles = []
    for force_index in (False, True):
        dataset = Dataset.from_ntriples(source)
        if force_index:
            dataset.graph._index()
        dataset.table
        victim = min(dataset.graph, key=lambda triple: triple.n3())
        dataset.mutate(
            remove=[victim], add=[("http://e/new", "http://e/p", '"fresh"')]
        )
        handles.append(dataset)
    columnar, indexed = handles
    assert columnar.graph == indexed.graph
    assert columnar.matrix == indexed.matrix and columnar.table == indexed.table
    assert _payloads(columnar) == _payloads(indexed)
    rebuilt = Dataset.from_graph(RDFGraph(list(indexed.graph)), name=indexed.name)
    assert _payloads(rebuilt) == _payloads(indexed)


def test_snapshot_load_graph_wraps_the_mapped_segment(source, tmp_path):
    parsed = Dataset.from_ntriples(source)
    parsed.save(tmp_path / "snap")
    snapshot = open_snapshot(tmp_path / "snap", mmap=True)
    loaded = snapshot.load_graph()
    assert loaded._columns is not None
    assert _mmap_backed(loaded.triple_ids())
    assert list(loaded.term_dictionary) == list(parsed.graph.term_dictionary)
    np.testing.assert_array_equal(loaded.triple_ids(), parsed.graph.triple_ids())
    assert loaded.subjects() == parsed.graph.subjects()
    assert set(loaded) == _decoded(parsed.graph)


# --------------------------------------------------------------------- #
# The index build: collector pause and span
# --------------------------------------------------------------------- #
class _ExplodingColumns:
    def tolist(self):
        raise RuntimeError("boom")


@pytest.mark.parametrize("collector_on", [True, False])
def test_index_build_restores_the_collector_state(collector_on):
    was_enabled = gc.isenabled()
    try:
        (gc.enable if collector_on else gc.disable)()
        graph = parse_ntriples(EDGE_NTRIPLES)
        graph._index()
        assert graph._columns is None and len(graph._spo) == graph.n_subjects
        assert gc.isenabled() is collector_on

        failing = parse_ntriples(EDGE_NTRIPLES)
        failing._columns = _ExplodingColumns()
        with pytest.raises(RuntimeError, match="boom"):
            failing._index()
        assert gc.isenabled() is collector_on
        assert isinstance(failing._columns, _ExplodingColumns)  # nothing half-assigned
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.fixture
def spine(monkeypatch):
    monkeypatch.setattr(telemetry_module, "_active", None)
    yield enable(Telemetry())
    monkeypatch.setattr(telemetry_module, "_active", None)


def _index_spans(spine: Telemetry) -> int:
    return spine.snapshot()["spans"].get("rdf.graph_index", {}).get("count", 0)


def test_build_and_save_record_no_index_span_and_first_mutate_one(spine, tmp_path):
    dataset = Dataset.from_ntriples_text(EDGE_NTRIPLES, name="spans")
    dataset.table
    dataset.save(tmp_path / "snap")
    assert _index_spans(spine) == 0
    assert dataset.stats["graph_builds"] == 1
    dataset.mutate(add=[("http://e/new", "http://e/p", '"1"')])
    assert _index_spans(spine) == 1
    dataset.mutate(remove=[("http://e/new", "http://e/p", '"1"')])
    assert _index_spans(spine) == 1

    loaded = Dataset.load(tmp_path / "snap")
    loaded.graph
    assert _index_spans(spine) == 1
    loaded.mutate(add=[("http://e/new", "http://e/p", '"1"')])
    assert _index_spans(spine) == 2


def test_first_mutate_records_the_index_build_under_graph_delta(spine, monkeypatch, tmp_path):
    """The one-off index build is attributed to the graph half of a mutation."""
    Dataset.from_ntriples_text(EDGE_NTRIPLES, name="spans").save(tmp_path / "snap")
    dataset = Dataset.load(tmp_path / "snap")
    dataset.table
    open_spans, enclosing = [], []
    record = spine.span

    @contextlib.contextmanager
    def tracked(name):
        if name == "rdf.graph_index":
            enclosing.append(list(open_spans))
        open_spans.append(name)
        try:
            with record(name):
                yield
        finally:
            open_spans.pop()

    monkeypatch.setattr(spine, "span", tracked)
    for _ in range(2):
        dataset.mutate(add=[("http://e/new", "http://e/p", '"1"')])
        dataset.mutate(remove=[("http://e/new", "http://e/p", '"1"')])
    assert enclosing == [["dataset.mutate", "dataset.graph_delta"]]
    spans = spine.snapshot()["spans"]
    assert spans["dataset.graph_delta"]["count"] == spans["dataset.mutate"]["count"] == 4


def test_sorted_build_and_save_record_no_index_span(spine, source, tmp_path):
    dataset = Dataset.from_ntriples(source, sort="http://e/T")
    dataset.table
    dataset.save(tmp_path / "snap")
    assert _index_spans(spine) == 0
