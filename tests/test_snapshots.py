"""Snapshot persistence: round-trip bit-identity, strict corruption handling,
and inline/pooled parity for snapshot-backed service datasets.

The acceptance property mirrors how PR 4 proved mutations: a loaded
dataset must be indistinguishable from the freshly built one *at the byte
level* — same packed support bitsets, count vectors, matrix cells, member
tuples, and same wire payloads for every query — inline and through the
worker pool.  Corruption never degrades to a partial load: truncation,
checksum drift, bad magic and future format versions each raise a
structured :class:`~repro.exceptions.SnapshotError`.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.api import Dataset
from repro.exceptions import SnapshotError
from repro.service.executor import InlineExecutor, create_executor
from repro.service.registry import DatasetRegistry, DatasetSpec
from repro.service.server import StructurednessService
from repro.service.wire import strip_timing
from repro.storage.snapshots import (
    MANIFEST_NAME,
    SNAPSHOT_VERSION,
    _canonical_manifest_bytes,
    inspect_snapshot,
    open_snapshot,
    write_snapshot,
)

NTRIPLES = """
<http://ex/alice> <http://ex/name> "Alice" .
<http://ex/alice> <http://ex/mail> "a@ex" .
<http://ex/alice> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Person> .
<http://ex/bob> <http://ex/name> "Bob" .
<http://ex/bob> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Person> .
<http://ex/carol> <http://ex/name> "Carol" .
<http://ex/carol> <http://ex/mail> "c@ex" .
<http://ex/carol> <http://ex/page> <http://ex/carol.html> .
"""

#: Small parameterisations of every builtin generator (the acceptance set).
BUILTIN_SPECS = [
    ("dbpedia-persons", {"n_subjects": 300}),
    ("wordnet-nouns", {"n_subjects": 300}),
    (
        "mixed-drug-sultans",
        {"n_drug_companies": 120, "n_sultans": 40, "max_signatures_per_sort": 6},
    ),
]


def assert_tables_bit_identical(actual, expected):
    """Byte-for-byte equality of two signature tables (not just ``==``)."""
    assert actual == expected
    assert actual.signatures == expected.signatures
    assert actual.properties == expected.properties
    assert actual.packed_support_matrix().tobytes() == expected.packed_support_matrix().tobytes()
    assert actual.count_vector().tobytes() == expected.count_vector().tobytes()
    assert actual.has_members == expected.has_members
    if expected.has_members:
        for signature in expected.signatures:
            assert actual.members_of(signature) == expected.members_of(signature)


def assert_matrices_bit_identical(actual, expected):
    assert actual == expected
    assert actual.subjects == expected.subjects
    assert actual.properties == expected.properties
    assert actual.data.tobytes() == expected.data.tobytes()


class TestRoundTrip:
    @pytest.mark.parametrize("name,params", BUILTIN_SPECS, ids=[n for n, _ in BUILTIN_SPECS])
    def test_builtin_tables_round_trip_bit_identical(self, tmp_path, name, params):
        dataset = Dataset.builtin(name, **params)
        fresh = dataset.table
        info = dataset.save(tmp_path / name)
        assert info.stages == ("table",)
        loaded = Dataset.load(tmp_path / name)
        assert_tables_bit_identical(loaded.table, fresh)
        assert loaded.name == dataset.name

    def test_graph_born_chain_round_trips_bit_identical(self, tmp_path):
        dataset = Dataset.from_ntriples_text(NTRIPLES, name="people")
        fresh_table = dataset.table
        info = dataset.save(tmp_path / "people")
        assert info.stages == ("graph", "matrix", "table")
        loaded = Dataset.load(tmp_path / "people")
        assert_matrices_bit_identical(loaded.matrix, dataset.matrix)
        assert_tables_bit_identical(loaded.table, fresh_table)
        assert loaded.graph == dataset.graph

    def test_loaded_stats_report_disk_stages_and_lazy_graph(self, tmp_path):
        dataset = Dataset.from_ntriples_text(NTRIPLES, name="people")
        dataset.save(tmp_path / "people")
        loaded = Dataset.load(tmp_path / "people")
        assert loaded.stats["graph_from_snapshot"] == 1
        assert loaded.stats["matrix_from_snapshot"] == 1
        assert loaded.stats["table_from_snapshot"] == 1
        # The graph is restored lazily: nothing is replayed until asked for.
        assert loaded.stats["graph_builds"] == 0
        assert loaded.graph == dataset.graph
        assert loaded.stats["graph_builds"] == 1
        assert loaded.snapshot_provenance == {
            "path": str(tmp_path / "people"),
            "format_version": SNAPSHOT_VERSION,
        }

    def test_query_payloads_bit_identical_fresh_vs_loaded(self, tmp_path):
        fresh = Dataset.from_ntriples_text(NTRIPLES, name="people")
        fresh.save(tmp_path / "people")
        loaded = Dataset.load(tmp_path / "people")
        fresh_session, loaded_session = fresh.session(), loaded.session()
        for run in (
            lambda s: s.evaluate("Cov"),
            lambda s: s.evaluate("Sim"),
            lambda s: s.refine("Cov", k=2, step="1/4"),
            lambda s: s.lowest_k("Cov", theta="1/2"),
            lambda s: s.sweep("Cov", k_values=(2, 3), step="1/4"),
        ):
            expected = strip_timing(run(fresh_session).to_dict())
            actual = strip_timing(run(loaded_session).to_dict())
            assert actual == expected

    def test_matrix_born_dataset_round_trips(self, tmp_path):
        source = Dataset.from_ntriples_text(NTRIPLES, name="people")
        dataset = Dataset.from_matrix(source.matrix, name="people-matrix")
        info = dataset.save(tmp_path / "matrix-only")
        assert info.stages == ("matrix", "table")
        loaded = Dataset.load(tmp_path / "matrix-only")
        assert_matrices_bit_identical(loaded.matrix, source.matrix)
        assert_tables_bit_identical(loaded.table, dataset.table)

    def test_empty_graph_round_trips(self, tmp_path):
        dataset = Dataset.from_ntriples_text("", name="empty")
        dataset.save(tmp_path / "empty")
        loaded = Dataset.load(tmp_path / "empty")
        assert len(loaded.graph) == 0
        assert loaded.table.n_signatures == 0

    def test_save_refuses_to_clobber_without_overwrite(self, tmp_path):
        dataset = Dataset.from_ntriples_text(NTRIPLES, name="people")
        dataset.save(tmp_path / "snap")
        with pytest.raises(SnapshotError, match="already exists"):
            dataset.save(tmp_path / "snap")
        dataset.save(tmp_path / "snap", overwrite=True)
        assert_tables_bit_identical(Dataset.load(tmp_path / "snap").table, dataset.table)
        # No staging or aside directories may survive any of the above.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["snap"]

    def test_save_onto_existing_path_refuses_before_building(self, tmp_path):
        Dataset.from_ntriples_text(NTRIPLES, name="people").save(tmp_path / "snap")
        lazy = Dataset.from_ntriples_text(NTRIPLES, name="people")
        with pytest.raises(SnapshotError, match="already exists"):
            lazy.save(tmp_path / "snap")
        # The refusal must be instant: nothing was parsed or built.
        assert lazy.stats["graph_builds"] == 0 and lazy.stats["table_builds"] == 0

    def test_concurrent_saves_to_one_path_leave_a_complete_snapshot(self, tmp_path):
        from concurrent.futures import ThreadPoolExecutor

        dataset = Dataset.from_ntriples_text(NTRIPLES, name="people")
        dataset.save(tmp_path / "snap")
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(
                pool.map(
                    lambda _: dataset.save(tmp_path / "snap", overwrite=True), range(8)
                )
            )
        assert_tables_bit_identical(Dataset.load(tmp_path / "snap").table, dataset.table)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["snap"]

    def test_save_refuses_to_overwrite_a_non_snapshot_directory(self, tmp_path):
        victim = tmp_path / "precious"
        victim.mkdir()
        (victim / "data.txt").write_text("not a snapshot")
        dataset = Dataset.from_ntriples_text(NTRIPLES, name="people")
        with pytest.raises(SnapshotError, match="not a snapshot directory"):
            dataset.save(victim, overwrite=True)
        assert (victim / "data.txt").exists()

    def test_no_verify_and_no_mmap_load_identically(self, tmp_path):
        dataset = Dataset.from_ntriples_text(NTRIPLES, name="people")
        dataset.save(tmp_path / "snap")
        for kwargs in ({"verify": False}, {"mmap": False}):
            loaded = Dataset.load(tmp_path / "snap", **kwargs)
            assert_tables_bit_identical(loaded.table, dataset.table)


class TestMutationRoundTrip:
    def test_mutate_then_save_round_trips_generation_and_artifacts(self, tmp_path):
        dataset = Dataset.from_ntriples_text(NTRIPLES, name="people")
        _ = dataset.table
        dataset.mutate(add=[("http://ex/dave", "http://ex/name", "http://ex/D")])
        dataset.mutate(remove=[("http://ex/carol", "http://ex/page", "http://ex/carol.html")])
        assert dataset.generation == 2
        dataset.save(tmp_path / "mutated")
        assert inspect_snapshot(tmp_path / "mutated").generation == 2

        loaded = Dataset.load(tmp_path / "mutated")
        assert loaded.generation == 2
        assert_tables_bit_identical(loaded.table, dataset.table)

        # The loaded handle continues the same version sequence, and its
        # incremental patches match a from-scratch build of the same state.
        loaded.mutate(add=[("http://ex/erin", "http://ex/mail", "e@ex")])
        assert loaded.generation == 3
        reference = Dataset.from_graph(loaded.graph.copy(), name="reference")
        assert_tables_bit_identical(loaded.table, reference.table)

        loaded.save(tmp_path / "mutated-again")
        reopened = Dataset.load(tmp_path / "mutated-again")
        assert reopened.generation == 3
        assert_tables_bit_identical(reopened.table, loaded.table)


class TestCorruption:
    @pytest.fixture
    def snapshot(self, tmp_path):
        Dataset.from_ntriples_text(NTRIPLES, name="people").save(tmp_path / "snap")
        return tmp_path / "snap"

    def _manifest(self, snapshot):
        return json.loads((snapshot / MANIFEST_NAME).read_text())

    def _rewrite(self, snapshot, manifest, restamp=True):
        if restamp:
            manifest["checksum"] = hashlib.sha256(
                _canonical_manifest_bytes(manifest)
            ).hexdigest()
        (snapshot / MANIFEST_NAME).write_text(json.dumps(manifest))

    def test_truncated_segment_raises(self, snapshot):
        target = snapshot / "matrix_data.npy"
        target.write_bytes(target.read_bytes()[:-5])
        with pytest.raises(SnapshotError, match="truncated"):
            open_snapshot(snapshot)

    def test_flipped_segment_byte_raises_checksum_drift(self, snapshot):
        target = snapshot / "table_counts.npy"
        raw = bytearray(target.read_bytes())
        raw[-1] ^= 0xFF
        target.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError, match="SHA-256"):
            open_snapshot(snapshot)
        # ... but a caller that explicitly skips verification still gets
        # the structural checks (sizes), not silent garbage detection.
        open_snapshot(snapshot, verify=False)

    def test_future_format_version_raises(self, snapshot):
        manifest = self._manifest(snapshot)
        manifest["format_version"] = SNAPSHOT_VERSION + 1
        self._rewrite(snapshot, manifest)
        with pytest.raises(SnapshotError, match="format version"):
            open_snapshot(snapshot)

    def test_bad_magic_raises(self, snapshot):
        manifest = self._manifest(snapshot)
        manifest["magic"] = "definitely-not-a-snapshot"
        self._rewrite(snapshot, manifest)
        with pytest.raises(SnapshotError, match="magic"):
            open_snapshot(snapshot)

    def test_tampered_manifest_fails_its_own_checksum(self, snapshot):
        manifest = self._manifest(snapshot)
        manifest["generation"] = 999
        self._rewrite(snapshot, manifest, restamp=False)
        with pytest.raises(SnapshotError, match="checksum"):
            open_snapshot(snapshot)

    def test_negative_label_ids_raise_instead_of_wrapping(self, snapshot):
        """A -1 in a label segment must not decode from the end of the term list."""
        import numpy as np

        target = snapshot / "matrix_subject_ids.npy"
        ids = np.load(target)
        ids[0] = -1
        np.save(target, ids)
        manifest = self._manifest(snapshot)
        manifest["segments"]["matrix_subject_ids"]["bytes"] = target.stat().st_size
        manifest["segments"]["matrix_subject_ids"]["sha256"] = hashlib.sha256(
            target.read_bytes()
        ).hexdigest()
        self._rewrite(snapshot, manifest)
        with pytest.raises(SnapshotError, match="negative term IDs"):
            open_snapshot(snapshot).load_matrix()

    def test_missing_segment_file_raises(self, snapshot):
        (snapshot / "terms_blob.npy").unlink()
        with pytest.raises(SnapshotError, match="missing segment"):
            open_snapshot(snapshot)

    def test_byte_corrupted_manifest_raises_snapshot_error(self, snapshot):
        (snapshot / MANIFEST_NAME).write_bytes(b"\xff\xfe not json at all")
        with pytest.raises(SnapshotError, match="unreadable"):
            open_snapshot(snapshot)

    def test_missing_manifest_raises(self, tmp_path):
        empty = tmp_path / "not-a-snapshot"
        empty.mkdir()
        with pytest.raises(SnapshotError, match=MANIFEST_NAME):
            open_snapshot(empty)

    def test_nonexistent_path_raises(self, tmp_path):
        with pytest.raises(SnapshotError, match="not a directory"):
            open_snapshot(tmp_path / "nowhere")

    def test_dataset_load_propagates_snapshot_errors(self, snapshot):
        manifest = self._manifest(snapshot)
        manifest["format_version"] = 99
        self._rewrite(snapshot, manifest)
        with pytest.raises(SnapshotError, match="format version"):
            Dataset.load(snapshot)


def _snapshot_specs(tmp_path):
    """Persist four datasets and return snapshot-backed wire specs."""
    paths = {}
    for name, params in BUILTIN_SPECS:
        dataset = Dataset.builtin(name, **params)
        dataset.save(tmp_path / name)
        paths[name] = str(tmp_path / name)
    tiny = Dataset.from_ntriples_text(NTRIPLES, name="tiny")
    tiny.save(tmp_path / "tiny")
    paths["tiny"] = str(tmp_path / "tiny")
    return [{"snapshot": path} for path in paths.values()]


def _mixed_snapshot_batch(tmp_path, n=32):
    """A deterministic mixed batch cycling ops over snapshot-backed specs."""
    datasets = _snapshot_specs(tmp_path)
    templates = [
        lambda ds: {"op": "evaluate", "dataset": ds, "request": {"rule": "Cov", "exact": True}},
        lambda ds: {"op": "evaluate", "dataset": ds, "request": {"rule": "Sim"}},
        lambda ds: {"op": "refine", "dataset": ds, "request": {"rule": "Cov", "k": 2, "step": "1/4"}},
        lambda ds: {"op": "lowest_k", "dataset": ds, "request": {"rule": "Cov", "theta": "1/2"}},
        lambda ds: {"op": "sweep", "dataset": ds, "request": {"rule": "Cov", "k_values": [2, 3], "step": "1/4"}},
        lambda ds: {
            "op": "refine",
            "dataset": ds,
            "solver": "branch-and-bound",
            "request": {"rule": "Cov", "k": 2, "step": "1/2"},
        },
    ]
    return [
        dict(templates[i % len(templates)](datasets[i % len(datasets)]), id=f"job-{i}")
        for i in range(n)
    ]


class TestServiceIntegration:
    def test_spec_round_trip_and_key(self, tmp_path):
        spec = DatasetSpec.from_dict({"snapshot": str(tmp_path / "snap")})
        assert spec.snapshot == str(tmp_path / "snap")
        assert DatasetSpec.from_dict(spec.to_dict()) == spec
        assert "snapshot" in spec.key

    def test_spec_rejects_sort_params_and_mixed_sources(self, tmp_path):
        from repro.exceptions import RequestError

        with pytest.raises(RequestError, match="sort"):
            DatasetSpec.from_dict({"snapshot": "x", "sort": "http://ex/T"})
        with pytest.raises(RequestError, match="params"):
            DatasetSpec.from_dict({"snapshot": "x", "params": {"n": 1}})
        with pytest.raises(RequestError, match="exactly one"):
            DatasetSpec.from_dict({"snapshot": "x", "builtin": "dbpedia-persons"})

    def test_spec_name_overrides_the_manifest_name(self, tmp_path):
        Dataset.builtin("wordnet-nouns", n_subjects=200).save(tmp_path / "wn")
        spec = DatasetSpec.from_dict({"snapshot": str(tmp_path / "wn"), "name": "prod"})
        assert DatasetRegistry().get(spec).name == "prod"

    def test_registry_builds_snapshot_dataset_once(self, tmp_path):
        Dataset.builtin("wordnet-nouns", n_subjects=200).save(tmp_path / "wn")
        registry = DatasetRegistry()
        spec = DatasetSpec.from_dict({"snapshot": str(tmp_path / "wn")})
        first = registry.get(spec)
        assert registry.get(spec) is first
        assert registry.stats == {"lookups": 2, "builds": 1}

    def test_describe_and_v1_datasets_report_provenance(self, tmp_path):
        Dataset.builtin("wordnet-nouns", n_subjects=200).save(tmp_path / "wn")
        executor = InlineExecutor()
        service = StructurednessService(executor=executor)
        spec = {"snapshot": str(tmp_path / "wn")}
        status, envelope = service.handle_op(
            "evaluate", {"dataset": spec, "rule": "Cov"}
        )
        assert status == 200 and envelope["ok"]
        status, payload = service.handle_datasets()
        assert status == 200
        [entry] = payload["loaded"]
        assert entry["spec"] == spec
        assert entry["snapshot"] == {
            "path": str(tmp_path / "wn"),
            "format_version": SNAPSHOT_VERSION,
        }

    def test_acceptance_32_requests_snapshot_backed_inline_vs_pool(self, tmp_path):
        """32 requests over 4 snapshot-backed datasets: pool == inline, bit-identical."""
        batch = _mixed_snapshot_batch(tmp_path, n=32)
        inline = InlineExecutor().execute(batch)
        assert len(inline) == 32 and all(envelope["ok"] for envelope in inline)
        with create_executor(workers=4) as pool:
            pooled = pool.execute(batch)
        assert json.dumps(pooled, sort_keys=True) == json.dumps(inline, sort_keys=True)


class TestResidency:
    """``Dataset.residency()`` must report where each stage's bytes live.

    The previous ``stats`` view under-reported disk-residency: an
    mmap-backed matrix counted as if it were heap bytes.  The residency
    report distinguishes the two per stage and is surfaced through
    ``DatasetRegistry.describe()`` so ``/v1/datasets`` shows it.
    """

    def _snapshot(self, tmp_path):
        Dataset.from_ntriples_text(NTRIPLES, name="resi").save(tmp_path / "snap")
        return tmp_path / "snap"

    def test_mmap_load_reports_disk_resident_matrix(self, tmp_path):
        dataset = Dataset.load(self._snapshot(tmp_path), mmap=True)
        report = dataset.residency()
        assert set(report) == {"graph", "matrix", "table"}
        matrix = report["matrix"]
        assert matrix["built"] and matrix["mmap_segments"] == 1
        assert matrix["mapped_bytes"] > 0 and matrix["resident_bytes"] == 0
        # the signature table adopts its support, count and member segments
        table = report["table"]
        assert table["built"] and table["mmap_segments"] == 3
        assert table["mapped_bytes"] > 0 and table["resident_bytes"] == 0

    def test_heap_load_reports_resident_matrix(self, tmp_path):
        dataset = Dataset.load(self._snapshot(tmp_path), mmap=False)
        matrix = dataset.residency()["matrix"]
        assert matrix["mmap_segments"] == 0 and matrix["resident_bytes"] > 0

    def test_unbuilt_stages_report_unbuilt_without_forcing_them(self, tmp_path):
        dataset = Dataset.load(self._snapshot(tmp_path), mmap=True)
        assert dataset.residency()["graph"]["built"] == 0
        dataset.graph  # force the (column-backed) graph stage
        graph = dataset.residency()["graph"]
        assert graph["built"] and graph["mapped_bytes"] > 0

    def test_mmap_loaded_graph_reports_its_mapped_segment(self, tmp_path):
        dataset = Dataset.load(self._snapshot(tmp_path), mmap=True)
        n_triples = len(dataset.graph)
        assert dataset.residency()["graph"] == {
            "built": 1,
            "mmap_segments": 1,
            "mapped_bytes": 12 * n_triples,
            "resident_bytes": 0,
        }
        # The first mutation builds the hash indexes and drops the mapped
        # columns: the report falls back to the 12-bytes-per-triple bound.
        dataset.mutate(add=[["http://ex/new", "http://ex/name", "http://ex/o"]])
        assert dataset.residency()["graph"] == {
            "built": 1,
            "mmap_segments": 0,
            "mapped_bytes": 0,
            "resident_bytes": 12 * (n_triples + 1),
        }

    def test_heap_loaded_and_parsed_graphs_report_resident_columns(self, tmp_path):
        for dataset in (
            Dataset.load(self._snapshot(tmp_path), mmap=False),
            Dataset.from_ntriples_text(NTRIPLES, name="resi"),
        ):
            n_triples = len(dataset.graph)
            assert dataset.residency()["graph"] == {
                "built": 1,
                "mmap_segments": 0,
                "mapped_bytes": 0,
                "resident_bytes": 12 * n_triples,
            }

    def test_mutation_makes_the_matrix_heap_resident(self, tmp_path):
        dataset = Dataset.load(self._snapshot(tmp_path), mmap=True)
        assert dataset.residency()["matrix"]["mmap_segments"] == 1
        dataset.mutate(add=[["http://ex/new", "http://ex/name", "http://ex/o"]])
        report = dataset.residency()
        matrix = report["matrix"]
        assert matrix["mmap_segments"] == 0 and matrix["resident_bytes"] > 0
        # The patched table owns heap columns: the member column and its
        # row -> signature array are counted with the support and counts.
        table = report["table"]
        n_signatures, n_properties = dataset.table.n_signatures, dataset.table.n_properties
        n_subjects, n_rows = dataset.table.n_subjects, dataset.matrix.n_subjects
        assert table == {
            "built": 1,
            "mmap_segments": 0,
            "mapped_bytes": 0,
            "resident_bytes": 8 * n_signatures + n_signatures * n_properties
            + 4 * n_subjects + 4 * n_rows,
        }

    def test_patched_table_keeps_its_mapped_support_until_a_signature_changes(self, tmp_path):
        dataset = Dataset.load(self._snapshot(tmp_path), mmap=True)
        # A new subject joins the largest signature: no signature is
        # created, dropped or reordered, so the support stays the segment.
        dataset.mutate(add=[
            ["http://ex/dave", "http://ex/name", '"Dave"'],
            ["http://ex/dave", "http://ex/mail", '"d@ex"'],
        ])
        table = dataset.table
        assert table.count_vector().tolist() == [2, 1, 1]
        n_support = table.n_signatures * table.n_properties
        n_subjects, n_rows = table.n_subjects, dataset.matrix.n_subjects
        assert dataset.residency()["table"] == {
            "built": 1,
            "mmap_segments": 1,
            "mapped_bytes": n_support,
            "resident_bytes": 8 * table.n_signatures + 4 * n_subjects + 4 * n_rows,
        }
        # A new signature moves the support onto the heap.
        dataset.mutate(add=[["http://ex/bob", "http://ex/page", "http://ex/bob.html"]])
        report = dataset.residency()["table"]
        assert report["mmap_segments"] == 0 and report["mapped_bytes"] == 0

    def test_registry_describe_carries_residency(self, tmp_path):
        registry = DatasetRegistry()
        spec = DatasetSpec.from_dict(
            {"snapshot": str(self._snapshot(tmp_path)), "mmap": True}
        )
        registry.get(spec)
        [entry] = registry.describe()
        assert entry["spec"]["mmap"] is True
        assert entry["residency"]["matrix"]["mmap_segments"] == 1
        assert entry["residency"]["table"]["mmap_segments"] == 3

    def test_mmap_spec_field_is_validated(self):
        with pytest.raises(Exception):
            DatasetSpec.from_dict({"builtin": "wordnet-nouns", "mmap": True})
        with pytest.raises(Exception):
            DatasetSpec.from_dict({"snapshot": "/tmp/x", "mmap": "yes"})
        spec = DatasetSpec.from_dict({"snapshot": "/tmp/x"})
        assert "mmap" not in spec.to_dict()  # None keeps pre-mmap keys stable
