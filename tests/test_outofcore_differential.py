"""Differential proofs that out-of-core builds ARE the in-memory builds.

The out-of-core pipeline (``repro.storage.outofcore``) must be
observationally indistinguishable from parsing the same file in memory and
saving the dataset: same term dictionary (IDs in first-seen file order),
same matrix, same signature table (supports, counts, members), same query
payloads.  The strongest form of that claim is checked first: every
snapshot segment except ``graph_triples`` must be **byte-identical**
(equal SHA-256 in the manifest) between the two builds — ``graph_triples``
alone is allowed to reorder rows because triples are a set: the loaded
graph treats the segment as a set of distinct rows.

The suite sweeps every built-in dataset plus 150+ seeded random graphs
across a chunk-size grid (including ``chunk=1`` and a chunk far larger
than any dataset) and partition counts (including more partitions than
subjects), then spot-checks full query payloads, mutate-after-load and
save→load round trips on a representative subset.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from repro.api import Dataset, builtin_dataset_names
from repro.exceptions import SnapshotError
from repro.rdf.ntriples import dumps_ntriples
from repro.service.wire import strip_timing
from repro.storage.outofcore import (
    build_out_of_core,
    default_chunk_triples,
    default_partitions,
)

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

#: Grid points cycled over the randomized corpus: extreme chunk sizes
#: (one triple per chunk; a chunk far larger than any dataset here) and
#: partition counts from one up to far more partitions than subjects.
CHUNK_GRID = (1, 2, 3, 7, 31, 1_000_000)
PARTITION_GRID = (1, 2, 3, 8, 64)


# --------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------- #
def _segment_hashes(snapshot_dir: Path) -> dict:
    manifest = json.loads((Path(snapshot_dir) / "manifest.json").read_text())
    return {name: meta["sha256"] for name, meta in manifest["segments"].items()}


def _mem_snapshot(nt_path, out_dir, sort=None) -> Path:
    dataset = Dataset.from_ntriples(nt_path, sort=sort)
    dataset.table  # force the full chain before saving
    dataset.save(out_dir)
    return Path(out_dir)

def _ooc_snapshot(nt_path, out_dir, *, chunk, partitions, sort=None) -> Path:
    # A CI leg may force tiny chunks/partitions fleet-wide via the env
    # knobs; let them win over the suite's own grid so that run really
    # crosses a chunk boundary in every single build.
    import os

    if os.environ.get("REPRO_OOC_CHUNK"):
        chunk = None
    if os.environ.get("REPRO_OOC_PARTITIONS"):
        partitions = None
    build_out_of_core(
        nt_path, out_dir, sort=sort, chunk_triples=chunk, partitions=partitions
    )
    return Path(out_dir)


def _assert_segments_identical(mem_dir: Path, ooc_dir: Path) -> None:
    """Every segment except graph_triples must be byte-identical."""
    mem, ooc = _segment_hashes(mem_dir), _segment_hashes(ooc_dir)
    assert set(mem) == set(ooc)
    for name in mem:
        if name == "graph_triples":
            continue
        assert mem[name] == ooc[name], f"segment {name} differs between builds"
    # graph_triples may reorder rows but must hold the same triple *set*
    mem_rows = np.load(mem_dir / "graph_triples.npy")
    ooc_rows = np.load(ooc_dir / "graph_triples.npy")
    assert mem_rows.shape == ooc_rows.shape
    np.testing.assert_array_equal(
        np.unique(mem_rows, axis=0), np.unique(ooc_rows, axis=0)
    )


def _assert_datasets_identical(mem: Dataset, ooc: Dataset) -> None:
    """Loaded handles must agree on dictionary, matrix, table and graph."""
    assert list(mem.graph.term_dictionary) == list(ooc.graph.term_dictionary)
    assert mem.matrix == ooc.matrix
    assert np.array_equal(mem.matrix.data, ooc.matrix.data)
    assert mem.table == ooc.table
    assert mem.table.counts() == ooc.table.counts()
    for signature in mem.table.signatures:
        assert mem.table.members_of(signature) == ooc.table.members_of(signature)
    assert mem.graph == ooc.graph


def _random_ntriples(seed: int) -> str:
    """A deterministic random N-Triples document for one differential seed."""
    rng = random.Random(seed)
    n_subjects = rng.randint(1, 25)
    n_props = rng.randint(1, 6)
    props = [f"http://ex.org/p{i}" for i in range(n_props)]
    types = ["http://ex.org/TypeA", "http://ex.org/TypeB"]
    lines = ["# differential corpus seed %d" % seed, ""]
    for s in range(n_subjects):
        subject = f"http://ex.org/s{s}"
        if rng.random() < 0.6:
            lines.append(f"<{subject}> <{RDF_TYPE}> <{rng.choice(types)}> .")
        for prop in rng.sample(props, rng.randint(1, n_props)):
            if rng.random() < 0.5:
                obj = f'"value {rng.randint(0, 9)}\\n\\"q\\" é"'
            else:
                obj = f"<http://ex.org/o{rng.randint(0, 5)}>"
            lines.append(f"<{subject}> <{prop}> {obj} .")
            if rng.random() < 0.1:  # duplicate triples must collapse
                lines.append(f"<{subject}> <{prop}> {obj} .")
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------- #
# Built-in datasets
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", builtin_dataset_names())
def test_builtin_differential(name, tmp_path):
    """Every built-in dataset, expanded to N-Triples, builds bit-identically."""
    dataset = Dataset.builtin(name)
    nt_path = tmp_path / "data.nt"
    nt_path.write_text(dumps_ntriples(dataset.table.to_graph()), encoding="utf-8")
    mem_dir = _mem_snapshot(nt_path, tmp_path / "mem")
    ooc_dir = _ooc_snapshot(nt_path, tmp_path / "ooc", chunk=17, partitions=5)
    _assert_segments_identical(mem_dir, ooc_dir)
    _assert_datasets_identical(Dataset.load(mem_dir), Dataset.load(ooc_dir))


def test_chunk_extremes_and_partition_extremes(tmp_path):
    """chunk=1, chunk>dataset, partitions=1 and partitions>subjects all agree."""
    nt_path = tmp_path / "data.nt"
    nt_path.write_text(_random_ntriples(4242), encoding="utf-8")
    mem_dir = _mem_snapshot(nt_path, tmp_path / "mem")
    for index, (chunk, partitions) in enumerate(
        [(1, 1), (1, 1000), (10**9, 1), (10**9, 1000)]
    ):
        ooc_dir = _ooc_snapshot(
            nt_path, tmp_path / f"ooc{index}", chunk=chunk, partitions=partitions
        )
        _assert_segments_identical(mem_dir, ooc_dir)


# --------------------------------------------------------------------- #
# Randomized corpus across the chunk/partition grid
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", range(150))
def test_randomized_differential(seed, tmp_path):
    """150 seeded random graphs: segment-level bit-identity on a moving grid."""
    chunk = CHUNK_GRID[seed % len(CHUNK_GRID)]
    partitions = PARTITION_GRID[seed % len(PARTITION_GRID)]
    sort = "http://ex.org/TypeA" if seed % 5 == 0 else None
    nt_path = tmp_path / "data.nt"
    nt_path.write_text(_random_ntriples(seed), encoding="utf-8")
    mem_dir = _mem_snapshot(nt_path, tmp_path / "mem", sort=sort)
    ooc_dir = _ooc_snapshot(
        nt_path, tmp_path / "ooc", chunk=chunk, partitions=partitions, sort=sort
    )
    _assert_segments_identical(mem_dir, ooc_dir)


@pytest.mark.parametrize("seed", [3, 57, 101])
def test_randomized_loaded_objects_identical(seed, tmp_path):
    """Spot-check: loaded dictionary/matrix/table/graph objects, not just bytes."""
    nt_path = tmp_path / "data.nt"
    nt_path.write_text(_random_ntriples(seed), encoding="utf-8")
    mem_dir = _mem_snapshot(nt_path, tmp_path / "mem")
    ooc_dir = _ooc_snapshot(nt_path, tmp_path / "ooc", chunk=3, partitions=4)
    _assert_datasets_identical(Dataset.load(mem_dir), Dataset.load(ooc_dir))


# --------------------------------------------------------------------- #
# Full query payloads
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("source", ["dbpedia-persons", "seed-11"])
def test_query_payload_differential(source, tmp_path):
    """evaluate/refine/lowest_k/sweep payloads are identical on both builds."""
    nt_path = tmp_path / "data.nt"
    if source.startswith("seed-"):
        nt_path.write_text(_random_ntriples(int(source[5:])), encoding="utf-8")
    else:
        dataset = Dataset.builtin(source, n_subjects=40)
        nt_path.write_text(dumps_ntriples(dataset.table.to_graph()), encoding="utf-8")
    mem = Dataset.load(_mem_snapshot(nt_path, tmp_path / "mem"))
    ooc = Dataset.load(_ooc_snapshot(nt_path, tmp_path / "ooc", chunk=7, partitions=3))
    mem_session, ooc_session = mem.session(), ooc.session()
    try:
        for query in (
            lambda s: s.evaluate("Cov"),
            lambda s: s.evaluate("Sim"),
            lambda s: s.refine(rule="Cov", k=2),
            lambda s: s.lowest_k(rule="Cov", theta=Fraction(1, 2)),
            lambda s: s.sweep(rule="Cov", k_values=(1, 2)),
        ):
            mem_payload = strip_timing(query(mem_session).to_dict())
            ooc_payload = strip_timing(query(ooc_session).to_dict())
            assert mem_payload == ooc_payload
    finally:
        mem_session.close()
        ooc_session.close()


# --------------------------------------------------------------------- #
# Mutations and round trips
# --------------------------------------------------------------------- #
def test_mutate_after_load_differential(tmp_path):
    """The same mutation applied to both loads keeps them identical."""
    nt_path = tmp_path / "data.nt"
    nt_path.write_text(_random_ntriples(77), encoding="utf-8")
    mem = Dataset.load(_mem_snapshot(nt_path, tmp_path / "mem"))
    ooc = Dataset.load(_ooc_snapshot(nt_path, tmp_path / "ooc", chunk=2, partitions=3))
    add = [["http://ex.org/new", "http://ex.org/p0", "http://ex.org/o0"]]
    remove = [list(next(iter(mem.graph)))]
    for handle in (mem, ooc):
        handle.mutate(add=add, remove=remove)
    assert mem.generation == ooc.generation == 1
    _assert_datasets_identical(mem, ooc)


def test_save_load_round_trip(tmp_path):
    """An OOC snapshot survives load→save→load with identical artifacts."""
    nt_path = tmp_path / "data.nt"
    nt_path.write_text(_random_ntriples(88), encoding="utf-8")
    ooc_dir = _ooc_snapshot(nt_path, tmp_path / "ooc", chunk=5, partitions=2)
    first = Dataset.load(ooc_dir)
    first.save(tmp_path / "resaved")
    second = Dataset.load(tmp_path / "resaved")
    _assert_datasets_identical(first, second)
    mem_dir = _mem_snapshot(nt_path, tmp_path / "mem")
    _assert_segments_identical(mem_dir, tmp_path / "resaved")


# --------------------------------------------------------------------- #
# Facade, environment knobs, failure modes
# --------------------------------------------------------------------- #
def test_facade_build_out_of_core(tmp_path):
    """Dataset.build_out_of_core writes the snapshot and returns a live handle."""
    nt_path = tmp_path / "data.nt"
    nt_path.write_text(_random_ntriples(9), encoding="utf-8")
    handle = Dataset.build_out_of_core(
        nt_path, tmp_path / "snap", chunk_triples=4, partitions=2
    )
    reference = Dataset.from_ntriples(nt_path)
    assert handle.matrix == reference.matrix
    assert handle.table == reference.table
    residency = handle.residency()
    assert residency["matrix"]["mmap_segments"] == 1
    assert residency["matrix"]["resident_bytes"] == 0


def test_env_overrides(monkeypatch):
    monkeypatch.setenv("REPRO_OOC_CHUNK", "123")
    monkeypatch.setenv("REPRO_OOC_PARTITIONS", "7")
    assert default_chunk_triples() == 123
    assert default_partitions() == 7
    monkeypatch.setenv("REPRO_OOC_CHUNK", "zero")
    with pytest.raises(SnapshotError):
        default_chunk_triples()
    monkeypatch.setenv("REPRO_OOC_PARTITIONS", "0")
    with pytest.raises(SnapshotError):
        default_partitions()


def test_invalid_knobs_rejected(tmp_path):
    nt_path = tmp_path / "data.nt"
    nt_path.write_text("<http://ex/s> <http://ex/p> <http://ex/o> .\n", encoding="utf-8")
    with pytest.raises(SnapshotError):
        build_out_of_core(nt_path, tmp_path / "snap", chunk_triples=0)
    with pytest.raises(SnapshotError):
        build_out_of_core(nt_path, tmp_path / "snap", partitions=0)


def test_overwrite_protection(tmp_path):
    nt_path = tmp_path / "data.nt"
    nt_path.write_text("<http://ex/s> <http://ex/p> <http://ex/o> .\n", encoding="utf-8")
    build_out_of_core(nt_path, tmp_path / "snap", chunk_triples=1)
    with pytest.raises(SnapshotError):
        build_out_of_core(nt_path, tmp_path / "snap", chunk_triples=1)
    info = build_out_of_core(nt_path, tmp_path / "snap", chunk_triples=1, overwrite=True)
    assert info.counts["triples"] == 1


def test_no_spill_files_left_behind(tmp_path):
    """Spill directories are removed on success and on failure."""
    nt_path = tmp_path / "data.nt"
    nt_path.write_text(_random_ntriples(5), encoding="utf-8")
    build_out_of_core(nt_path, tmp_path / "snap", chunk_triples=3, partitions=2)
    bad = tmp_path / "bad.nt"
    bad.write_text("this is not ntriples\n", encoding="utf-8")
    with pytest.raises(Exception):
        build_out_of_core(bad, tmp_path / "snap2", chunk_triples=3)
    leftovers = [
        p for p in tmp_path.iterdir()
        if p.name.startswith(".repro-ooc") or p.name.endswith(".tmp")
        or ".tmp-" in p.name
    ]
    assert leftovers == []
    assert not (tmp_path / "snap2").exists()
