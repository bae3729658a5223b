"""Out-of-core dataset builds: partitioned streaming over spilled run segments.

The in-memory build path (``load_ntriples`` → ``RDFGraph`` →
``PropertyMatrix.from_graph`` → ``SignatureTable.from_matrix``) holds the
whole triple set (as one ID-triple array: the column-backed graph builds
no hash index on that path), the term dictionary and the dense boolean
matrix in RAM at once — fine for the paper's benchmark tables, a hard
wall for graphs bigger than RAM.  This module rebuilds the same
artifact chain as an external-memory pipeline in three bounded phases,
following the shape of disk-based RDF stores (keyed index partitions over
pooled term buffers) rather than their machinery:

1. **Parse & spill** — :func:`repro.rdf.ntriples.intern_ntriples`, the
   parse-and-intern kernel the in-memory ``load_ntriples`` reads from too,
   streams the N-Triples source and yields ID triples, interning every term
   in file order — *exactly* the order the in-memory build interns, which
   is what makes the resulting ``TermDictionary`` bit-identical.  Each
   batch of ``chunk_triples`` of them becomes an ``(n, 3) int32`` array,
   sorted, deduplicated and spilled as one ``.npy`` run segment.
2. **Scatter** — subjects are sorted by URI (the ``PropertyMatrix`` row
   order) and split into ``partitions`` contiguous row ranges; each run is
   re-read (memory-mapped) and its rows appended to the partition spill
   file owning their subject.  Since every copy of a duplicated triple
   shares its subject, global deduplication reduces to per-partition
   deduplication.
3. **Partitioned merge** — each partition is loaded alone, deduplicated,
   appended to the triple segment, scattered into its row block of the
   ``matrix_data`` segment (a writable ``.npy`` memory-map created up
   front), and grouped into signatures via packed bitset rows; per-partition
   groups merge into global signature counts and member lists, processed in
   row order so members land in exactly the order
   ``SignatureTable.from_matrix`` produces.

The output is written through :class:`~repro.storage.snapshots.SnapshotWriter`
— the result of an out-of-core build *is* a format-version-1 snapshot,
checksummed segment by segment, that ``Dataset.load`` reopens over
``np.load(mmap_mode="r")``.  The differential suite
(``tests/test_outofcore_differential.py``) proves every artifact and query
payload bit-identical to the in-memory path across chunk/partition grids.

**Memory model.**  Resident at peak: the term dictionary (the irreducible
vocabulary — every disk-backed RDF store keeps an equivalent term pool),
a few boolean/int flag arrays of vocabulary length, the parser's token
caches (bounded by a fixed entry count), one chunk of ID triples, one
run or partition of ID-triples, one partition-height matrix block, and the
signature accumulator (one packed row + member IDs per *distinct*
signature — the same asymptotic footprint the signature table itself has).
Everything proportional to the triple count lives on disk.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import uuid
from itertools import islice
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import SnapshotError
from repro.matrix.signatures import group_boolean_rows
from repro.rdf.graph import distinct_triple_rows
from repro.rdf.interning import NO_ID, TermDictionary
from repro.rdf.namespaces import RDF
from repro.rdf.ntriples import DEFAULT_BUFFER_BYTES, intern_ntriples
from repro.rdf.terms import coerce_object
from repro.storage.snapshots import SnapshotInfo, SnapshotWriter, _encode_terms
from repro.telemetry import current as current_telemetry

__all__ = [
    "DEFAULT_CHUNK_TRIPLES",
    "DEFAULT_PARTITIONS",
    "default_chunk_triples",
    "default_partitions",
    "build_out_of_core",
]

#: Fallback chunk size (triples per spill run) when neither the caller nor
#: the ``REPRO_OOC_CHUNK`` environment variable chooses one.
DEFAULT_CHUNK_TRIPLES = 65536

#: Fallback number of subject partitions when neither the caller nor the
#: ``REPRO_OOC_PARTITIONS`` environment variable chooses one.
DEFAULT_PARTITIONS = 8

#: Copy granularity (rows) when streaming the spilled triple file into the
#: final ``graph_triples`` segment.
_COPY_ROWS = 1 << 16


def _env_int(variable: str, fallback: int) -> int:
    raw = os.environ.get(variable, "").strip()
    if not raw:
        return fallback
    try:
        value = int(raw)
    except ValueError:
        raise SnapshotError(f"{variable} must be an integer, got {raw!r}") from None
    if value < 1:
        raise SnapshotError(f"{variable} must be >= 1, got {value}")
    return value


def default_chunk_triples() -> int:
    """The effective default chunk size (``REPRO_OOC_CHUNK`` or 65536)."""
    return _env_int("REPRO_OOC_CHUNK", DEFAULT_CHUNK_TRIPLES)


def default_partitions() -> int:
    """The effective default partition count (``REPRO_OOC_PARTITIONS`` or 8)."""
    return _env_int("REPRO_OOC_PARTITIONS", DEFAULT_PARTITIONS)


class _VocabFlags:
    """A boolean flag per term ID, grown geometrically as the vocabulary grows."""

    __slots__ = ("data",)

    def __init__(self) -> None:
        self.data = np.zeros(1024, dtype=bool)

    def mark(self, ids: np.ndarray, vocab_size: int) -> None:
        if vocab_size > len(self.data):
            grown = np.zeros(max(vocab_size, 2 * len(self.data)), dtype=bool)
            grown[: len(self.data)] = self.data
            self.data = grown
        if ids.size:
            self.data[ids] = True

    def trimmed(self, vocab_size: int) -> np.ndarray:
        if vocab_size > len(self.data):
            self.mark(np.empty(0, dtype=np.int64), vocab_size)
        return self.data[:vocab_size]


def build_out_of_core(
    source: object,
    path: object,
    *,
    name: str = "",
    sort: Optional[object] = None,
    chunk_triples: Optional[int] = None,
    partitions: Optional[int] = None,
    buffer_bytes: int = DEFAULT_BUFFER_BYTES,
    overwrite: bool = False,
    workdir: Optional[object] = None,
) -> SnapshotInfo:
    """Build a snapshot from an N-Triples file without materialising the dataset.

    Stream-parses ``source`` in ``chunk_triples``-sized chunks, spills
    sorted ID-triple runs, and assembles the graph/matrix/signature-table
    segments in ``partitions`` subject-partitioned merge passes (see the
    module docstring for the phase-by-phase memory model).  The result is
    an ordinary format-version-1 snapshot at ``path`` whose every segment
    is bit-identical to ``Dataset.from_ntriples(source, sort=...).save(path)``
    — only the peak memory differs.

    ``sort`` restricts the dataset to subjects declared of that
    ``rdf:type`` (the paper's ``D_t``), like the in-memory constructors;
    the term dictionary still interns the whole file, matching the shared
    ID space of ``RDFGraph.sort_subgraph``.  ``chunk_triples`` and
    ``partitions`` default to the ``REPRO_OOC_CHUNK`` /
    ``REPRO_OOC_PARTITIONS`` environment variables (then 65536 / 8).
    Spill files live in a temporary directory under ``workdir`` (default:
    alongside the snapshot) and are deleted as soon as each is consumed.

    Returns the written snapshot's
    :class:`~repro.storage.snapshots.SnapshotInfo`.  Raises
    :class:`~repro.exceptions.SnapshotError` on an unwritable target or
    invalid knobs; parse errors propagate as
    :class:`~repro.exceptions.ParseError` with the snapshot target left
    untouched.
    """
    chunk = int(chunk_triples) if chunk_triples is not None else default_chunk_triples()
    if chunk < 1:
        raise SnapshotError(f"chunk_triples must be >= 1, got {chunk}")
    n_partitions = int(partitions) if partitions is not None else default_partitions()
    if n_partitions < 1:
        raise SnapshotError(f"partitions must be >= 1, got {n_partitions}")
    source_path = Path(source)
    sort_term = coerce_object(sort) if sort is not None else None
    telemetry = current_telemetry()

    writer = SnapshotWriter(path, overwrite=overwrite)
    spill_root = Path(workdir) if workdir is not None else Path(path).parent
    spill_dir = spill_root / f".repro-ooc-{os.getpid()}-{uuid.uuid4().hex[:12]}"
    try:
        spill_dir.mkdir(parents=True)
        info = _build(
            source_path,
            writer,
            spill_dir,
            name=name,
            sort_term=sort_term,
            chunk=chunk,
            n_partitions=n_partitions,
            buffer_bytes=buffer_bytes,
            telemetry=telemetry,
        )
    except Exception:
        writer.abort()
        raise
    finally:
        shutil.rmtree(spill_dir, ignore_errors=True)
    return info


def _build(
    source_path: Path,
    writer: SnapshotWriter,
    spill_dir: Path,
    *,
    name: str,
    sort_term: Optional[object],
    chunk: int,
    n_partitions: int,
    buffer_bytes: int,
    telemetry,
) -> SnapshotInfo:
    """The three-phase pipeline body (spill dir and writer owned by the caller)."""
    dictionary = TermDictionary()

    # ---------------- Phase 1: parse, intern, spill sorted runs ---------- #
    run_paths: List[Path] = []
    is_subject = _VocabFlags()
    is_typed = _VocabFlags() if sort_term is not None else None
    triples = intern_ntriples(source_path, dictionary, buffer_bytes=buffer_bytes)
    with telemetry.span("outofcore.parse"):
        while True:
            batch = list(islice(triples, chunk))
            if not batch:
                break
            ids = np.array(batch, dtype=np.int32)
            ids = distinct_triple_rows(ids)
            vocab = len(dictionary)
            is_subject.mark(ids[:, 0], vocab)
            if is_typed is not None:
                type_id = dictionary.id_of(RDF.type)
                t_id = dictionary.id_of(sort_term)
                if type_id != NO_ID and t_id != NO_ID:
                    typed = ids[(ids[:, 1] == type_id) & (ids[:, 2] == t_id), 0]
                    is_typed.mark(typed, vocab)
            run_path = spill_dir / f"run-{len(run_paths):06d}.npy"
            np.save(run_path, ids, allow_pickle=False)
            run_paths.append(run_path)

    vocab = len(dictionary)
    kept = is_typed.trimmed(vocab) if is_typed is not None else is_subject.trimmed(vocab)
    kept_ids = np.flatnonzero(kept)
    # Row order = subjects sorted by URI, exactly PropertyMatrix.from_graph.
    by_uri = sorted((dictionary.term_of(int(i)), int(i)) for i in kept_ids)
    subject_ids_sorted = np.fromiter(
        (i for _t, i in by_uri), dtype=np.int32, count=len(by_uri)
    )
    n_subjects = len(subject_ids_sorted)
    row_of = np.full(vocab, -1, dtype=np.int64)
    row_of[subject_ids_sorted] = np.arange(n_subjects)
    n_parts = max(1, min(n_partitions, n_subjects)) if n_subjects else 1
    bounds = np.linspace(0, n_subjects, n_parts + 1).astype(np.int64)

    # ---------------- Phase 2: scatter runs into subject partitions ------ #
    part_paths = [spill_dir / f"part-{j:04d}.bin" for j in range(n_parts)]
    kept_predicate = np.zeros(vocab, dtype=bool)
    with telemetry.span("outofcore.scatter"):
        handles = [open(p, "wb") for p in part_paths]
        try:
            for run_path in run_paths:
                arr = np.load(run_path, mmap_mode="r")
                if is_typed is not None:
                    arr = np.asarray(arr[kept[arr[:, 0]]])
                else:
                    arr = np.asarray(arr)
                if not len(arr):
                    run_path.unlink()
                    continue
                kept_predicate[arr[:, 1]] = True
                part_index = np.searchsorted(
                    bounds[1:], row_of[arr[:, 0]], side="right"
                )
                for j in np.unique(part_index):
                    handles[j].write(arr[part_index == j].tobytes())
                run_path.unlink()
        finally:
            for handle in handles:
                handle.close()

    # Column order = properties sorted by URI, rdf:type excluded.
    type_id = dictionary.id_of(RDF.type)
    prop_by_uri = sorted(
        (dictionary.term_of(int(p)), int(p))
        for p in np.flatnonzero(kept_predicate)
        if int(p) != type_id
    )
    property_ids = np.fromiter(
        (i for _t, i in prop_by_uri), dtype=np.int32, count=len(prop_by_uri)
    )
    n_props = len(property_ids)
    col_of = np.full(vocab, -1, dtype=np.int64)
    col_of[property_ids] = np.arange(n_props)

    # -------- Phase 3: per-partition dedup, matrix fill, signatures ------ #
    matrix_mm = writer.create_segment("matrix_data", (n_subjects, n_props), np.bool_)
    triples_path = spill_dir / "triples.bin"
    n_triples = 0
    # packed support row -> [count, member-ID chunks in matrix row order]
    sig_acc: Dict[bytes, list] = {}
    with telemetry.span("outofcore.merge"), open(triples_path, "wb") as triples_out:
        for j in range(n_parts):
            lo, hi = int(bounds[j]), int(bounds[j + 1])
            if hi <= lo:
                part_paths[j].unlink(missing_ok=True)
                continue
            block = np.zeros((hi - lo, n_props), dtype=bool)
            if part_paths[j].stat().st_size:
                arr = np.fromfile(part_paths[j], dtype=np.int32).reshape(-1, 3)
                arr = distinct_triple_rows(arr)
                triples_out.write(arr.tobytes())
                n_triples += len(arr)
                cols = col_of[arr[:, 1]]
                in_matrix = cols >= 0
                block[row_of[arr[in_matrix, 0]] - lo, cols[in_matrix]] = True
                if n_props:
                    matrix_mm[lo:hi] = block
            part_paths[j].unlink()
            block_subjects = subject_ids_sorted[lo:hi]
            representatives, inverse, group_sizes = group_boolean_rows(block)
            keys = np.packbits(block[representatives], axis=1)
            member_order = np.argsort(inverse, kind="stable")
            start = 0
            for g in range(len(group_sizes)):
                stop = start + int(group_sizes[g])
                entry = sig_acc.setdefault(keys[g].tobytes(), [0, []])
                entry[0] += int(group_sizes[g])
                entry[1].append(block_subjects[member_order[start:stop]])
                start = stop

    # ---------------- Final assembly: table, labels, graph, terms -------- #
    with telemetry.span("outofcore.assemble"):
        property_strings = [str(t) for t, _i in prop_by_uri]
        ordered_sigs: List[Tuple[int, Tuple[str, ...], np.ndarray, np.ndarray]] = []
        for key, (count, member_chunks) in sig_acc.items():
            support_row = np.unpackbits(np.frombuffer(key, dtype=np.uint8))[:n_props]
            on = np.flatnonzero(support_row)
            sig_key = tuple(sorted(property_strings[j] for j in on))
            members = (
                np.concatenate(member_chunks)
                if member_chunks
                else np.empty(0, dtype=np.int32)
            )
            ordered_sigs.append((count, sig_key, members, support_row))
        # The SignatureTable order: largest sets first, ties by property names.
        ordered_sigs.sort(key=lambda e: (-e[0], e[1]))
        n_sigs = len(ordered_sigs)
        support = np.zeros((n_sigs, n_props), dtype=bool)
        for i, (_count, _key, _members, support_row) in enumerate(ordered_sigs):
            support[i] = support_row
        writer.add_array("table_support", support)
        writer.add_array(
            "table_counts",
            np.fromiter((c for c, _k, _m, _p in ordered_sigs), dtype=np.int64, count=n_sigs),
        )
        writer.add_array("table_property_ids", property_ids)
        writer.add_array(
            "table_member_ids",
            np.concatenate([m for _c, _k, m, _p in ordered_sigs])
            if ordered_sigs
            else np.empty(0, dtype=np.int32),
        )
        writer.add_array("matrix_subject_ids", subject_ids_sorted)
        writer.add_array("matrix_property_ids", property_ids)

        graph_mm = writer.create_segment("graph_triples", (n_triples, 3), np.int32)
        with open(triples_path, "rb") as triples_in:
            offset = 0
            pending = b""
            while True:
                buf = triples_in.read(12 * _COPY_ROWS)
                if not buf:
                    break
                data = pending + buf
                usable = len(data) - (len(data) % 12)
                rows = np.frombuffer(data[:usable], dtype=np.int32).reshape(-1, 3)
                graph_mm[offset : offset + len(rows)] = rows
                offset += len(rows)
                pending = data[usable:]
            if pending or offset != n_triples:
                raise SnapshotError(
                    f"out-of-core triple spill is corrupt: wrote {n_triples} rows, "
                    f"recovered {offset}"
                )

        for segment_name, array in _encode_terms(dictionary).items():
            writer.add_array(segment_name, array)

        counts = {
            "triples": n_triples,
            "subjects": n_subjects,
            "properties": n_props,
            "signatures": n_sigs,
            "terms": len(dictionary),
        }
        default_name = str(source_path)
        return writer.finalise(
            name=name or default_name,
            generation=0,
            stages=("graph", "matrix", "table"),
            counts=counts,
            table_has_members=True,
        )
