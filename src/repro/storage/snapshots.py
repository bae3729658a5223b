"""Persistent dataset snapshots: a versioned, checksummed binary artifact store.

The paper's workload is many structuredness queries over a few large fixed
graphs, yet without persistence every process — CLI run, example script,
each pool worker — re-parses N-Triples and rebuilds the whole
graph → ``PropertyMatrix`` → ``SignatureTable`` chain from scratch.  A
*snapshot* persists that chain once so any later process reopens it
I/O-bound instead of rebuild-bound, the same trick D4M-style systems use
when they persist associative-array artifacts for layered APIs to reopen
without reconstruction (see DESIGN.md, "Persistence & snapshots").

On-disk layout — one directory per snapshot::

    <path>/
      manifest.json       magic, format version, stages, per-segment
                          byte sizes and SHA-256 checksums, dataset name,
                          mutation generation
      <segment>.npy       one plain ``.npy`` file per array segment,
                          loadable with ``np.load(..., mmap_mode="r")``

Segments (all aligned with the interned-ID architecture):

===================  ========================================================
``terms_blob``       UTF-8 bytes of every interned term, concatenated
``terms_offsets``    ``int64[n_terms + 1]`` slice offsets into the blob
``terms_kinds``      ``uint8[n_terms]``: 0 = URI, 1 = Literal
``graph_triples``    ``int32[n_triples, 3]`` distinct (s, p, o) term IDs, any
                     row order
``matrix_data``      ``bool[n_subjects, n_properties]`` — M(D) cells
``matrix_subject_ids``    ``int32`` row labels as term IDs, row order
``matrix_property_ids``   ``int32`` column labels as term IDs, column order
``table_support``    ``bool[n_signatures, n_table_properties]`` supports
``table_counts``     ``int64[n_signatures]`` signature-set sizes
``table_property_ids``    ``int32`` the table's property universe as IDs
``table_member_ids`` ``int32`` member subjects as IDs, concatenated per
                     signature in table order (present iff members tracked)
===================  ========================================================

Failure modes are strict and structured: magic or version mismatch, a
missing/truncated segment, checksum drift and malformed manifests all raise
:class:`~repro.exceptions.SnapshotError` — a snapshot loads completely or
not at all, never partially.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import shutil
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import SnapshotError
from repro.matrix.property_matrix import PropertyMatrix
from repro.matrix.signatures import SignatureTable, Signature
from repro.rdf.graph import RDFGraph
from repro.rdf.interning import TermDictionary
from repro.rdf.terms import Literal, Term, URI

__all__ = [
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
    "MANIFEST_NAME",
    "SnapshotInfo",
    "Snapshot",
    "check_snapshot_target",
    "EncodedChain",
    "encode_chain",
    "SnapshotWriter",
    "write_encoded_snapshot",
    "write_snapshot",
    "open_snapshot",
    "inspect_snapshot",
]

#: File-format identity: a manifest whose magic differs is not a snapshot.
SNAPSHOT_MAGIC = "repro-snapshot"

#: Current on-disk format version.  Version history and compatibility rules
#: live in DESIGN.md, "Persistence & snapshots".
SNAPSHOT_VERSION = 1

#: Name of the manifest file inside a snapshot directory.
MANIFEST_NAME = "manifest.json"

_KIND_URI = 0
_KIND_LITERAL = 1

#: Segment name -> expected dtype (shape is validated per segment below).
_SEGMENT_DTYPES = {
    "terms_blob": np.uint8,
    "terms_offsets": np.int64,
    "terms_kinds": np.uint8,
    "graph_triples": np.int32,
    "matrix_data": np.bool_,
    "matrix_subject_ids": np.int32,
    "matrix_property_ids": np.int32,
    "table_support": np.bool_,
    "table_counts": np.int64,
    "table_property_ids": np.int32,
    "table_member_ids": np.int32,
}


def _sha256_file(path: Path) -> str:
    """Streaming SHA-256 of a file's bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _canonical_manifest_bytes(manifest: Dict[str, object]) -> bytes:
    """The manifest's canonical JSON form (checksum field excluded)."""
    body = {key: value for key, value in manifest.items() if key != "checksum"}
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode("utf-8")


@dataclass(frozen=True)
class SnapshotInfo:
    """The verified identity of one snapshot: manifest metadata, no arrays.

    Returned by :func:`write_snapshot`, :func:`inspect_snapshot` and
    exposed as :attr:`Snapshot.info`; the ``repro snapshot inspect`` CLI
    command renders it.
    """

    #: Filesystem path of the snapshot directory.
    path: str
    #: On-disk format version (see ``SNAPSHOT_VERSION``).
    format_version: int
    #: Dataset display name recorded at save time.
    name: str
    #: Mutation generation of the dataset when it was saved.
    generation: int
    #: Which chain stages the snapshot persists (subset of graph/matrix/table).
    stages: Tuple[str, ...]
    #: Whether the table segment tracks concrete member subjects.
    table_has_members: bool
    #: Entity counts recorded at save time (terms, triples, subjects, ...).
    counts: Dict[str, int] = field(default_factory=dict)
    #: Segment name -> {"file", "bytes", "sha256"}.
    segments: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: ``repro <version>`` string of the writer.
    created_by: str = ""

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serialisable rendering (the ``snapshot inspect`` payload)."""
        return {
            "path": self.path,
            "format_version": self.format_version,
            "name": self.name,
            "generation": self.generation,
            "stages": list(self.stages),
            "table_has_members": self.table_has_members,
            "counts": dict(self.counts),
            "segments": {name: dict(meta) for name, meta in self.segments.items()},
            "created_by": self.created_by,
        }

    @property
    def total_bytes(self) -> int:
        """Total payload size across every segment file."""
        return sum(int(meta["bytes"]) for meta in self.segments.values())


# --------------------------------------------------------------------- #
# Writing
# --------------------------------------------------------------------- #
def _encode_terms(dictionary: TermDictionary) -> Dict[str, np.ndarray]:
    """Lower a term dictionary to its three snapshot segments."""
    encoded = [str(term).encode("utf-8") for term in dictionary]
    offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
    if encoded:
        np.cumsum([len(b) for b in encoded], out=offsets[1:])
    blob = np.frombuffer(b"".join(encoded), dtype=np.uint8).copy()
    kinds = np.fromiter(
        (
            _KIND_LITERAL if isinstance(term, Literal) else _KIND_URI
            for term in dictionary
        ),
        dtype=np.uint8,
        count=len(dictionary),
    )
    return {"terms_blob": blob, "terms_offsets": offsets, "terms_kinds": kinds}


def _ids_of(dictionary: TermDictionary, terms: Sequence[Term]) -> np.ndarray:
    """Intern ``terms`` (appending strangers) and return their IDs."""
    intern = dictionary.intern
    return np.fromiter((intern(t) for t in terms), dtype=np.int32, count=len(terms))


def check_snapshot_target(path: object, *, overwrite: bool = False) -> None:
    """Raise :class:`SnapshotError` unless a snapshot may be written at ``path``.

    A non-existent path is always fine; an existing one needs
    ``overwrite=True`` *and* must already be a snapshot directory (the
    replace machinery refuses to delete arbitrary directories).  Callers
    that do expensive work before writing (``Dataset.save`` builds the
    whole chain) run this first so the refusal is instant.
    """
    target = Path(path)
    if target.exists():
        if not overwrite:
            raise SnapshotError(
                f"snapshot path {str(target)!r} already exists (pass overwrite=True to replace it)"
            )
        if not (target.is_dir() and (target / MANIFEST_NAME).exists()):
            raise SnapshotError(
                f"refusing to overwrite {str(target)!r}: it is not a snapshot directory"
            )


@dataclass
class EncodedChain:
    """An artifact chain lowered to its snapshot segments, not yet on disk.

    Produced by :func:`encode_chain`, consumed by
    :func:`write_encoded_snapshot`.  The split exists for callers holding
    a lock over a *live* chain (``Dataset.save``): encoding must happen
    under the lock — the graph and its dictionary are mutated in place by
    deltas — but the arrays here are private copies (or, for a
    column-backed graph, its read-only columns, which a mutation replaces
    rather than changes), so the expensive part (segment writes and
    SHA-256 hashing) can run with the lock released.
    """

    #: Segment name -> array, exactly as it will be written.
    arrays: Dict[str, np.ndarray]
    #: Which chain stages are present (subset of graph/matrix/table).
    stages: Tuple[str, ...]
    #: Entity counts for the manifest.
    counts: Dict[str, int]
    #: Whether the table segment tracks member subjects.
    table_has_members: bool
    #: Fallback display name harvested from the artifacts.
    default_name: str


def encode_chain(
    graph: Optional[RDFGraph] = None,
    matrix: Optional[PropertyMatrix] = None,
    table: Optional[SignatureTable] = None,
) -> EncodedChain:
    """Lower an artifact chain to snapshot segment arrays (no disk I/O).

    At least one stage must be given; whichever stages are present are
    encoded (a table-born dataset has no graph to save — the manifest
    records exactly which stages a snapshot carries).  The returned
    arrays are independent copies of the inputs, except that a
    column-backed graph's read-only columns are written as they are.
    """
    if graph is None and matrix is None and table is None:
        raise SnapshotError("a snapshot needs at least one of graph, matrix or table")

    # One shared ID space for every segment.  A graph brings its own
    # dictionary (whose IDs the triple segment must use); otherwise a
    # fresh dictionary interns exactly the labels the segments mention.
    dictionary = graph.term_dictionary if graph is not None else TermDictionary()

    arrays: Dict[str, np.ndarray] = {}
    stages: List[str] = []
    counts: Dict[str, int] = {}

    if graph is not None:
        stages.append("graph")
        arrays["graph_triples"] = graph.triple_ids()
        counts["triples"] = len(graph)
    if matrix is not None:
        stages.append("matrix")
        arrays["matrix_data"] = np.array(matrix.data, dtype=bool)
        arrays["matrix_subject_ids"] = _ids_of(dictionary, matrix.subjects)
        arrays["matrix_property_ids"] = _ids_of(dictionary, matrix.properties)
        counts["subjects"] = matrix.n_subjects
        counts["properties"] = matrix.n_properties
    table_has_members = False
    if table is not None:
        stages.append("table")
        arrays["table_support"] = table.support_matrix()
        arrays["table_counts"] = table.count_vector()
        arrays["table_property_ids"] = _ids_of(dictionary, table.properties)
        counts["signatures"] = table.n_signatures
        counts.setdefault("subjects", table.n_subjects)
        counts.setdefault("properties", table.n_properties)
        if table.has_members:
            table_has_members = True
            if matrix is not None and table._subjects is matrix.subjects:
                # The member column holds matrix rows: gather their IDs.
                arrays["table_member_ids"] = arrays["matrix_subject_ids"][table._member_ids]
            else:
                members = table._decode(table._member_ids)
                arrays["table_member_ids"] = _ids_of(dictionary, members)

    # The dictionary segments go last: encoding the other segments may have
    # interned additional labels, and every ID they use must decode.
    arrays.update(_encode_terms(dictionary))
    counts["terms"] = len(dictionary)

    default_name = (table.name if table is not None else "") or (
        graph.name if graph is not None else ""
    )
    return EncodedChain(
        arrays=arrays,
        stages=tuple(stages),
        counts=counts,
        table_has_members=table_has_members,
        default_name=default_name,
    )


class SnapshotWriter:
    """An incremental snapshot writer: stage segments one at a time, swap atomically.

    The streaming-capable half of :func:`write_encoded_snapshot`, usable on
    its own by builders whose segments never exist in memory all at once
    (the out-of-core pipeline in :mod:`repro.storage.outofcore`).  Segments
    are assembled in a sibling staging directory — either handed over as
    complete arrays (:meth:`add_array`) or created as writable ``.npy``
    memory-maps to be filled block by block (:meth:`create_segment`) — and
    :meth:`finalise` then hashes every file, writes the manifest and
    performs the same atomic move-aside/rename/delete swap the one-shot
    writer has always used: at every instant the target path holds either
    a complete snapshot or (first save) nothing.

    A writer is single-use: after :meth:`finalise` or :meth:`abort` it is
    spent.  Abandoning one without calling either leaks the staging
    directory, so builders should abort in their failure paths.
    """

    def __init__(self, path: object, *, overwrite: bool = False):
        check_snapshot_target(path, overwrite=overwrite)
        self._target = Path(path)
        # Unique staging/aside names: concurrent saves to one path (two
        # threads share a PID) must never clobber each other's in-flight
        # directories — each writer gets its own and the final renames race
        # harmlessly (last rename wins a complete snapshot).
        self._token = f"{os.getpid()}-{uuid.uuid4().hex[:12]}"
        self._staging = self._target.with_name(f"{self._target.name}.tmp-{self._token}")
        self._staging.mkdir(parents=True)
        self._files: Dict[str, Path] = {}
        self._memmaps: List[np.memmap] = []
        self._spent = False

    @property
    def staging_dir(self) -> Path:
        """The staging directory segments are assembled in (renamed on finalise)."""
        return self._staging

    def _register(self, segment_name: str) -> Path:
        if self._spent:
            raise SnapshotError("this SnapshotWriter was already finalised or aborted")
        if segment_name not in _SEGMENT_DTYPES:
            raise SnapshotError(f"unknown snapshot segment {segment_name!r}")
        if segment_name in self._files:
            raise SnapshotError(f"segment {segment_name!r} was already staged")
        file_path = self._staging / f"{segment_name}.npy"
        self._files[segment_name] = file_path
        return file_path

    def add_array(self, segment_name: str, array: np.ndarray) -> None:
        """Stage a complete in-memory array as one segment file."""
        file_path = self._register(segment_name)
        np.save(file_path, np.ascontiguousarray(array), allow_pickle=False)

    def create_segment(
        self, segment_name: str, shape: Tuple[int, ...], dtype: object
    ) -> np.ndarray:
        """Create a writable ``.npy`` memory-map for a segment; fill it blockwise.

        This is how the out-of-core builder writes arrays larger than RAM:
        the file is allocated up front (zero-filled) and the caller scatters
        row blocks into the returned map.  The map is flushed and released
        by :meth:`finalise`; the dtype must match the segment's declared
        dtype so a reopened snapshot validates.
        """
        file_path = self._register(segment_name)
        expected = np.dtype(_SEGMENT_DTYPES[segment_name])
        if np.dtype(dtype) != expected:
            raise SnapshotError(
                f"segment {segment_name!r} must have dtype {expected}, got {np.dtype(dtype)}"
            )
        # Zero-element arrays cannot be memory-mapped; np.lib.format still
        # writes a valid header, so fall back to a plain save.
        if int(np.prod(shape)) == 0:
            array = np.zeros(shape, dtype=dtype)
            np.save(file_path, array, allow_pickle=False)
            return array
        mm = np.lib.format.open_memmap(file_path, mode="w+", dtype=dtype, shape=shape)
        self._memmaps.append(mm)
        return mm

    def finalise(
        self,
        *,
        name: str = "",
        generation: int = 0,
        stages: Sequence[str] = (),
        counts: Optional[Dict[str, int]] = None,
        table_has_members: bool = False,
    ) -> SnapshotInfo:
        """Hash every staged segment, write the manifest, swap into place."""
        if self._spent:
            raise SnapshotError("this SnapshotWriter was already finalised or aborted")

        from repro import __version__

        target, staging, token = self._target, self._staging, self._token
        try:
            for mm in self._memmaps:
                mm.flush()
            self._memmaps.clear()
            segments: Dict[str, Dict[str, object]] = {}
            for segment_name in sorted(self._files):
                file_path = self._files[segment_name]
                segments[segment_name] = {
                    "file": file_path.name,
                    "bytes": file_path.stat().st_size,
                    "sha256": _sha256_file(file_path),
                }
            manifest: Dict[str, object] = {
                "magic": SNAPSHOT_MAGIC,
                "format_version": SNAPSHOT_VERSION,
                "created_by": f"repro {__version__}",
                "name": name,
                "generation": int(generation),
                "stages": list(stages),
                "table_has_members": bool(table_has_members),
                "counts": dict(counts or {}),
                "segments": segments,
            }
            manifest["checksum"] = hashlib.sha256(
                _canonical_manifest_bytes(manifest)
            ).hexdigest()
            with open(staging / MANIFEST_NAME, "w", encoding="utf-8") as handle:
                json.dump(manifest, handle, indent=2, sort_keys=True)
                handle.write("\n")
            # Move the old snapshot aside (cheap rename), swing the new one
            # into place, only then delete the old bytes: a crash anywhere in
            # between leaves either the old or the new snapshot at ``path``.
            # Concurrent writers race on the two renames; each loss mode means
            # another writer's *complete* snapshot got there first, so losing
            # is benign — never an error, never a partial state at ``path``.
            replaced = target.with_name(f"{target.name}.old-{token}")
            moved_aside = False
            if target.exists():
                try:
                    os.rename(target, replaced)
                    moved_aside = True
                except FileNotFoundError:
                    pass  # a concurrent writer already swapped the old one away
            try:
                os.rename(staging, target)
            except OSError as error:
                if error.errno not in (errno.ENOTEMPTY, errno.EEXIST):
                    raise
                # Lost the final rename: only complete snapshots are ever
                # renamed to ``path``, so a concurrent writer's is in place
                # (or is being swapped for a newer one); ours is redundant.
                shutil.rmtree(staging)
            if moved_aside:
                shutil.rmtree(replaced)
        except Exception:
            self.abort()
            raise
        self._spent = True
        return _info_from_manifest(target, manifest)

    def abort(self) -> None:
        """Discard the staging directory (idempotent; safe in failure paths)."""
        self._memmaps.clear()
        self._spent = True
        shutil.rmtree(self._staging, ignore_errors=True)


def write_encoded_snapshot(
    path: object,
    encoded: EncodedChain,
    *,
    name: str = "",
    generation: int = 0,
    overwrite: bool = False,
) -> SnapshotInfo:
    """Write an :class:`EncodedChain` as a snapshot directory at ``path``.

    The write is atomic (see :class:`SnapshotWriter`, which this wraps):
    segments and manifest are assembled in a sibling temporary directory,
    an existing snapshot is moved aside, the staging directory is renamed
    into place and only then is the old snapshot deleted — at every
    instant ``path`` either holds a complete snapshot or (for a
    first-time save) nothing.

    Raises :class:`~repro.exceptions.SnapshotError` when ``path`` exists
    and ``overwrite`` is false, or exists and is not a snapshot.
    """
    writer = SnapshotWriter(path, overwrite=overwrite)
    try:
        for segment_name, array in encoded.arrays.items():
            writer.add_array(segment_name, array)
    except Exception:
        writer.abort()
        raise
    return writer.finalise(
        name=name or encoded.default_name,
        generation=generation,
        stages=encoded.stages,
        counts=encoded.counts,
        table_has_members=encoded.table_has_members,
    )


def write_snapshot(
    path: object,
    *,
    graph: Optional[RDFGraph] = None,
    matrix: Optional[PropertyMatrix] = None,
    table: Optional[SignatureTable] = None,
    name: str = "",
    generation: int = 0,
    overwrite: bool = False,
) -> SnapshotInfo:
    """Persist an artifact chain as a snapshot directory at ``path``.

    Convenience composition of :func:`encode_chain` and
    :func:`write_encoded_snapshot` — see those for the stage rules and
    the atomicity guarantees.  Callers serialising a chain that a
    concurrent thread may mutate should call the two halves themselves,
    encoding under their lock and writing outside it (``Dataset.save``
    does).
    """
    return write_encoded_snapshot(
        path,
        encode_chain(graph=graph, matrix=matrix, table=table),
        name=name,
        generation=generation,
        overwrite=overwrite,
    )


def _info_from_manifest(path: Path, manifest: Dict[str, object]) -> SnapshotInfo:
    return SnapshotInfo(
        path=str(path),
        format_version=int(manifest["format_version"]),
        name=str(manifest.get("name", "")),
        generation=int(manifest.get("generation", 0)),
        stages=tuple(manifest.get("stages", ())),
        table_has_members=bool(manifest.get("table_has_members", False)),
        counts={k: int(v) for k, v in dict(manifest.get("counts", {})).items()},
        segments={k: dict(v) for k, v in dict(manifest.get("segments", {})).items()},
        created_by=str(manifest.get("created_by", "")),
    )


# --------------------------------------------------------------------- #
# Reading
# --------------------------------------------------------------------- #
def _read_manifest(path: Path) -> Dict[str, object]:
    """Read and structurally validate ``manifest.json`` (magic, version, checksum)."""
    if not path.is_dir():
        raise SnapshotError(f"snapshot path {str(path)!r} is not a directory")
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.exists():
        raise SnapshotError(f"snapshot {str(path)!r} has no {MANIFEST_NAME}")
    try:
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    # ValueError covers both JSONDecodeError and UnicodeDecodeError, so a
    # byte-corrupted manifest still raises the structured error.
    except (OSError, ValueError) as error:
        raise SnapshotError(f"snapshot manifest {str(manifest_path)!r} is unreadable: {error}") from None
    if not isinstance(manifest, dict) or manifest.get("magic") != SNAPSHOT_MAGIC:
        raise SnapshotError(
            f"{str(path)!r} is not a repro snapshot (bad or missing magic)"
        )
    version = manifest.get("format_version")
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot {str(path)!r} has format version {version!r}; this build "
            f"of repro reads version {SNAPSHOT_VERSION} (rebuild the snapshot "
            "with 'repro snapshot build')"
        )
    recorded = manifest.get("checksum")
    actual = hashlib.sha256(_canonical_manifest_bytes(manifest)).hexdigest()
    if recorded != actual:
        raise SnapshotError(
            f"snapshot manifest {str(manifest_path)!r} failed its checksum "
            f"(recorded {str(recorded)[:12]}…, actual {actual[:12]}…): the "
            "manifest was modified or corrupted"
        )
    segments = manifest.get("segments")
    if not isinstance(segments, dict):
        raise SnapshotError(f"snapshot {str(path)!r} manifest has no segment index")
    for segment_name, meta in segments.items():
        if segment_name not in _SEGMENT_DTYPES:
            raise SnapshotError(
                f"snapshot {str(path)!r} declares unknown segment {segment_name!r}"
            )
        file_name = str(meta.get("file", ""))
        if not file_name or os.path.basename(file_name) != file_name:
            raise SnapshotError(
                f"snapshot segment {segment_name!r} has an invalid file name {file_name!r}"
            )
    return manifest


class Snapshot:
    """An opened, verified snapshot handle with lazy per-segment loading.

    Opening validates the manifest (magic, format version, manifest
    checksum) and every segment file's existence, exact byte size and —
    unless ``verify=False`` — SHA-256 checksum.  Array segments are then
    loaded on demand, memory-mapped read-only by default so reopening a
    large dataset is I/O-bound (pages fault in as they are touched), not
    rebuild-bound.  Construct via :func:`open_snapshot`.
    """

    def __init__(self, path: object, *, mmap: bool = True, verify: bool = True):
        self._path = Path(path)
        self._mmap = mmap
        self._manifest = _read_manifest(self._path)
        self._segments: Dict[str, Dict[str, object]] = self._manifest["segments"]  # type: ignore[assignment]
        self._terms: Optional[List[Term]] = None
        for segment_name, meta in self._segments.items():
            file_path = self._path / str(meta["file"])
            if not file_path.exists():
                raise SnapshotError(
                    f"snapshot {str(self._path)!r} is missing segment file {meta['file']!r}"
                )
            size = file_path.stat().st_size
            if size != int(meta["bytes"]):
                raise SnapshotError(
                    f"snapshot segment {segment_name!r} is truncated or padded: "
                    f"expected {meta['bytes']} bytes, found {size}"
                )
            if verify and _sha256_file(file_path) != meta["sha256"]:
                raise SnapshotError(
                    f"snapshot segment {segment_name!r} failed its SHA-256 checksum: "
                    f"the file {meta['file']!r} drifted from the manifest"
                )
        self.info = _info_from_manifest(self._path, self._manifest)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def path(self) -> Path:
        """The snapshot directory."""
        return self._path

    def has_stage(self, stage: str) -> bool:
        """Whether the snapshot persists ``stage`` ('graph'/'matrix'/'table')."""
        return stage in self.info.stages

    # ------------------------------------------------------------------ #
    # Segment loading
    # ------------------------------------------------------------------ #
    def _load_segment(self, segment_name: str) -> np.ndarray:
        meta = self._segments.get(segment_name)
        if meta is None:
            raise SnapshotError(
                f"snapshot {str(self._path)!r} has no {segment_name!r} segment "
                f"(stages: {', '.join(self.info.stages)})"
            )
        file_path = self._path / str(meta["file"])
        try:
            # Zero-size arrays cannot be memory-mapped; load them normally
            # (there is nothing to page in anyway).
            array = np.load(
                file_path,
                mmap_mode="r" if self._mmap else None,
                allow_pickle=False,
            )
        except ValueError:
            try:
                array = np.load(file_path, allow_pickle=False)
            except (ValueError, OSError) as error:
                raise SnapshotError(
                    f"snapshot segment {segment_name!r} is not a readable .npy file: {error}"
                ) from None
        except OSError as error:
            raise SnapshotError(
                f"snapshot segment {segment_name!r} is not a readable .npy file: {error}"
            ) from None
        expected = _SEGMENT_DTYPES[segment_name]
        if array.dtype != expected:
            raise SnapshotError(
                f"snapshot segment {segment_name!r} has dtype {array.dtype}, expected {np.dtype(expected)}"
            )
        return array

    def _term_list(self) -> List[Term]:
        """Decode the dictionary segments into the ID-ordered term list (cached)."""
        if self._terms is None:
            blob = self._load_segment("terms_blob")
            offsets = self._load_segment("terms_offsets")
            kinds = self._load_segment("terms_kinds")
            if offsets.ndim != 1 or kinds.ndim != 1 or len(offsets) != len(kinds) + 1:
                raise SnapshotError(
                    f"snapshot {str(self._path)!r} has inconsistent term segments"
                )
            text = blob.tobytes()
            bounds = offsets.tolist()
            kind_list = kinds.tolist()
            terms: List[Term] = []
            try:
                for index in range(len(kind_list)):
                    raw = text[bounds[index]:bounds[index + 1]].decode("utf-8")
                    terms.append(Literal(raw) if kind_list[index] == _KIND_LITERAL else URI(raw))
            except (UnicodeDecodeError, IndexError) as error:
                raise SnapshotError(
                    f"snapshot {str(self._path)!r} has an undecodable term blob: {error}"
                ) from None
            self._terms = terms
        return self._terms

    def _decode_ids(self, segment_name: str) -> List[Term]:
        terms = self._term_list()
        ids = self._load_segment(segment_name)
        # Negative IDs must fail loudly *before* list indexing: Python
        # would silently resolve them from the end of the term list and
        # hand back wrong labels (the dangling-ID bug class, see
        # TermDictionary.decode_many).
        if ids.size and int(ids.min()) < 0:
            raise SnapshotError(
                f"snapshot segment {segment_name!r} references negative term IDs"
            )
        try:
            return [terms[i] for i in ids.tolist()]
        except IndexError:
            raise SnapshotError(
                f"snapshot segment {segment_name!r} references term IDs outside "
                f"the dictionary (0..{len(terms) - 1})"
            ) from None

    # ------------------------------------------------------------------ #
    # Artifact reconstruction
    # ------------------------------------------------------------------ #
    def load_dictionary(self) -> TermDictionary:
        """Rebuild the :class:`TermDictionary` (IDs 0..n-1 in stored order)."""
        return TermDictionary(self._term_list())

    def load_graph(self) -> RDFGraph:
        """Wrap the triple segment as a column-backed :class:`RDFGraph`.

        The graph's dictionary is rebuilt with the stored ID assignment,
        so term IDs in this graph equal the snapshot's — and downstream
        views rebuilt from it are bit-identical to the persisted ones.
        The graph's columns are the segment itself (a read-only view of
        the memory-map when the snapshot was opened with ``mmap=True``):
        no triple is replayed, and the cost is decoding the dictionary and
        one bounds check over the IDs.  The graph builds its hash indexes
        on first need (a mutation, say), not here.
        """
        dictionary = self.load_dictionary()
        triples = self._load_segment("graph_triples")
        if triples.ndim != 2 or (triples.size and triples.shape[1] != 3):
            raise SnapshotError(
                f"snapshot {str(self._path)!r} has a malformed triple segment "
                f"(shape {triples.shape})"
            )
        n_terms = len(dictionary)
        if triples.size:
            low, high = int(triples.min()), int(triples.max())
            if low < 0 or high >= n_terms:
                raise SnapshotError(
                    f"snapshot triple segment references term IDs outside the "
                    f"dictionary (0..{n_terms - 1})"
                )
        return RDFGraph.from_triple_ids(triples, dictionary, name=self.info.name)

    def load_matrix(self) -> PropertyMatrix:
        """Reconstruct the :class:`PropertyMatrix` over the mapped data segment."""
        data = self._load_segment("matrix_data")
        subjects = self._decode_ids("matrix_subject_ids")
        properties = self._decode_ids("matrix_property_ids")
        if data.ndim != 2 or data.shape != (len(subjects), len(properties)):
            raise SnapshotError(
                f"snapshot matrix segment shape {data.shape} does not match its "
                f"{len(subjects)} subject / {len(properties)} property labels"
            )
        return PropertyMatrix(data, subjects, properties, name=self.info.name)

    def load_table(self) -> SignatureTable:
        """Reconstruct the :class:`SignatureTable` over the mapped table segments.

        The support, count and member segments become the table's columns
        as they are (read-only views of the memory-map when the snapshot
        was opened with ``mmap=True``): the member column holds term IDs,
        decoded through the term list only when members are asked for.
        The cost is decoding the property labels, one frozenset per
        signature and a bounds check over the member IDs.
        """
        # Plain views of the maps: memmap-typed slices are slow to index.
        support = np.asarray(self._load_segment("table_support"))
        count_vec = np.asarray(self._load_segment("table_counts"))
        properties = tuple(self._decode_ids("table_property_ids"))
        if (
            support.ndim != 2
            or count_vec.ndim != 1
            or support.shape[0] != len(count_vec)
            or (support.size and support.shape[1] != len(properties))
        ):
            raise SnapshotError(
                f"snapshot table segments disagree: support {support.shape}, "
                f"{len(count_vec)} counts, {len(properties)} properties"
            )
        if len(set(properties)) != len(properties):
            raise SnapshotError(f"snapshot {str(self._path)!r} table properties are not distinct")
        if count_vec.size and int(count_vec.min()) < 1:
            raise SnapshotError(f"snapshot {str(self._path)!r} table counts must be positive")
        if not support.size:
            support = np.zeros((len(count_vec), len(properties)), dtype=bool)
        signatures: List[Signature] = [
            frozenset(properties[j] for j in np.flatnonzero(row)) for row in support
        ]
        if len(set(signatures)) != len(signatures):
            raise SnapshotError(
                f"snapshot {str(self._path)!r} table support rows are not distinct"
            )
        member_ids = terms = None
        if self.info.table_has_members:
            member_ids = np.asarray(self._load_segment("table_member_ids"))
            terms = self._term_list()
            if member_ids.ndim != 1 or len(member_ids) != int(count_vec.sum()):
                raise SnapshotError(
                    f"snapshot member segment has {len(member_ids)} subjects; "
                    f"the counts sum to {int(count_vec.sum())}"
                )
            if member_ids.size and (
                int(member_ids.min()) < 0 or int(member_ids.max()) >= len(terms)
            ):
                raise SnapshotError(
                    f"snapshot segment 'table_member_ids' references term IDs outside "
                    f"the dictionary (0..{len(terms) - 1})"
                )
        return SignatureTable._from_columns(
            properties,
            support,
            count_vec,
            member_ids,
            terms,
            self.info.name,
            signatures=tuple(signatures),
            in_order=False,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Snapshot {str(self._path)!r} v{self.info.format_version} "
            f"stages={list(self.info.stages)}>"
        )


def open_snapshot(path: object, *, mmap: bool = True, verify: bool = True) -> Snapshot:
    """Open and verify a snapshot directory; artifacts load lazily from it.

    ``verify=False`` skips the per-segment SHA-256 pass (the manifest
    checksum, magic, version and exact segment sizes are always checked) —
    useful when the same process just wrote the snapshot.
    """
    return Snapshot(path, mmap=mmap, verify=verify)


def inspect_snapshot(path: object, *, verify: bool = True) -> SnapshotInfo:
    """Validate a snapshot and return its :class:`SnapshotInfo` (no arrays loaded)."""
    return Snapshot(path, mmap=True, verify=verify).info
