"""The :class:`Dataset` handle: one long-lived object per dataset.

The paper's workload is many queries over one dataset — evaluate several
structuredness rules, then sweep k and θ refinements over the same
signature table.  ``Dataset`` owns the cached artifact chain

    RDF graph  →  property matrix M(D)  →  signature table  →  (per-rule
    counting views and incremental sweep state, via the caches keyed on
    the table's identity)

so every frontend (CLI, experiments, examples, a future service) amortises
the expensive builds instead of re-deriving them per call.  Each stage is
built at most once; ``stats`` counts the builds so tests can prove it.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.snapshots import SnapshotInfo

from repro.exceptions import DatasetError, RequestError
from repro.api.requests import MutationRequest
from repro.api.results import DatasetInfo, MutationResult
from repro.matrix.property_matrix import PropertyMatrix
from repro.matrix.signatures import SignatureTable
from repro.rdf.graph import RDFGraph
from repro.rdf.interning import TermDictionary
from repro.rdf.ntriples import load_ntriples, parse_ntriples
from repro.telemetry import Telemetry, current as current_telemetry

__all__ = [
    "Dataset",
    "builtin_dataset_names",
    "register_builtin_dataset",
]

#: name -> factory returning a SignatureTable (or an RDFGraph); factories
#: take the generator's keyword parameters (n_subjects, seed, ...).
_BUILTIN_DATASETS: Dict[str, Callable[..., object]] = {}


def _mmap_backed(array: object) -> bool:
    """Whether an array's bytes live in a memory-mapped file (walks view bases)."""
    import numpy as np

    while isinstance(array, np.ndarray):
        if isinstance(array, np.memmap):
            return True
        if array.base is None:
            return False
        array = array.base
    return False


def _detached(graph: RDFGraph, name: str) -> RDFGraph:
    """A column-backed copy of ``graph`` over a fresh dictionary of its own terms.

    The graph's distinct term IDs are interned in ascending order, so the
    ID remap is monotonic: the rows keep their order and stay distinct.
    """
    import numpy as np

    ids = graph.triple_ids()
    source = graph.term_dictionary
    present = np.zeros(len(source), dtype=bool)
    present[ids.ravel()] = True
    dictionary = TermDictionary(source.decode_many(np.flatnonzero(present)))
    remap = (np.cumsum(present, dtype=np.int64) - 1).astype(np.int32)
    return RDFGraph.from_triple_ids(remap[ids], dictionary, name)


def register_builtin_dataset(name: str, factory: Callable[..., object]) -> None:
    """Register a named dataset factory for :meth:`Dataset.builtin`."""
    _BUILTIN_DATASETS[name] = factory


def builtin_dataset_names() -> tuple:
    """The registered built-in dataset names, sorted."""
    return tuple(sorted(_BUILTIN_DATASETS))


def _register_default_builtins() -> None:
    from repro.datasets import (
        dbpedia_persons_table,
        mixed_drug_companies_and_sultans,
        wordnet_nouns_table,
    )

    register_builtin_dataset("dbpedia-persons", dbpedia_persons_table)
    register_builtin_dataset("wordnet-nouns", wordnet_nouns_table)
    register_builtin_dataset(
        "mixed-drug-sultans",
        lambda **params: mixed_drug_companies_and_sultans(**params).table,
    )


class Dataset:
    """A handle over one dataset's cached graph/matrix/signature-table chain.

    Construct through the classmethods (``from_ntriples``, ``builtin``,
    ``from_graph``, ``from_matrix``, ``from_table``); the positional
    constructor is internal.  Accessing ``graph`` / ``matrix`` / ``table``
    builds the corresponding stage once and caches it for the lifetime of
    the handle.
    """

    def __init__(
        self,
        name: str = "",
        *,
        graph: Optional[RDFGraph] = None,
        matrix: Optional[PropertyMatrix] = None,
        table: Optional[SignatureTable] = None,
        graph_factory: Optional[Callable[[], RDFGraph]] = None,
        artifact_factory: Optional[Callable[[], object]] = None,
    ):
        if (
            graph is None
            and matrix is None
            and table is None
            and graph_factory is None
            and artifact_factory is None
        ):
            raise DatasetError("a Dataset needs a graph, matrix, table or a factory for one")
        self._name = name
        self._graph = graph
        self._matrix = matrix
        self._table = table
        self._graph_factory = graph_factory
        # A deferred generator producing either a SignatureTable or an
        # RDFGraph (Dataset.builtin); run at most once, on first access.
        self._artifact_factory = artifact_factory
        #: Always-on counters behind :attr:`stats`.
        self.telemetry = Telemetry()
        for counter in (
            "graph_builds", "matrix_builds", "table_builds", "mutations",
            "matrix_patches", "table_patches", "patch_failures",
            "graph_from_snapshot", "matrix_from_snapshot", "table_from_snapshot",
        ):
            self.telemetry.incr(counter, 0)
        # Set by load(): {"path": ..., "format_version": ...} provenance so
        # registries and /v1/datasets can report snapshot-backed datasets.
        self._snapshot_provenance: Optional[Dict[str, object]] = None
        # Bumped by every mutation that changes the graph; sessions compare
        # it against the generation they last served from to invalidate
        # exactly their stale result caches.
        self._generation = 0
        # Guards the lazy build chain: concurrent accessors (a threaded
        # service serving one dataset to many sessions) must never trigger
        # duplicate graph/matrix/table builds.  Reentrant because the
        # stages call each other (table → matrix → graph).
        self._lock = threading.RLock()

    @property
    def stats(self) -> Dict[str, int]:
        """A copy of the handle's counters.

        How many times each stage of the chain was actually built, how
        many mutations were applied, how often the matrix/table were
        incrementally patched instead of rebuilt, and which stages
        :meth:`load` restored from a snapshot (``*_from_snapshot`` is 1).
        """
        return self.telemetry.counters()

    def _realise_artifact(self) -> None:
        """Run the deferred artifact factory (once) and slot its product in."""
        if self._artifact_factory is None:
            return
        factory, self._artifact_factory = self._artifact_factory, None
        with current_telemetry().span("dataset.artifact_build"):
            artifact = factory()
        if isinstance(artifact, SignatureTable):
            self._table = artifact
            self.telemetry.incr("table_builds")
        elif isinstance(artifact, RDFGraph):
            self._graph = artifact
            self.telemetry.incr("graph_builds")
        else:
            raise DatasetError(
                f"the factory for dataset {self._name!r} must return a SignatureTable "
                f"or RDFGraph, got {type(artifact).__name__}"
            )
        # Prefer the artifact's own display name (e.g. the synthetic
        # generators' descriptive names) over the registry key.
        self._name = getattr(artifact, "name", "") or self._name

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_ntriples(
        cls, path: object, name: str = "", sort: Optional[object] = None
    ) -> "Dataset":
        """A dataset read lazily from an N-Triples file.

        ``sort`` optionally restricts the graph to the subjects declared of
        that ``rdf:type`` (like the CLI's ``--sort``).
        """

        def build() -> RDFGraph:
            graph = load_ntriples(path, name=name or str(path))
            return graph.sort_subgraph(sort) if sort else graph

        return cls(name=name or str(path), graph_factory=build)

    @classmethod
    def from_ntriples_text(
        cls, text: str, name: str = "", sort: Optional[object] = None
    ) -> "Dataset":
        """A dataset parsed lazily from N-Triples source text."""

        def build() -> RDFGraph:
            graph = parse_ntriples(text, name=name)
            return graph.sort_subgraph(sort) if sort else graph

        return cls(name=name, graph_factory=build)

    @classmethod
    def build_out_of_core(
        cls,
        source: object,
        snapshot_path: object,
        *,
        name: str = "",
        sort: Optional[object] = None,
        chunk_triples: Optional[int] = None,
        partitions: Optional[int] = None,
        overwrite: bool = False,
        mmap: bool = True,
    ) -> "Dataset":
        """Build a dataset from N-Triples on disk without holding it in RAM.

        The out-of-core counterpart of ``from_ntriples(...)`` + ``save(...)``:
        the file at ``source`` is stream-parsed in ``chunk_triples``-sized
        chunks and assembled into a snapshot at ``snapshot_path`` in
        ``partitions`` subject-partitioned merge passes (see
        :func:`repro.storage.outofcore.build_out_of_core` for the memory
        model), then reopened with :meth:`load` over memory-mapped
        segments — so neither the build nor the returned handle ever
        materialises the full triple set in memory.  Every artifact is
        bit-identical to the in-memory path; the knobs default to the
        ``REPRO_OOC_CHUNK`` / ``REPRO_OOC_PARTITIONS`` environment
        variables.  ``sort`` means what it means on :meth:`from_ntriples`.
        """
        from repro.storage.outofcore import build_out_of_core

        build_out_of_core(
            source,
            snapshot_path,
            name=name,
            sort=sort,
            chunk_triples=chunk_triples,
            partitions=partitions,
            overwrite=overwrite,
        )
        return cls.load(snapshot_path, name=name, mmap=mmap, verify=False)

    @classmethod
    def builtin(cls, name: str, **params) -> "Dataset":
        """One of the built-in synthetic datasets, by name.

        See :func:`builtin_dataset_names`; ``params`` are forwarded to the
        generator (``n_subjects``, ``seed``, ``max_signatures``, ...).
        Generation is deferred like every other stage of the chain: the
        factory runs on first ``graph``/``matrix``/``table`` access and is
        counted in ``stats``.
        """
        try:
            factory = _BUILTIN_DATASETS[name]
        except KeyError:
            known = ", ".join(builtin_dataset_names()) or "(none)"
            raise DatasetError(f"unknown built-in dataset {name!r}; available: {known}") from None
        return cls(name=name, artifact_factory=lambda: factory(**params))

    @classmethod
    def from_graph(
        cls, graph: RDFGraph, name: str = "", sort: Optional[object] = None
    ) -> "Dataset":
        """Wrap an existing :class:`RDFGraph` (optionally one rdf:type sort of it).

        The handle takes *ownership* for mutation purposes: :meth:`mutate`
        changes the wrapped graph in place and bumps only this handle's
        generation.  Do not wrap one graph object in several handles (or
        keep mutating it directly) — sibling handles cannot see the
        mutation and would serve stale cached views; give each handle its
        own ``graph.copy()`` instead.

        With ``sort``, the restricted view is snapshotted *now* into an
        independent graph (the same timing-independent semantics as
        :meth:`with_sort`): later mutations of ``graph`` do not leak in.
        """
        if sort:
            snapshot = _detached(graph.sort_subgraph(sort), name or graph.name)
            return cls(name=snapshot.name, graph=snapshot)
        return cls(name=name or graph.name, graph=graph)

    @classmethod
    def from_matrix(cls, matrix: PropertyMatrix, name: str = "") -> "Dataset":
        """Wrap an existing property matrix M(D)."""
        return cls(name=name or matrix.name, matrix=matrix)

    @classmethod
    def load(
        cls, path: object, *, name: str = "", mmap: bool = True, verify: bool = True
    ) -> "Dataset":
        """Reopen a dataset persisted with :meth:`save` — a zero-rebuild warm start.

        The snapshot's matrix and signature table are restored immediately
        (memory-mapped read-only when ``mmap`` is true, so the open is
        I/O-bound).  The RDF graph is restored on first :attr:`graph`
        access, as a column-backed graph over the ``graph_triples``
        segment (mapped too under ``mmap``): that costs decoding the term
        dictionary and no triple replay, and the graph builds its hash
        indexes only when first asked for something its columns cannot
        answer (a mutation, say).  ``stats`` reports which
        stages came from disk (``*_from_snapshot``), the persisted
        mutation generation is carried over so ``mutate`` + re-:meth:`save`
        round-trips, and ``name`` overrides the manifest's display name.
        See DESIGN.md, "Persistence & snapshots".

        Raises :class:`~repro.exceptions.SnapshotError` for anything other
        than a complete, checksum-clean snapshot.
        """
        from repro.storage.snapshots import open_snapshot

        with current_telemetry().span("dataset.snapshot_load"):
            snapshot = open_snapshot(path, mmap=mmap, verify=verify)
        matrix = snapshot.load_matrix() if snapshot.has_stage("matrix") else None
        table = snapshot.load_table() if snapshot.has_stage("table") else None
        graph_factory = snapshot.load_graph if snapshot.has_stage("graph") else None
        dataset = cls(
            name=name or snapshot.info.name,
            matrix=matrix,
            table=table,
            graph_factory=graph_factory,
        )
        dataset._generation = snapshot.info.generation
        for stage in snapshot.info.stages:
            dataset.telemetry.incr(f"{stage}_from_snapshot")
        dataset._snapshot_provenance = {
            "path": str(snapshot.path),
            "format_version": snapshot.info.format_version,
        }
        return dataset

    def save(
        self, path: object, *, name: Optional[str] = None, overwrite: bool = False
    ) -> "SnapshotInfo":
        """Persist the whole artifact chain as a snapshot directory at ``path``.

        Whatever stages this handle can produce are built (once, through
        the normal cached chain) and written: graph-born datasets persist
        graph + matrix + table, matrix-born ones matrix + table, and
        table-born ones (e.g. the synthetic builtins) just the table.  The
        handle's mutation generation is recorded so a loaded copy
        continues the same version sequence, and ``name`` overrides the
        display name written to the manifest.  Returns the
        :class:`~repro.storage.snapshots.SnapshotInfo` of the written
        snapshot; see :meth:`load` for the warm-start path.
        """
        from repro.storage.snapshots import (
            check_snapshot_target,
            encode_chain,
            write_encoded_snapshot,
        )

        # Refuse an unwritable target *before* building the chain (the
        # write re-checks, so a race still fails safely — just later).
        check_snapshot_target(path, overwrite=overwrite)
        # Encode under the lock (the graph and its dictionary mutate in
        # place, so the segment arrays must be derived from a quiescent
        # chain), but run the expensive part — segment writes and SHA-256
        # hashing — with the lock released, so concurrent queries on this
        # dataset are not stalled behind disk I/O.
        with self._lock:
            table = self.table
            graph = None
            if self._graph is not None or self._graph_factory is not None:
                graph = self.graph
            matrix = self.matrix if graph is not None else self._matrix
            encoded = encode_chain(graph=graph, matrix=matrix, table=table)
            snapshot_name = name or self._name
            generation = self._generation
        with current_telemetry().span("dataset.snapshot_save"):
            return write_encoded_snapshot(
                path,
                encoded,
                name=snapshot_name,
                generation=generation,
                overwrite=overwrite,
            )

    def residency(self) -> Dict[str, Dict[str, int]]:
        """Which chain stages are disk-resident (mmap-backed) vs in RAM, right now.

        ``stats``' ``*_from_snapshot`` markers say where a stage *came
        from*; this reports where its bytes *live*: per stage, ``built``
        (0/1), ``mmap_segments`` (how many of its backing arrays are views
        over memory-mapped snapshot segments), ``mapped_bytes`` (their
        payload size — paged in on demand, evictable by the OS) and
        ``resident_bytes`` (payload of the arrays that are ordinary heap
        memory).  After :meth:`load` the matrix's cell array and the
        table's support, count and member columns stay mapped.  A
        mutation patches the matrix and the table's count and member
        columns into fresh heap arrays; the table's support stays mapped
        until a mutation creates, drops or reorders a signature or
        changes the property universe.  The table's arrays are its support
        matrix, count vector, member column and (once a patch or
        ``signature_of`` has built it) its row → signature array.  A
        column-backed graph is accounted by
        its ID-triple array like the other stages (mapped when it is a
        view of the snapshot segment); once it has built its hash indexes
        (Python dicts, no array backing) its ``resident_bytes`` is the
        12-bytes-per-triple ID payload, a deliberate lower bound.

        Does not force any build: unbuilt stages report ``built: 0`` and
        zero bytes.
        """
        with self._lock:
            report: Dict[str, Dict[str, int]] = {}

            def account(stage: str, arrays) -> None:
                mmap_segments = 0
                mapped = resident = 0
                for array in arrays:
                    if _mmap_backed(array):
                        mmap_segments += 1
                        mapped += int(array.nbytes)
                    else:
                        resident += int(array.nbytes)
                report[stage] = {
                    "built": 1,
                    "mmap_segments": mmap_segments,
                    "mapped_bytes": mapped,
                    "resident_bytes": resident,
                }

            unbuilt = {"built": 0, "mmap_segments": 0, "mapped_bytes": 0, "resident_bytes": 0}
            if self._graph is None:
                report["graph"] = dict(unbuilt)
            else:
                # The graph's backing array while column-backed (read once:
                # an index build may drop it meanwhile).
                columns = self._graph._columns
                if columns is not None:
                    account("graph", [columns])
                else:
                    report["graph"] = dict(
                        unbuilt, built=1, resident_bytes=12 * len(self._graph)
                    )
            if self._matrix is not None:
                account("matrix", [self._matrix.data])
            else:
                report["matrix"] = dict(unbuilt)
            if self._table is not None:
                # The table's backing arrays, not the copying accessors —
                # residency must inspect the arrays the stage actually holds.
                table = self._table
                account("table", [
                    array
                    for array in (
                        table._count_vec,
                        table._support_bool,
                        table._member_ids,
                        table._row_signature,
                    )
                    if array is not None
                ])
            else:
                report["table"] = dict(unbuilt)
            return report

    @property
    def snapshot_provenance(self) -> Optional[Dict[str, object]]:
        """Where this handle was loaded from (path + format version), or ``None``.

        Only set by :meth:`load`; registries surface it so ``/v1/datasets``
        shows which datasets are snapshot-backed.
        """
        return dict(self._snapshot_provenance) if self._snapshot_provenance else None

    @classmethod
    def from_table(cls, table: SignatureTable, name: str = "") -> "Dataset":
        """Wrap an existing signature table."""
        return cls(name=name or table.name, table=table)

    # ------------------------------------------------------------------ #
    # The cached artifact chain
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """The dataset's human-readable display name."""
        return self._name

    @property
    def graph(self) -> RDFGraph:
        """The RDF graph (built once; unavailable for table/matrix-born datasets)."""
        with self._lock:
            if self._graph is None:
                self._realise_artifact()
            if self._graph is None:
                if self._graph_factory is None:
                    raise DatasetError(
                        f"dataset {self._name!r} was constructed without an RDF graph; "
                        "only its matrix/signature-table views are available"
                    )
                with current_telemetry().span("dataset.graph_build"):
                    self._graph = self._graph_factory()
                self.telemetry.incr("graph_builds")
            return self._graph

    @property
    def matrix(self) -> PropertyMatrix:
        """The property-structure view M(D) (built once from the graph)."""
        with self._lock:
            if self._matrix is None:
                if self._table is None:
                    self._realise_artifact()
                if self._table is not None and self._graph is None and self._graph_factory is None:
                    raise DatasetError(
                        f"dataset {self._name!r} was constructed from a signature table; "
                        "the per-subject property matrix is not available"
                    )
                graph = self.graph
                with current_telemetry().span("dataset.matrix_build"):
                    self._matrix = PropertyMatrix.from_graph(graph)
                self.telemetry.incr("matrix_builds")
            return self._matrix

    @property
    def table(self) -> SignatureTable:
        """The signature table (built once from the matrix or graph)."""
        with self._lock:
            if self._table is None:
                self._realise_artifact()
            if self._table is None:
                matrix = self._matrix if self._matrix is not None else self.matrix
                with current_telemetry().span("dataset.table_build"):
                    self._table = SignatureTable.from_matrix(matrix)
                self.telemetry.incr("table_builds")
            return self._table

    @property
    def info(self) -> DatasetInfo:
        """Serialisable identifying statistics (forces the table build)."""
        table = self.table
        return DatasetInfo(
            name=self._name or table.name,
            n_subjects=table.n_subjects,
            n_properties=table.n_properties,
            n_signatures=table.n_signatures,
        )

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    @property
    def generation(self) -> int:
        """How many graph-changing mutations this dataset has seen."""
        with self._lock:
            return self._generation

    def mutate(self, request: object = None, /, *, add=(), remove=()) -> MutationResult:
        """Apply a triple delta to the graph and maintain the cached chain.

        Accepts a :class:`~repro.api.requests.MutationRequest` or
        ``add=`` / ``remove=`` keyword collections of triples.  Removals
        run before insertions.  Whatever downstream stages are already
        built are *incrementally patched* — ``PropertyMatrix.apply_delta``
        and ``SignatureTable.apply_delta`` re-derive only the touched
        subjects, bit-identical to a from-scratch rebuild — and the
        generation counter tells owning sessions to drop their result
        caches.  Per-table derived views (counting tables, encoder state)
        are keyed on the table's *identity* and the patched table is a new
        object, so they can never serve stale data.

        Change detection is per applied triple, deliberately conservative:
        a request that removes and re-inserts the same triple nets to no
        graph change but still counts as a mutation (generation bumps,
        caches invalidate) — over-invalidation is always safe, staleness
        never is.

        Raises :class:`~repro.exceptions.DatasetError` for datasets built
        directly from a matrix or signature table: mutation needs the
        graph stage.
        """
        if request is None:
            # validated() rejects non-collection values with a message
            # naming the field, so no pre-coercion here.
            req = MutationRequest(add=add, remove=remove).validated()
        elif isinstance(request, MutationRequest):
            if add or remove:
                raise RequestError(
                    "pass either a MutationRequest or add=/remove= keywords, not both"
                )
            req = request.validated()
        else:
            raise RequestError(
                f"mutate needs a MutationRequest or add=/remove= keywords, "
                f"got {request!r}"
            )
        telemetry = current_telemetry()
        with self._lock, telemetry.span("dataset.mutate"):
            graph = self.graph  # DatasetError for matrix/table-born datasets
            # validated() fully coerced every term up front, so applying
            # the delta cannot fail half-way and the mutation is atomic.
            with telemetry.span("dataset.graph_delta"):
                delta = graph.remove_triples(req.remove).merge(graph.add_triples(req.add))
            if not delta.is_empty:
                self._generation += 1
                self.telemetry.incr("mutations")
                try:
                    matrix_patched = table_patched = False
                    if self._matrix is not None:
                        with telemetry.span("dataset.matrix_patch"):
                            self._matrix = self._matrix.apply_delta(graph, delta)
                        matrix_patched = True
                    if self._table is not None:
                        if self._matrix is not None and self._table.has_members:
                            with telemetry.span("dataset.table_patch"):
                                self._table = self._table.apply_delta(self._matrix, delta)
                            table_patched = True
                        else:
                            # No per-subject provenance to patch from: drop
                            # the stage and let the next access rebuild it.
                            self._table = None
                    # Counted only once the whole chain patched: a patch
                    # that was discarded by the failure path below must not
                    # inflate the zero-redundant-build accounting.
                    self.telemetry.incr("matrix_patches", int(matrix_patched))
                    self.telemetry.incr("table_patches", int(table_patched))
                except Exception:
                    # The graph already changed, so a validated mutation
                    # must still *succeed* — otherwise distributed callers
                    # (pool workers replaying a mutation log) would treat
                    # an applied mutation as failed and diverge.  Degrade:
                    # drop the chain, let the next access rebuild from the
                    # mutated graph, and count the event.
                    self._matrix = None
                    self._table = None
                    self.telemetry.incr("patch_failures")
                    telemetry.incr("dataset.patch_failures")
            return MutationResult(
                dataset=self._name,
                generation=self._generation,
                added=delta.added,
                removed=delta.removed,
                touched_subjects=len(delta.subjects),
                n_triples=len(graph),
                n_subjects=graph.n_subjects,
            )

    # ------------------------------------------------------------------ #
    # Derived datasets and sessions
    # ------------------------------------------------------------------ #
    def with_sort(self, sort: object, name: str = "") -> "Dataset":
        """A new handle restricted to the subjects of one explicit sort.

        The derived handle is a *snapshot*: the subgraph is extracted
        immediately (under this dataset's lock, so a concurrent mutation
        cannot tear it) into an independent graph with its own term
        dictionary.  Later mutations of either handle never propagate to
        the other — the same snapshot semantics :meth:`folded` has.
        """
        with self._lock:
            subgraph = self.graph.sort_subgraph(sort)
        snapshot = _detached(subgraph, name or f"{self._name} [{sort}]")
        return Dataset(name=snapshot.name, graph=snapshot)

    def folded(self, max_signatures: int, name: str = "") -> "Dataset":
        """A new handle whose signature tail is folded to ``max_signatures``.

        Uses :func:`repro.datasets.cap_signatures`; the experiments fold the
        σSim tables this way to keep the quadratic encoding tractable.
        """
        from repro.datasets import cap_signatures

        table = cap_signatures(self.table, max_signatures)
        return Dataset(name=name or f"{self._name} (<= {max_signatures} signatures)", table=table)

    def session(self, **options) -> "StructurednessSession":
        """Open a :class:`~repro.api.session.StructurednessSession` over this dataset."""
        from repro.api.session import StructurednessSession

        return StructurednessSession(self, **options)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        stages = [
            stage
            for stage, value in (
                ("graph", self._graph),
                ("matrix", self._matrix),
                ("table", self._table),
            )
            if value is not None
        ]
        return f"<Dataset {self._name!r} cached={stages}>"


_register_default_builtins()
