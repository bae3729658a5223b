"""An in-memory RDF graph (triple store) over interned term IDs.

This is the storage substrate on which the whole reproduction sits.  Terms
are interned into dense ``int32`` IDs through a
:class:`~repro.rdf.interning.TermDictionary`, and a graph holds its
triples in one of two forms over those IDs:

* **columns** — one read-only ``(n, 3) int32`` array of distinct ID
  triples.  Parsed graphs (:func:`~repro.rdf.ntriples.load_ntriples`,
  :func:`~repro.rdf.ntriples.parse_ntriples`, sorted by ID) and graphs
  reopened from a snapshot (a view of its memory-mapped ``graph_triples``
  segment) start this way.  The columns answer ``len``, ``S(D)``,
  ``P(D)``, the ``M(D)`` coordinates, the ID-triple array and ``D_t``,
  which is all an N-Triples → signature table → snapshot build reads.
* **indexes** — three hash indexes (SPO, POS, OSP) so that every other
  access pattern is O(1)/O(result) while hashing and equality cost a
  machine word instead of a string.  They are built from the columns,
  once, on the first mutation, pattern match, iteration or set operation
  (the ``rdf.graph_index`` span), and the columns are dropped then.

The access patterns the paper needs:

* ``S(D)``     — the set of subjects mentioned in ``D``;
* ``P(D)``     — the set of properties mentioned in ``D``;
* ``s has p``  — does subject ``s`` have property ``p`` in ``D``;
* ``D_t``      — the subgraph of all triples whose subject is typed ``t``;
* entity extraction — all triples with a given subject (an *entity* in the
  terminology of Section 4).

The public API stays term-level (URIs and literals in, URIs and literals
out); the ID representation additionally surfaces as NumPy arrays
(:meth:`RDFGraph.subject_property_ids`, :meth:`RDFGraph.triple_ids`) that
the vectorised signature pipeline consumes directly — see DESIGN.md,
"Interned-ID architecture".
"""

from __future__ import annotations

import gc
import threading
from dataclasses import dataclass
from itertools import chain
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.exceptions import RDFError
from repro.rdf.interning import NO_ID, TermDictionary
from repro.rdf.namespaces import RDF
from repro.rdf.terms import Literal, Term, Triple, URI, coerce_object, coerce_uri
from repro.telemetry import current as current_telemetry

__all__ = ["RDFGraph", "GraphDelta", "distinct_triple_rows"]

#: Serialises index builds, so two threads never build one graph's indexes
#: twice and the collector pause below nests instead of interleaving.
_INDEX_LOCK = threading.Lock()


def distinct_triple_rows(ids: np.ndarray) -> np.ndarray:
    """Sort an ``(n, 3)`` ID-triple array by (s, p, o) and drop repeated rows."""
    rows = ids[np.lexsort((ids[:, 2], ids[:, 1], ids[:, 0]))]
    if len(rows) < 2:
        return rows
    keep = np.ones(len(rows), dtype=bool)
    np.any(rows[1:] != rows[:-1], axis=1, out=keep[1:])
    return rows[keep]


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a 1-D integer array.

    A sort and an adjacent compare: on a 106k-row ID column (NumPy 2.4)
    this takes about 1 ms where ``np.unique`` takes 6–40 ms.
    """
    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


@dataclass(frozen=True)
class GraphDelta:
    """The term-level footprint of an in-place graph mutation.

    :meth:`RDFGraph.add_triples` / :meth:`RDFGraph.remove_triples` return
    one of these so downstream views (``PropertyMatrix.apply_delta``,
    ``SignatureTable.apply_delta``) can re-derive exactly the touched
    subjects instead of rebuilding from scratch.  Only triples that
    *actually changed* the graph contribute: no-op inserts of present
    triples and no-op deletes of absent triples leave the delta empty.

    ``subjects`` and ``properties`` are conservative *touch* sets — a
    mentioned subject may end up with the same property row it had before
    (e.g. when only the object multiplicity of a pair changed); consumers
    must consult the mutated graph for current truth.
    """

    #: Number of triples the mutation actually added.
    added: int
    #: Number of triples the mutation actually removed.
    removed: int
    #: Subjects whose entity (set of outgoing triples) changed.
    subjects: FrozenSet[URI]
    #: Properties occurring in a changed triple (universe may have changed).
    properties: FrozenSet[URI]

    @property
    def is_empty(self) -> bool:
        """Whether the mutation changed the graph at all."""
        return self.added == 0 and self.removed == 0

    def merge(self, other: "GraphDelta") -> "GraphDelta":
        """Combine two deltas applied in sequence to the same graph."""
        return GraphDelta(
            added=self.added + other.added,
            removed=self.removed + other.removed,
            subjects=self.subjects | other.subjects,
            properties=self.properties | other.properties,
        )

    @classmethod
    def empty(cls) -> "GraphDelta":
        return cls(added=0, removed=0, subjects=frozenset(), properties=frozenset())


class RDFGraph:
    """A finite set of RDF triples with subject/predicate/object indexes.

    The class behaves like a set of :class:`~repro.rdf.terms.Triple`
    (supports ``len``, ``in``, iteration, union/difference) and adds the
    schema-oriented accessors used throughout the paper.

    Parameters
    ----------
    triples:
        Optional iterable of triples (or ``(s, p, o)`` tuples of strings)
        to load into the new graph.
    name:
        Optional human-readable name used in ``repr`` and reports.
    dictionary:
        Optional :class:`TermDictionary` to intern terms in.  Subgraph
        constructors pass the parent's dictionary so derived graphs share
        one ID space (IDs are never recycled, so sharing is always safe);
        by default every graph gets its own dictionary.

    A graph built this way is indexed from the start; see
    :meth:`from_triple_ids` for the column-backed form.
    """

    __slots__ = ("_dict", "_columns", "_spo", "_pos", "_osp", "_size", "name")

    def __init__(
        self,
        triples: Optional[Iterable] = None,
        name: str = "",
        dictionary: Optional[TermDictionary] = None,
    ):
        self._dict: TermDictionary = dictionary if dictionary is not None else TermDictionary()
        # Read-only (n, 3) int32 distinct ID triples while column-backed,
        # None once the indexes below exist (see _index).
        self._columns: Optional[np.ndarray] = None
        # subject id -> predicate id -> set of object ids
        self._spo: Dict[int, Dict[int, Set[int]]] = {}
        # predicate id -> subject id -> set of object ids
        self._pos: Dict[int, Dict[int, Set[int]]] = {}
        # object id -> set of (subject id, predicate id)
        self._osp: Dict[int, Set[Tuple[int, int]]] = {}
        self._size = 0
        self.name = name
        if triples is not None:
            self.update(triples)

    @classmethod
    def from_triple_ids(
        cls, ids: np.ndarray, dictionary: TermDictionary, name: str = ""
    ) -> "RDFGraph":
        """A column-backed graph over an ``(n, 3) int32`` array of term IDs.

        The rows must be distinct (:func:`distinct_triple_rows` makes them
        so) and every ID must decode in ``dictionary``, which the graph
        shares.  The array is kept, not copied: the graph holds a read-only
        view of it, so a memory-mapped snapshot segment stays mapped.  The
        hash indexes are built from it on first need (see the module
        docstring).
        """
        ids = np.asarray(ids)
        if ids.size == 0:
            ids = ids.reshape(0, 3)
        if ids.dtype != np.int32 or ids.ndim != 2 or ids.shape[1] != 3:
            raise RDFError(
                f"triple IDs must be an (n, 3) int32 array, got {ids.dtype} {ids.shape}"
            )
        columns = ids.view()
        columns.flags.writeable = False
        graph = cls(name=name, dictionary=dictionary)
        graph._spo = graph._pos = graph._osp = None
        graph._size = len(columns)
        graph._columns = columns
        return graph

    def _index(self) -> None:
        """Build the SPO/POS/OSP hash indexes from the columns, then drop them.

        Idempotent, and the only place the columns are dropped: every
        mutator and every pattern, iteration or set operation calls it
        first.  The three dicts are filled locally and assigned before
        ``_columns`` is cleared, so a concurrent reader sees either the
        columns or the finished indexes.  The cyclic garbage collector is
        paused meanwhile — the indexes are one tracked set or dict per
        subject, property, (s, p) pair and object, so collections would
        otherwise rescan an ever larger heap — and the caller's collector
        state is restored afterwards, whether or not the build raised.
        """
        if self._columns is None:
            return
        with _INDEX_LOCK:
            columns = self._columns
            if columns is None:
                return
            with current_telemetry().span("rdf.graph_index"):
                spo: Dict[int, Dict[int, Set[int]]] = {}
                pos: Dict[int, Dict[int, Set[int]]] = {}
                osp: Dict[int, Set[Tuple[int, int]]] = {}
                collecting = gc.isenabled()
                gc.disable()
                try:
                    for s_id, p_id, o_id in columns.tolist():
                        predicates = spo.get(s_id)
                        if predicates is None:
                            predicates = spo[s_id] = {}
                        objects = predicates.get(p_id)
                        if objects is None:
                            predicates[p_id] = {o_id}
                        else:
                            objects.add(o_id)
                        subjects = pos.get(p_id)
                        if subjects is None:
                            subjects = pos[p_id] = {}
                        objects = subjects.get(s_id)
                        if objects is None:
                            subjects[s_id] = {o_id}
                        else:
                            objects.add(o_id)
                        pairs = osp.get(o_id)
                        if pairs is None:
                            osp[o_id] = {(s_id, p_id)}
                        else:
                            pairs.add((s_id, p_id))
                finally:
                    if collecting:
                        gc.enable()
            self._spo, self._pos, self._osp = spo, pos, osp
            self._columns = None

    # ------------------------------------------------------------------ #
    # Interning helpers
    # ------------------------------------------------------------------ #
    @property
    def term_dictionary(self) -> TermDictionary:
        """The dictionary interning this graph's terms (shared, not copied)."""
        return self._dict

    def _term(self, term_id: int) -> Term:
        return self._dict.term_of(term_id)

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add(self, subject: object, predicate: object = None, obj: object = None) -> bool:
        """Add a triple; return ``True`` if the graph changed.

        Accepts either a single :class:`Triple`/3-tuple argument or three
        separate term arguments.  Plain strings are coerced to URIs.
        """
        if predicate is None and obj is None:
            if isinstance(subject, Triple):
                s, p, o = subject
            elif isinstance(subject, tuple) and len(subject) == 3:
                s, p, o = subject
            else:
                raise RDFError(
                    "add() needs a Triple, a 3-tuple, or three separate terms"
                )
        else:
            s, p, o = subject, predicate, obj
        return self._add_ids(
            self._dict.intern(coerce_uri(s)),
            self._dict.intern(coerce_uri(p)),
            self._dict.intern(coerce_object(o)),
        )

    def _add_ids(self, s_id: int, p_id: int, o_id: int) -> bool:
        """Add an already-interned triple; return ``True`` if the graph changed."""
        if self._columns is not None:
            self._index()
        objects = self._spo.setdefault(s_id, {}).setdefault(p_id, set())
        if o_id in objects:
            return False
        objects.add(o_id)
        self._pos.setdefault(p_id, {}).setdefault(s_id, set()).add(o_id)
        self._osp.setdefault(o_id, set()).add((s_id, p_id))
        self._size += 1
        return True

    def update(self, triples: Iterable) -> int:
        """Add every triple in ``triples``; return how many were new."""
        if isinstance(triples, RDFGraph):
            # Fast path: translate the other graph's IDs directly.
            added = 0
            other_term = triples._dict.term_of
            intern = self._dict.intern
            for s_id, p_id, o_id in triples.triple_ids().tolist():
                if self._add_ids(
                    intern(other_term(s_id)), intern(other_term(p_id)), intern(other_term(o_id))
                ):
                    added += 1
            return added
        added = 0
        for triple in triples:
            if self.add(triple):
                added += 1
        return added

    def remove(self, subject: object, predicate: object = None, obj: object = None) -> bool:
        """Remove a triple; return ``True`` if it was present."""
        if predicate is None and obj is None:
            if isinstance(subject, (Triple, tuple)) and len(subject) == 3:
                s, p, o = subject
            else:
                raise RDFError("remove() needs a Triple, a 3-tuple, or three terms")
        else:
            s, p, o = subject, predicate, obj
        s_id = self._dict.id_of(coerce_uri(s))
        p_id = self._dict.id_of(coerce_uri(p))
        o_id = self._dict.id_of(coerce_object(o))
        if NO_ID in (s_id, p_id, o_id):
            return False
        self._index()
        objects = self._spo.get(s_id, {}).get(p_id)
        if objects is None or o_id not in objects:
            return False
        objects.discard(o_id)
        if not objects:
            del self._spo[s_id][p_id]
            if not self._spo[s_id]:
                del self._spo[s_id]
        pos_objects = self._pos[p_id][s_id]
        pos_objects.discard(o_id)
        if not pos_objects:
            del self._pos[p_id][s_id]
            if not self._pos[p_id]:
                del self._pos[p_id]
        self._osp[o_id].discard((s_id, p_id))
        if not self._osp[o_id]:
            del self._osp[o_id]
        self._size -= 1
        return True

    @staticmethod
    def _coerce_batch(triples: Iterable) -> List[Tuple[URI, URI, Term]]:
        """Coerce a whole batch of triple entries up front.

        Batch mutations are atomic: every entry is validated and coerced
        *before* any index is touched, so an ill-typed entry raises with
        the graph (and any delta-maintained downstream view) unchanged.
        """
        coerced: List[Tuple[URI, URI, Term]] = []
        for entry in triples:
            if not (isinstance(entry, (Triple, tuple, list)) and len(entry) == 3):
                raise RDFError(
                    f"expected a Triple or an (s, p, o) 3-sequence, got {entry!r}"
                )
            coerced.append(
                (coerce_uri(entry[0]), coerce_uri(entry[1]), coerce_object(entry[2]))
            )
        return coerced

    def add_triples(self, triples: Iterable) -> GraphDelta:
        """Add a batch of triples in place; return the :class:`GraphDelta`.

        Entries may be :class:`Triple` instances or ``(s, p, o)``
        3-sequences of terms/strings (strings are coerced to URIs, like
        :meth:`add`).  The whole batch is coerced before anything is
        applied, so an invalid entry leaves the graph untouched.  The
        delta records only the triples that were not already present.
        """
        entries = self._coerce_batch(triples)
        intern = self._dict.intern
        touched_s: Set[URI] = set()
        touched_p: Set[URI] = set()
        added = 0
        for s, p, o in entries:
            if self._add_ids(intern(s), intern(p), intern(o)):
                added += 1
                touched_s.add(s)
                touched_p.add(p)
        return GraphDelta(
            added=added,
            removed=0,
            subjects=frozenset(touched_s),
            properties=frozenset(touched_p),
        )

    def remove_triples(self, triples: Iterable) -> GraphDelta:
        """Remove a batch of triples in place; return the :class:`GraphDelta`.

        The whole batch is coerced before anything is applied (like
        :meth:`add_triples`).  Absent triples (and triples over unknown
        terms) are silently skipped; they do not appear in the delta.
        Interned terms are kept in the dictionary even when their last
        triple disappears — IDs are never recycled, so a later re-insert
        of the same term reuses its original ID (see
        :class:`~repro.rdf.interning.TermDictionary`).
        """
        entries = self._coerce_batch(triples)
        touched_s: Set[URI] = set()
        touched_p: Set[URI] = set()
        removed = 0
        for s, p, o in entries:
            if self.remove(s, p, o):
                removed += 1
                touched_s.add(s)
                touched_p.add(p)
        return GraphDelta(
            added=0,
            removed=removed,
            subjects=frozenset(touched_s),
            properties=frozenset(touched_p),
        )

    def remove_entity(self, subject: object) -> int:
        """Remove every triple whose subject is ``subject``; return the count."""
        s = coerce_uri(subject)
        removed = 0
        for triple in list(self.triples_for_subject(s)):
            if self.remove(triple):
                removed += 1
        return removed

    def clear(self) -> None:
        """Remove every triple from the graph (interned terms are kept)."""
        self._index()
        self._spo.clear()
        self._pos.clear()
        self._osp.clear()
        self._size = 0

    # ------------------------------------------------------------------ #
    # Set-like protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __contains__(self, triple: object) -> bool:
        if not isinstance(triple, (Triple, tuple)) or len(triple) != 3:
            return False
        s, p, o = triple
        try:
            s_id = self._dict.id_of(coerce_uri(s))
            p_id = self._dict.id_of(coerce_uri(p))
            o_id = self._dict.id_of(coerce_object(o))
        except RDFError:
            return False
        if NO_ID in (s_id, p_id, o_id):
            return False
        self._index()
        return o_id in self._spo.get(s_id, {}).get(p_id, ())

    def __iter__(self) -> Iterator[Triple]:
        self._index()
        term = self._dict.term_of
        for s_id, predicates in self._spo.items():
            s = term(s_id)
            for p_id, objects in predicates.items():
                p = term(p_id)
                for o_id in objects:
                    yield Triple(s, p, term(o_id))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RDFGraph):
            return NotImplemented
        if len(self) != len(other):
            return False
        return all(triple in other for triple in self)

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __or__(self, other: "RDFGraph") -> "RDFGraph":
        result = self.copy()
        result.update(other)
        return result

    def __sub__(self, other: "RDFGraph") -> "RDFGraph":
        result = RDFGraph(name=self.name, dictionary=self._dict)
        for triple in self:
            if triple not in other:
                result.add(triple)
        return result

    def __and__(self, other: "RDFGraph") -> "RDFGraph":
        small, large = (self, other) if len(self) <= len(other) else (other, self)
        result = RDFGraph(name=self.name, dictionary=self._dict)
        for triple in small:
            if triple in large:
                result.add(triple)
        return result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        return f"<RDFGraph{label}: {self._size} triples, {self.n_subjects} subjects>"

    def copy(self, name: Optional[str] = None) -> "RDFGraph":
        """Return a shallow copy of the graph (triples are immutable).

        A column-backed graph's copy shares its read-only columns.
        """
        name = self.name if name is None else name
        columns = self._columns
        if columns is not None:
            return RDFGraph.from_triple_ids(columns, self._dict, name)
        result = RDFGraph(name=name, dictionary=self._dict)
        for s_id, predicates in self._spo.items():
            for p_id, objects in predicates.items():
                for o_id in objects:
                    result._add_ids(s_id, p_id, o_id)
        return result

    def isdisjoint(self, other: "RDFGraph") -> bool:
        """Return ``True`` when the two graphs share no triple."""
        small, large = (self, other) if len(self) <= len(other) else (other, self)
        return not any(triple in large for triple in small)

    # ------------------------------------------------------------------ #
    # Pattern matching
    # ------------------------------------------------------------------ #
    def triples(
        self,
        subject: object = None,
        predicate: object = None,
        obj: object = None,
    ) -> Iterator[Triple]:
        """Yield all triples matching the pattern (``None`` is a wildcard)."""
        term = self._dict.term_of
        s_id = p_id = o_id = None
        if subject is not None:
            s_id = self._dict.id_of(coerce_uri(subject))
            if s_id == NO_ID:
                return
        if predicate is not None:
            p_id = self._dict.id_of(coerce_uri(predicate))
            if p_id == NO_ID:
                return
        if obj is not None:
            o_id = self._dict.id_of(coerce_object(obj))
            if o_id == NO_ID:
                return

        self._index()
        if s_id is not None:
            s = term(s_id)
            predicates = self._spo.get(s_id, {})
            candidates = [p_id] if p_id is not None else list(predicates)
            for pred_id in candidates:
                pred = term(pred_id)
                for value_id in predicates.get(pred_id, ()):
                    if o_id is None or value_id == o_id:
                        yield Triple(s, pred, term(value_id))
        elif p_id is not None:
            p = term(p_id)
            for subj_id, objects in self._pos.get(p_id, {}).items():
                subj = term(subj_id)
                for value_id in objects:
                    if o_id is None or value_id == o_id:
                        yield Triple(subj, p, term(value_id))
        elif o_id is not None:
            o = term(o_id)
            for subj_id, pred_id in self._osp.get(o_id, ()):
                yield Triple(term(subj_id), term(pred_id), o)
        else:
            yield from iter(self)

    def triples_for_subject(self, subject: object) -> Iterator[Triple]:
        """Yield the *entity* of ``subject``: every triple with that subject."""
        return self.triples(subject=subject)

    def objects(self, subject: object, predicate: object) -> Set[Term]:
        """Return the set of objects for a (subject, predicate) pair."""
        s_id = self._dict.id_of(coerce_uri(subject))
        p_id = self._dict.id_of(coerce_uri(predicate))
        if NO_ID in (s_id, p_id):
            return set()
        self._index()
        term = self._dict.term_of
        return {term(o_id) for o_id in self._spo.get(s_id, {}).get(p_id, ())}

    def value(self, subject: object, predicate: object) -> Optional[Term]:
        """Return an arbitrary object for (subject, predicate), or ``None``."""
        objects = self.objects(subject, predicate)
        return next(iter(objects)) if objects else None

    # ------------------------------------------------------------------ #
    # Schema-oriented accessors (Section 2.1)
    # ------------------------------------------------------------------ #
    def subjects(self) -> Set[URI]:
        """Return ``S(D)``: the set of subjects mentioned in the graph."""
        term = self._dict.term_of
        columns = self._columns
        if columns is not None:
            return {term(s_id) for s_id in _distinct(columns[:, 0]).tolist()}
        return {term(s_id) for s_id in self._spo}

    @property
    def n_subjects(self) -> int:
        """``|S(D)|`` without materialising the subject set."""
        columns = self._columns
        if columns is not None:
            return len(_distinct(columns[:, 0]))
        return len(self._spo)

    def has_subject(self, subject: object) -> bool:
        """Return ``True`` iff ``subject`` currently has at least one triple."""
        s_id = self._dict.id_of(coerce_uri(subject))
        self._index()
        return s_id != NO_ID and s_id in self._spo

    def has_predicate(self, predicate: object) -> bool:
        """Return ``True`` iff some triple currently uses ``predicate``."""
        p_id = self._dict.id_of(coerce_uri(predicate))
        self._index()
        return p_id != NO_ID and p_id in self._pos

    def properties(self, exclude_type: bool = False) -> Set[URI]:
        """Return ``P(D)``: the set of properties mentioned in the graph.

        When ``exclude_type`` is true, ``rdf:type`` is removed, matching the
        paper's convention of reporting property counts "excluding the type
        property".
        """
        term = self._dict.term_of
        columns = self._columns
        if columns is not None:
            props = {term(p_id) for p_id in _distinct(columns[:, 1]).tolist()}
        else:
            props = {term(p_id) for p_id in self._pos}
        if exclude_type:
            props.discard(RDF.type)
        return props

    def has_property(self, subject: object, predicate: object) -> bool:
        """Return ``True`` iff ``subject`` has ``predicate`` in the graph."""
        s_id = self._dict.id_of(coerce_uri(subject))
        p_id = self._dict.id_of(coerce_uri(predicate))
        if NO_ID in (s_id, p_id):
            return False
        self._index()
        return bool(self._spo.get(s_id, {}).get(p_id))

    def properties_of(self, subject: object, exclude_type: bool = False) -> Set[URI]:
        """Return the set of properties that ``subject`` has."""
        s_id = self._dict.id_of(coerce_uri(subject))
        if s_id == NO_ID:
            return set()
        self._index()
        term = self._dict.term_of
        props = {term(p_id) for p_id in self._spo.get(s_id, {})}
        if exclude_type:
            props.discard(RDF.type)
        return props

    def subjects_with_property(self, predicate: object) -> Set[URI]:
        """Return every subject that has ``predicate``."""
        p_id = self._dict.id_of(coerce_uri(predicate))
        if p_id == NO_ID:
            return set()
        self._index()
        term = self._dict.term_of
        return {term(s_id) for s_id in self._pos.get(p_id, {})}

    def sorts_of(self, subject: object) -> Set[Term]:
        """Return the declared sorts (``rdf:type`` objects) of ``subject``."""
        return self.objects(subject, RDF.type)

    def all_sorts(self) -> Set[Term]:
        """Return every sort ``t`` such that some ``(s, type, t)`` triple exists."""
        type_id = self._dict.id_of(RDF.type)
        if type_id == NO_ID:
            return set()
        term = self._dict.term_of
        columns = self._columns
        if columns is not None:
            return {term(o_id) for o_id in _distinct(columns[columns[:, 1] == type_id, 2]).tolist()}
        self._index()
        sorts: Set[Term] = set()
        for objects in self._pos.get(type_id, {}).values():
            sorts.update(term(o_id) for o_id in objects)
        return sorts

    def sort_subgraph(self, sort: object, name: Optional[str] = None) -> "RDFGraph":
        """Return ``D_t``: all triples whose subject is declared of sort ``sort``.

        This is the subgraph the paper denotes ``D_t = {(s, p, o) ∈ D |
        (s, type, t) ∈ D}``.  It shares this graph's dictionary.  A
        column-backed graph answers with a column-backed subgraph: its rows
        filtered through a typed-subject mask, as out-of-core phase 1 does.
        """
        t = coerce_object(sort)
        name = name if name is not None else f"{self.name}[{t}]"
        type_id = self._dict.id_of(RDF.type)
        t_id = self._dict.id_of(t)
        columns = self._columns
        if columns is not None:
            typed = np.zeros(len(self._dict), dtype=bool)
            if NO_ID not in (type_id, t_id):
                typed[columns[(columns[:, 1] == type_id) & (columns[:, 2] == t_id), 0]] = True
            return RDFGraph.from_triple_ids(columns[typed[columns[:, 0]]], self._dict, name)
        result = RDFGraph(name=name, dictionary=self._dict)
        if NO_ID in (type_id, t_id):
            return result
        for subj_id, objects in self._pos.get(type_id, {}).items():
            if t_id in objects:
                for p_id, subj_objects in self._spo.get(subj_id, {}).items():
                    for o_id in subj_objects:
                        result._add_ids(subj_id, p_id, o_id)
        return result

    def entity_subgraph(self, subjects: Iterable, name: str = "") -> "RDFGraph":
        """Return the subgraph of all triples whose subject is in ``subjects``."""
        self._index()
        result = RDFGraph(name=name, dictionary=self._dict)
        for subject in subjects:
            s_id = self._dict.id_of(coerce_uri(subject))
            if s_id == NO_ID:
                continue
            for p_id, objects in self._spo.get(s_id, {}).items():
                for o_id in objects:
                    result._add_ids(s_id, p_id, o_id)
        return result

    # ------------------------------------------------------------------ #
    # Vectorised views over the interned IDs
    # ------------------------------------------------------------------ #
    def triple_ids(self) -> np.ndarray:
        """Return all triples as an ``(n, 3) int32`` array of term IDs.

        A column-backed graph returns its read-only columns themselves, in
        their stored order: sorted by (s, p, o) ID for a parsed graph, the
        segment's order for one reopened from a snapshot.  An indexed graph
        returns a fresh array in SPO index order (insertion order of
        subjects and predicates).  Row order is not part of the contract
        (snapshots compare ``graph_triples`` as a row set).  Decode columns
        with :attr:`term_dictionary`.
        """
        columns = self._columns
        if columns is not None:
            return columns
        out = np.empty((self._size, 3), dtype=np.int32)
        row = 0
        for s_id, predicates in self._spo.items():
            for p_id, objects in predicates.items():
                for o_id in objects:
                    out[row, 0] = s_id
                    out[row, 1] = p_id
                    out[row, 2] = o_id
                    row += 1
        return out

    def subject_property_ids(self, exclude_type: bool = False) -> Tuple[np.ndarray, np.ndarray]:
        """Return the distinct (subject ID, property ID) pairs as two arrays.

        This is the property-structure view ``M(D)`` in coordinate form —
        exactly what the vectorised ``PropertyMatrix``/``SignatureTable``
        constructors consume.  Pairs are deduplicated (the view only records
        *whether* a subject has a property, not how many objects).
        """
        columns = self._columns
        if columns is not None:
            pairs = _distinct((columns[:, 0].astype(np.int64) << 32) | columns[:, 1])
            s_out = (pairs >> 32).astype(np.int32)
            p_out = (pairs & 0xFFFFFFFF).astype(np.int32)
        else:
            spo = self._spo
            n_subjects = len(spo)
            fanout = np.fromiter(map(len, spo.values()), dtype=np.int64, count=n_subjects)
            s_out = np.repeat(
                np.fromiter(spo.keys(), dtype=np.int32, count=n_subjects), fanout
            )
            p_out = np.fromiter(
                chain.from_iterable(spo.values()), dtype=np.int32, count=int(fanout.sum())
            )
        if exclude_type:
            type_id = self._dict.id_of(RDF.type)
            if type_id != NO_ID:
                keep = p_out != type_id
                return s_out[keep], p_out[keep]
        return s_out, p_out

    def describe(self) -> Dict[str, int]:
        """Return summary statistics (triples, subjects, properties, literals)."""
        term = self._dict.term_of
        columns = self._columns
        if columns is not None:
            n_triples = len(columns)
            n_subjects = len(_distinct(columns[:, 0]))
            n_properties = len(_distinct(columns[:, 1]))
            objects = _distinct(columns[:, 2]).tolist()
        else:
            self._index()
            n_triples, n_subjects, n_properties = self._size, len(self._spo), len(self._pos)
            objects = list(self._osp)
        return {
            "triples": n_triples,
            "subjects": n_subjects,
            "properties": n_properties,
            "properties_excluding_type": len(self.properties(exclude_type=True)),
            "distinct_objects": len(objects),
            "distinct_literals": sum(1 for o_id in objects if isinstance(term(o_id), Literal)),
            "sorts": len(self.all_sorts()),
        }
