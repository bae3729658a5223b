"""The property-structure view ``M(D)`` of an RDF graph.

Section 2.1 of the paper defines, for an RDF graph ``D``, the
``|S(D)| × |P(D)|`` 0/1 matrix ``M(D)`` with ``M(D)[s, p] = 1`` iff subject
``s`` has property ``p`` in ``D``.  :class:`PropertyMatrix` materialises
that view as a NumPy boolean array together with the row (subject) and
column (property) labels, and offers the handful of selections the rest of
the library needs: row subsets (entity-preserving partitions act on rows),
column subsets (rules that ignore properties), and conversion to the
signature representation.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import RDFError
from repro.rdf.graph import GraphDelta, RDFGraph
from repro.rdf.namespaces import RDF
from repro.rdf.terms import URI, coerce_uri

__all__ = ["PropertyMatrix"]


def _sorted_merge(
    base: Sequence[URI], additions: Sequence[URI], removals: Set[URI]
) -> Sequence[URI]:
    """Merge sorted ``base`` with sorted ``additions`` minus ``removals``.

    A two-pointer merge: O(len(base) + len(additions)) instead of
    re-sorting the whole universe; mutations touch few labels, the
    universe holds many.
    """
    if not additions and not removals:
        return base
    kept: List[URI] = [x for x in base if x not in removals] if removals else list(base)
    if not additions:
        return kept
    merged: List[URI] = []
    i = j = 0
    while i < len(kept) and j < len(additions):
        if kept[i] <= additions[j]:
            merged.append(kept[i])
            i += 1
        else:
            merged.append(additions[j])
            j += 1
    merged.extend(kept[i:])
    merged.extend(additions[j:])
    return merged


def _fill_rows(
    data: np.ndarray,
    graph: RDFGraph,
    subjects: Sequence[URI],
    row_pos: Dict[URI, int],
    col_pos: Dict[URI, int],
    exclude_type: bool,
) -> None:
    """Set the 1-cells of ``subjects``' rows of ``data`` from ``graph``."""
    try:
        for s in subjects:
            row = data[row_pos[s]]
            for p in graph.properties_of(s, exclude_type=exclude_type):
                row[col_pos[p]] = True
    except KeyError as error:
        raise RDFError(
            f"delta does not match this matrix: property {error} of touched "
            f"subject {s!r} is not a column (was the matrix built from the "
            "pre-delta state of this graph?)"
        ) from None


class PropertyMatrix:
    """A labelled boolean matrix: rows are subjects, columns are properties.

    Instances are immutable once built; all "modifying" operations return a
    new matrix.

    Parameters
    ----------
    data:
        Boolean array of shape ``(len(subjects), len(properties))``.
    subjects:
        Row labels, in row order.
    properties:
        Column labels, in column order.
    name:
        Optional human-readable name.
    """

    __slots__ = ("_data", "_subjects", "_properties", "_subject_index", "_property_index", "name")

    def __init__(
        self,
        data: np.ndarray,
        subjects: Sequence[URI],
        properties: Sequence[URI],
        name: str = "",
    ):
        array = np.asarray(data, dtype=bool)
        if array.ndim != 2:
            raise RDFError("property matrix data must be two-dimensional")
        if array.shape != (len(subjects), len(properties)):
            raise RDFError(
                f"matrix shape {array.shape} does not match "
                f"{len(subjects)} subjects x {len(properties)} properties"
            )
        self._data = array
        self._subjects: Tuple[URI, ...] = tuple(coerce_uri(s) for s in subjects)
        self._properties: Tuple[URI, ...] = tuple(coerce_uri(p) for p in properties)
        if len(set(self._subjects)) != len(self._subjects):
            raise RDFError("duplicate subject labels in property matrix")
        if len(set(self._properties)) != len(self._properties):
            raise RDFError("duplicate property labels in property matrix")
        self._subject_index: Dict[URI, int] = {s: i for i, s in enumerate(self._subjects)}
        self._property_index: Dict[URI, int] = {p: j for j, p in enumerate(self._properties)}
        self.name = name

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_graph(
        cls,
        graph: RDFGraph,
        exclude_type: bool = True,
        properties: Optional[Sequence[URI]] = None,
        name: Optional[str] = None,
    ) -> "PropertyMatrix":
        """Build ``M(D)`` from an RDF graph in one vectorised pass.

        ``exclude_type`` drops the ``rdf:type`` column (the paper always
        reports property counts "excluding the type property").  An explicit
        ``properties`` sequence fixes the column set and order (columns not
        present in the graph are all-zero).

        The graph hands over its distinct (subject ID, property ID) pairs as
        NumPy arrays; rows and columns are then filled by a single fancy-
        indexed assignment instead of per-subject Python loops.
        """
        subjects = sorted(graph.subjects())
        if properties is None:
            props = sorted(graph.properties(exclude_type=exclude_type))
        else:
            props = [coerce_uri(p) for p in properties]
            if exclude_type:
                props = [p for p in props if p != RDF.type]
        data = np.zeros((len(subjects), len(props)), dtype=bool)
        if subjects and props:
            s_ids, p_ids = graph.subject_property_ids(exclude_type=exclude_type)
            if s_ids.size:
                dictionary = graph.term_dictionary
                # Dense ID -> row/column translation tables (IDs are dense
                # int32, so a flat array beats a dict lookup per pair).
                n_ids = len(dictionary)
                id_of = dictionary.id_of
                row_of = np.full(n_ids, -1, dtype=np.int64)
                subject_ids = np.fromiter(
                    (id_of(s) for s in subjects), dtype=np.int64, count=len(subjects)
                )
                row_of[subject_ids] = np.arange(len(subjects))
                col_of = np.full(n_ids, -1, dtype=np.int64)
                prop_ids = np.fromiter(
                    (id_of(p) for p in props), dtype=np.int64, count=len(props)
                )
                present = prop_ids >= 0
                col_of[prop_ids[present]] = np.flatnonzero(present)
                rows = row_of[s_ids]
                cols = col_of[p_ids]
                keep = cols >= 0
                data[rows[keep], cols[keep]] = True
        return cls(data, subjects, props, name=name if name is not None else graph.name)

    def apply_delta(
        self,
        graph: RDFGraph,
        delta: GraphDelta,
        exclude_type: bool = True,
        name: Optional[str] = None,
    ) -> "PropertyMatrix":
        """Re-derive only the touched subjects' rows after a graph mutation.

        ``self`` must be the :meth:`from_graph` matrix (default sorted
        row/column order, full property universe, same ``exclude_type``)
        of the graph state *before* the delta, and ``graph`` the mutated
        graph.  The result is equal to ``PropertyMatrix.from_graph(graph,
        exclude_type=exclude_type)`` — bit-identical rows, labels and
        order — but only the delta's subjects are recomputed: untouched
        rows are block-copied and the subject/property universes are
        updated by sorted merge instead of a full re-sort.  When no label
        enters or leaves either universe (the common one-triple toggle),
        the labels and index maps are shared with ``self`` and only the
        touched rows of a copy of the data are rewritten.
        """
        touched_subjects = sorted(delta.subjects)
        touched_properties = sorted(delta.properties)
        if exclude_type:
            touched_properties = [p for p in touched_properties if p != RDF.type]

        # Universe updates: a touched label enters when the graph now uses
        # it, leaves when its last triple disappeared.
        removed_subjects = {
            s for s in touched_subjects
            if s in self._subject_index and not graph.has_subject(s)
        }
        added_subjects = [
            s for s in touched_subjects
            if s not in self._subject_index and graph.has_subject(s)
        ]
        removed_properties = {
            p for p in touched_properties
            if p in self._property_index and not graph.has_predicate(p)
        }
        added_properties = [
            p for p in touched_properties
            if p not in self._property_index and graph.has_predicate(p)
        ]
        recompute = [s for s in touched_subjects if graph.has_subject(s)]
        name = self.name if name is None else name
        if not (removed_subjects or added_subjects or removed_properties or added_properties):
            return self._with_rows(graph, recompute, exclude_type, name)

        subjects = _sorted_merge(self._subjects, added_subjects, removed_subjects)
        properties = _sorted_merge(self._properties, added_properties, removed_properties)

        recompute_set = set(recompute)
        row_pos = {s: i for i, s in enumerate(subjects)}
        col_pos = {p: j for j, p in enumerate(properties)}
        data = np.zeros((len(subjects), len(properties)), dtype=bool)

        # Block-copy every surviving untouched row.  Untouched rows are
        # all-zero in added columns (a brand-new property is only had by
        # touched subjects) and had only zeros in dropped columns (a
        # property with a surviving 1-cell still exists in the graph).
        keep = [s for s in self._subjects if s not in removed_subjects and s not in recompute_set]
        if keep and self._data.size:
            old_rows = np.fromiter(
                (self._subject_index[s] for s in keep), dtype=np.int64, count=len(keep)
            )
            new_rows = np.fromiter((row_pos[s] for s in keep), dtype=np.int64, count=len(keep))
            if removed_properties or added_properties:
                surviving = [p for p in self._properties if p not in removed_properties]
                old_cols = np.fromiter(
                    (self._property_index[p] for p in surviving),
                    dtype=np.int64,
                    count=len(surviving),
                )
                new_cols = np.fromiter(
                    (col_pos[p] for p in surviving), dtype=np.int64, count=len(surviving)
                )
                data[new_rows[:, None], new_cols[None, :]] = self._data[
                    old_rows[:, None], old_cols[None, :]
                ]
            else:
                data[new_rows, :] = self._data[old_rows, :]

        _fill_rows(data, graph, recompute, row_pos, col_pos, exclude_type)
        return PropertyMatrix(data, subjects, properties, name=name)

    def _with_rows(
        self, graph: RDFGraph, recompute: List[URI], exclude_type: bool, name: str
    ) -> "PropertyMatrix":
        """:meth:`apply_delta` when no label enters or leaves either universe.

        Rows and columns keep their positions, so the labels and index
        maps are shared with ``self`` and only the touched rows of a copy
        of the data are rewritten.
        """
        data = np.array(self._data, dtype=bool)
        rows = [self._subject_index[s] for s in recompute]
        data[rows] = False
        _fill_rows(data, graph, recompute, self._subject_index, self._property_index, exclude_type)
        result = object.__new__(PropertyMatrix)
        result._data = data
        result._subjects = self._subjects
        result._properties = self._properties
        result._subject_index = self._subject_index
        result._property_index = self._property_index
        result.name = name
        return result

    @classmethod
    def from_rows(
        cls,
        rows: Dict[URI, Iterable[URI]],
        properties: Optional[Sequence[URI]] = None,
        name: str = "",
    ) -> "PropertyMatrix":
        """Build a matrix from a mapping subject -> iterable of properties it has."""
        subjects = sorted(coerce_uri(s) for s in rows)
        if properties is None:
            prop_set = set()
            for props in rows.values():
                prop_set.update(coerce_uri(p) for p in props)
            props = sorted(prop_set)
        else:
            props = [coerce_uri(p) for p in properties]
        data = np.zeros((len(subjects), len(props)), dtype=bool)
        property_index = {p: j for j, p in enumerate(props)}
        for i, subject in enumerate(subjects):
            for prop in rows[subject]:
                j = property_index.get(coerce_uri(prop))
                if j is not None:
                    data[i, j] = True
        return cls(data, subjects, props, name=name)

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def data(self) -> np.ndarray:
        """The underlying boolean array (a read-only view)."""
        view = self._data.view()
        view.setflags(write=False)
        return view

    @property
    def subjects(self) -> Tuple[URI, ...]:
        """Row labels in row order."""
        return self._subjects

    @property
    def properties(self) -> Tuple[URI, ...]:
        """Column labels in column order."""
        return self._properties

    @property
    def shape(self) -> Tuple[int, int]:
        """``(number of subjects, number of properties)``."""
        return self._data.shape

    @property
    def n_subjects(self) -> int:
        """Number of rows (``|S(D)|``)."""
        return self._data.shape[0]

    @property
    def n_properties(self) -> int:
        """Number of columns (``|P(D)|``)."""
        return self._data.shape[1]

    @property
    def n_cells(self) -> int:
        """Total number of cells ``|S(D)| * |P(D)|``."""
        return int(self._data.size)

    @property
    def n_ones(self) -> int:
        """Number of cells containing 1 (i.e. number of (subject, property) facts)."""
        return int(self._data.sum())

    def subject_index(self, subject: object) -> int:
        """Return the row index of ``subject`` (raises ``RDFError`` if absent)."""
        try:
            return self._subject_index[coerce_uri(subject)]
        except KeyError:
            raise RDFError(f"subject {subject!r} is not a row of this matrix") from None

    def property_index(self, prop: object) -> int:
        """Return the column index of ``prop`` (raises ``RDFError`` if absent)."""
        try:
            return self._property_index[coerce_uri(prop)]
        except KeyError:
            raise RDFError(f"property {prop!r} is not a column of this matrix") from None

    def has_subject(self, subject: object) -> bool:
        """Return whether ``subject`` labels a row."""
        try:
            return coerce_uri(subject) in self._subject_index
        except RDFError:
            return False

    def has_property_column(self, prop: object) -> bool:
        """Return whether ``prop`` labels a column."""
        try:
            return coerce_uri(prop) in self._property_index
        except RDFError:
            return False

    def cell(self, subject: object, prop: object) -> int:
        """Return ``M[s, p]`` as 0 or 1."""
        return int(self._data[self.subject_index(subject), self.property_index(prop)])

    def cell_by_index(self, row: int, column: int) -> int:
        """Return ``M[row, column]`` as 0 or 1 using positional indexes."""
        return int(self._data[row, column])

    def row(self, subject: object) -> np.ndarray:
        """Return the boolean row of ``subject``."""
        return self._data[self.subject_index(subject)].copy()

    def column(self, prop: object) -> np.ndarray:
        """Return the boolean column of ``prop``."""
        return self._data[:, self.property_index(prop)].copy()

    def property_counts(self) -> Dict[URI, int]:
        """Return, for every property, how many subjects have it."""
        sums = self._data.sum(axis=0)
        return {p: int(sums[j]) for j, p in enumerate(self._properties)}

    def properties_of(self, subject: object) -> Tuple[URI, ...]:
        """Return the properties that ``subject`` has, in column order."""
        row = self._data[self.subject_index(subject)]
        return tuple(p for j, p in enumerate(self._properties) if row[j])

    # ------------------------------------------------------------------ #
    # Selections
    # ------------------------------------------------------------------ #
    def select_subjects(self, subjects: Iterable[URI], name: str = "") -> "PropertyMatrix":
        """Return the row-submatrix for ``subjects`` (keeping all columns).

        Row selections keep every column because a sort refinement is an
        *entity preserving* partition: the implicit sorts share the original
        property universe even when some columns become all-zero (the paper
        draws all sub-figures with the same columns for comparability).
        """
        wanted = [coerce_uri(s) for s in subjects]
        rows = [self.subject_index(s) for s in wanted]
        data = self._data[rows, :] if rows else np.zeros((0, self.n_properties), dtype=bool)
        return PropertyMatrix(data, wanted, self._properties, name=name or self.name)

    def select_properties(self, properties: Iterable[URI], name: str = "") -> "PropertyMatrix":
        """Return the column-submatrix for ``properties`` (keeping all rows)."""
        wanted = [coerce_uri(p) for p in properties]
        cols = [self.property_index(p) for p in wanted]
        data = self._data[:, cols] if cols else np.zeros((self.n_subjects, 0), dtype=bool)
        return PropertyMatrix(data, self._subjects, wanted, name=name or self.name)

    def drop_properties(self, properties: Iterable[URI], name: str = "") -> "PropertyMatrix":
        """Return a matrix without the given property columns."""
        dropped = {coerce_uri(p) for p in properties}
        keep = [p for p in self._properties if p not in dropped]
        return self.select_properties(keep, name=name)

    def used_properties(self) -> Tuple[URI, ...]:
        """Return the properties that at least one row actually has."""
        sums = self._data.sum(axis=0)
        return tuple(p for j, p in enumerate(self._properties) if sums[j] > 0)

    def trim_unused_properties(self) -> "PropertyMatrix":
        """Drop all-zero property columns."""
        return self.select_properties(self.used_properties())

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #
    def signature_of(self, subject: object) -> frozenset:
        """Return the signature of ``subject`` as a frozenset of property URIs.

        This is the paper's ``sig(s, D)`` represented by its support
        ``{p | sig(s, D)(p) = 1}``.
        """
        return frozenset(self.properties_of(subject))

    def coverage(self) -> float:
        """Return the Cov value of the matrix directly: ``sum(M) / (|S| |P|)``.

        Provided as a convenience and as a cross-check for the rule-based
        and signature-based implementations.
        """
        if self.n_cells == 0:
            return 1.0
        return float(self.n_ones) / float(self.n_cells)

    def to_graph(self, namespace_prefix: str = "http://example.org/value/") -> RDFGraph:
        """Materialise the matrix back into an RDF graph.

        Each 1-cell ``(s, p)`` becomes a triple ``(s, p, <prefix>s/p)``.
        The reverse of :meth:`from_graph` up to object values, which the
        property-structure view discards by design.
        """
        graph = RDFGraph(name=self.name)
        for i, subject in enumerate(self._subjects):
            row = self._data[i]
            for j, prop in enumerate(self._properties):
                if row[j]:
                    graph.add(subject, prop, URI(f"{namespace_prefix}{i}/{j}"))
        return graph

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PropertyMatrix):
            return NotImplemented
        return (
            self._subjects == other._subjects
            and self._properties == other._properties
            and bool(np.array_equal(self._data, other._data))
        )

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        return f"<PropertyMatrix{label}: {self.n_subjects} x {self.n_properties}>"
