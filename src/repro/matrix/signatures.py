"""Signatures and signature tables.

Definition 4.1 of the paper: the *signature* of a subject ``s`` in ``D`` is
the function ``sig(s, D) : P(D) → {0, 1}`` telling which properties ``s``
has.  A *signature set* is the set of subjects sharing a signature, and its
*size* is the number of such subjects.

Signatures are the workhorse of the whole approach: every structuredness
function used in the paper depends on ``M(D)`` only through the multiset of
signatures, and the ILP encoding assigns whole signature sets (not
individual entities) to implicit sorts.  Representing a 790,703-subject
dataset by its 64 signatures is the "view of our input data that still
maintains all the properties of the data in terms of their fitness
characteristics, yet occupies substantially less space".

In this library a signature is simply a ``frozenset`` of property URIs (its
support), and :class:`SignatureTable` maps each signature to its size and,
optionally, to the concrete member subjects.

Internally the table is columnar: the ``n_signatures × n_properties``
boolean support matrix, the signature-set sizes as an ``int64`` count
vector and, when members are tracked, one ``int32`` member column —
positions into a shared subject-label sequence (a property matrix's row
labels, or a snapshot's term list), grouped by signature in table order,
so the offsets are the cumulative counts.  The frozenset view, the
signature -> size mapping and the member tuples are derived from those
columns on first use.  Every aggregate the closed-form structuredness
functions need (``n_ones``, per-property counts, pairwise both/either
counts) is a vectorised reduction over the arrays, :meth:`from_matrix`
groups matrix rows into signatures with one ``np.unique`` pass over packed
rows instead of hashing a frozenset per subject, and
:meth:`SignatureTable.apply_delta` moves only the touched subjects' positions.
See DESIGN.md, "Interned-ID architecture".
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import RDFError
from repro.matrix.property_matrix import PropertyMatrix
from repro.rdf.graph import GraphDelta, RDFGraph
from repro.rdf.terms import URI, coerce_uri

__all__ = ["Signature", "SignatureTable", "signature_key", "group_boolean_rows"]

#: A signature is represented by its support: the frozenset of properties set to 1.
Signature = FrozenSet[URI]


def signature_key(signature: Signature) -> Tuple[str, ...]:
    """A deterministic sort key for signatures (sorted property strings)."""
    return tuple(sorted(str(p) for p in signature))


def group_boolean_rows(data: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group identical rows of a boolean matrix in one vectorised pass.

    Rows are packed into bitsets (``np.packbits``) and deduplicated with
    ``np.unique``.  Returns ``(representatives, inverse, counts)`` where
    ``representatives[g]`` is the index of one row of group ``g`` (all rows
    of a group are identical, so the choice carries no information),
    ``inverse[i]`` is the group of row ``i``, and ``counts[g]`` the group
    size.  Shared by :meth:`SignatureTable.from_matrix` and the synthetic
    dataset sampler so the packing/grouping edge cases live in one place.
    """
    n_rows = data.shape[0]
    packed = (
        np.packbits(data, axis=1)
        if data.shape[1]
        else np.zeros((n_rows, 0), dtype=np.uint8)
    )
    if packed.shape[1]:
        _unique, inverse, counts = np.unique(
            packed, axis=0, return_inverse=True, return_counts=True
        )
        inverse = inverse.ravel()
    else:
        inverse = np.zeros(n_rows, dtype=np.int64)
        counts = np.array([n_rows], dtype=np.int64) if n_rows else np.zeros(0, dtype=np.int64)
    representatives = np.empty(len(counts), dtype=np.int64)
    representatives[inverse] = np.arange(n_rows)
    return representatives, inverse, counts


def _table_order(counts: Sequence[int], keys: Sequence[Tuple[str, ...]]) -> List[int]:
    """Group indices in table order: largest set first, ties by property names."""
    return sorted(range(len(keys)), key=lambda g: (-counts[g], keys[g]))


def _support_rows(properties: Sequence[URI], signatures: Sequence[Signature]) -> np.ndarray:
    """The boolean support matrix of ``signatures`` over ``properties``."""
    column_of = {p: j for j, p in enumerate(properties)}
    support = np.zeros((len(signatures), len(properties)), dtype=bool)
    for i, signature in enumerate(signatures):
        for p in signature:
            support[i, column_of[p]] = True
    return support


def _blocks(members: np.ndarray, counts: np.ndarray) -> List[np.ndarray]:
    """Split a member column into its per-signature blocks."""
    return np.split(members, np.cumsum(counts)[:-1]) if len(counts) else []


class SignatureTable:
    """The signature view of an RDF graph: signature -> size (+ optional members).

    Parameters
    ----------
    properties:
        The property universe ``P(D)`` (column order is preserved and used
        for matrix expansion and rendering).
    counts:
        Mapping from signature (frozenset of properties) to the number of
        subjects with that signature.  Every property mentioned by a
        signature must belong to ``properties``.
    members:
        Optional mapping from signature to the list of member subjects.
        When provided, lengths must agree with ``counts``; it allows
        refinements computed at the signature level to be mapped back to
        concrete entities and triples.
    name:
        Optional human-readable dataset name.

    Storage is columnar whichever way a table is made: the support matrix,
    the count vector and, when members are tracked, one integer *member
    column* of positions into a shared subject-label sequence, grouped by
    signature in table order (a signature's block is the slice between the
    cumulative counts).  The frozenset views (:attr:`signatures`,
    :meth:`counts`, :meth:`members_of`, :meth:`signature_of`) are derived
    on first use.
    """

    __slots__ = (
        "_properties",
        "_support_bool",
        "_count_vec",
        "_member_ids",
        "_subjects",
        "_subject_index",
        "_row_signature",
        "_matrix_rows",
        "_signatures",
        "_signature_index",
        "_keys",
        "name",
        "__weakref__",
    )

    def __init__(
        self,
        properties: Sequence[URI],
        counts: Mapping[Signature, int],
        members: Optional[Mapping[Signature, Sequence[URI]]] = None,
        name: str = "",
    ):
        properties = tuple(coerce_uri(p) for p in properties)
        if len(set(properties)) != len(properties):
            raise RDFError("duplicate properties in signature table")
        property_set = set(properties)

        normalised: Dict[Signature, int] = {}
        for signature, count in counts.items():
            sig = frozenset(coerce_uri(p) for p in signature)
            if not sig <= property_set:
                missing = sorted(str(p) for p in sig - property_set)
                raise RDFError(f"signature uses unknown properties: {missing}")
            if count < 0:
                raise RDFError("signature counts must be non-negative")
            if count == 0:
                continue
            normalised[sig] = normalised.get(sig, 0) + int(count)

        signatures = tuple(normalised)
        member_ids = subjects = None
        if members is not None:
            collected: Dict[Signature, Tuple[URI, ...]] = {}
            for signature, subject_list in members.items():
                sig = frozenset(coerce_uri(p) for p in signature)
                if sig not in normalised:
                    if not subject_list:
                        continue
                    raise RDFError(f"members given for unknown signature {signature_key(sig)}")
                collected[sig] = tuple(coerce_uri(s) for s in subject_list)
            for sig, count in normalised.items():
                if sig not in collected:
                    raise RDFError("members mapping must cover every signature")
                if len(collected[sig]) != count:
                    raise RDFError(
                        f"signature {signature_key(sig)} has count {count} but "
                        f"{len(collected[sig])} members"
                    )
            # The labels are the members themselves, so the member column
            # starts out as 0..n-1.
            subjects = tuple(s for sig in signatures for s in collected[sig])
            member_ids = np.arange(len(subjects), dtype=np.int32)
        self._adopt(
            properties,
            _support_rows(properties, signatures),
            np.array([normalised[sig] for sig in signatures], dtype=np.int64),
            member_ids,
            subjects,
            name,
            signatures=signatures,
            in_order=False,
        )

    def _adopt(
        self,
        properties: Tuple[URI, ...],
        support: np.ndarray,
        counts: np.ndarray,
        member_ids: Optional[np.ndarray],
        subjects: Optional[Sequence[URI]],
        name: str,
        *,
        signatures: Optional[Tuple[Signature, ...]] = None,
        keys: Optional[List[Tuple[str, ...]]] = None,
        subject_index: Optional[Mapping[URI, int]] = None,
        row_signature: Optional[np.ndarray] = None,
        matrix_rows: bool = False,
        in_order: bool = True,
    ) -> None:
        """The trusting constructor every producer ends in.

        ``support`` (bool, signatures × properties) and ``counts`` (int64)
        describe distinct signatures, and ``member_ids`` (or ``None``)
        holds each signature's member positions into ``subjects``, block
        after block.  Nothing is copied or checked.  The signatures are
        non-empty and in table order — largest set first, ties by property
        names — unless ``in_order`` is false, in which case ``signatures``
        must be given: empty ones are dropped and the rows, member blocks
        and ``row_signature`` values are permuted into table order first.
        ``matrix_rows`` marks a column
        whose positions are the rows of a property matrix with
        ``subjects`` as its row labels, ascending within each block:
        :meth:`apply_delta` patches such a column in place of re-deriving
        it.  The other keyword arguments hand over views the producer
        already has.
        """
        if not in_order:
            if keys is None:
                keys = [signature_key(sig) for sig in signatures]
            sizes = counts.tolist()
            order = [g for g in _table_order(sizes, keys) if sizes[g]]
            if order != list(range(len(sizes))):
                if member_ids is not None:
                    blocks = _blocks(member_ids, counts)
                    member_ids = np.concatenate([blocks[g] for g in order] or [member_ids[:0]])
                if row_signature is not None:
                    remap = np.full(len(sizes) + 1, -1, dtype=np.int32)
                    remap[order] = np.arange(len(order), dtype=np.int32)
                    row_signature = remap[row_signature]
                support, counts = support[order], counts[order]
                signatures = tuple(signatures[g] for g in order)
                keys = [keys[g] for g in order]
        self._properties = properties
        self._support_bool = support
        self._count_vec = counts
        self._member_ids = member_ids
        self._subjects = subjects
        self._subject_index = subject_index
        self._row_signature = row_signature
        self._matrix_rows = matrix_rows
        self._signatures = signatures
        self._signature_index: Optional[Dict[Signature, int]] = None
        self._keys = keys
        self.name = name

    @classmethod
    def _from_columns(cls, *args, **kwargs) -> "SignatureTable":
        """A table over already-ordered columns (see :meth:`_adopt`)."""
        table = object.__new__(cls)
        table._adopt(*args, **kwargs)
        return table

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_matrix(cls, matrix: PropertyMatrix, name: Optional[str] = None) -> "SignatureTable":
        """Group the rows of a :class:`PropertyMatrix` into signature sets.

        The grouping is one vectorised pass: rows are packed into bitsets
        (``np.packbits``) and deduplicated with ``np.unique``, so the cost
        per *subject* is a few bytes of packed row, not a frozenset hash.
        Only the (few) distinct signatures are materialised as frozensets.
        The member column is one stable argsort of the rows by their
        signature's rank in table order: row positions into
        ``matrix.subjects``, which the table shares rather than copies.
        """
        data = matrix.data
        properties = matrix.properties
        name = name if name is not None else matrix.name
        # One representative row per group gives the support of its signature.
        representatives, inverse, group_counts = group_boolean_rows(data)
        support = data[representatives]
        signatures = [
            frozenset(properties[j] for j in np.flatnonzero(row)) for row in support
        ]
        keys = [signature_key(sig) for sig in signatures]
        order = _table_order(group_counts.tolist(), keys)
        rank = np.empty(len(order), dtype=np.int32)
        rank[order] = np.arange(len(order), dtype=np.int32)
        row_signature = rank[inverse]
        # Stable argsort by table rank lists each signature's rows in order.
        member_ids = np.argsort(row_signature, kind="stable").astype(np.int32)
        return cls._from_columns(
            properties,
            support[order],
            group_counts[order].astype(np.int64, copy=False),
            member_ids,
            matrix.subjects,
            name,
            signatures=tuple(signatures[g] for g in order),
            keys=[keys[g] for g in order],
            subject_index=matrix._subject_index,
            row_signature=row_signature,
            matrix_rows=True,
        )

    @classmethod
    def from_graph(
        cls,
        graph: RDFGraph,
        exclude_type: bool = True,
        properties: Optional[Sequence[URI]] = None,
        name: Optional[str] = None,
    ) -> "SignatureTable":
        """Build the signature table of an RDF graph (via its property matrix)."""
        matrix = PropertyMatrix.from_graph(
            graph, exclude_type=exclude_type, properties=properties
        )
        return cls.from_matrix(matrix, name=name if name is not None else graph.name)

    @classmethod
    def from_counts(
        cls,
        properties: Sequence[URI],
        counts: Mapping[Iterable[URI], int],
        name: str = "",
    ) -> "SignatureTable":
        """Build a table directly from (property-collection -> count) pairs."""
        normalised = {frozenset(coerce_uri(p) for p in sig): count for sig, count in counts.items()}
        return cls(properties, normalised, name=name)

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def properties(self) -> Tuple[URI, ...]:
        """The property universe ``P(D)`` in column order."""
        return self._properties

    @property
    def signatures(self) -> Tuple[Signature, ...]:
        """All signatures, largest signature set first."""
        if self._signatures is None:
            properties = self._properties
            self._signatures = tuple(
                frozenset(properties[j] for j in np.flatnonzero(row))
                for row in self._support_bool
            )
        return self._signatures

    def _signature_positions(self) -> Dict[Signature, int]:
        """signature -> its row in table order (built once, lazily)."""
        if self._signature_index is None:
            self._signature_index = {sig: g for g, sig in enumerate(self.signatures)}
        return self._signature_index

    def _key_list(self) -> List[Tuple[str, ...]]:
        """The :func:`signature_key` of every signature, in table order."""
        if self._keys is None:
            self._keys = [signature_key(sig) for sig in self.signatures]
        return self._keys

    @property
    def n_signatures(self) -> int:
        """Number of distinct signatures ``|Λ(D)|``."""
        return len(self._count_vec)

    @property
    def n_properties(self) -> int:
        """Number of properties ``|P(D)|``."""
        return len(self._properties)

    @property
    def n_subjects(self) -> int:
        """Total number of subjects ``|S(D)|``."""
        return int(self._count_vec.sum())

    @property
    def has_members(self) -> bool:
        """Whether concrete member subjects are tracked."""
        return self._member_ids is not None

    def count(self, signature: Iterable[URI]) -> int:
        """Return the size of the signature set for ``signature`` (0 if absent)."""
        g = self._signature_positions().get(frozenset(coerce_uri(p) for p in signature))
        return 0 if g is None else int(self._count_vec[g])

    def counts(self) -> Dict[Signature, int]:
        """Return a copy of the signature -> size mapping."""
        return dict(zip(self.signatures, self._count_vec.tolist()))

    def support(self, signature: Signature) -> Signature:
        """Return ``supp(µ)``, i.e. the signature itself as a property set."""
        return signature

    def _require_members(self) -> np.ndarray:
        if self._member_ids is None:
            raise RDFError("this signature table does not track member subjects")
        return self._member_ids

    def _decode(self, member_ids: np.ndarray) -> Tuple[URI, ...]:
        """The subject labels at the given member positions."""
        return tuple(map(self._subjects.__getitem__, member_ids.tolist()))

    def members_of(self, signature: Iterable[URI]) -> Tuple[URI, ...]:
        """Return the member subjects of a signature set (requires members)."""
        member_ids = self._require_members()
        g = self._signature_positions().get(frozenset(coerce_uri(p) for p in signature))
        if g is None:
            return ()
        start = int(self._count_vec[:g].sum())
        return self._decode(member_ids[start:start + int(self._count_vec[g])])

    def _row_signatures(self) -> np.ndarray:
        """position -> signature row (-1 for a label that is no member), built lazily."""
        if self._row_signature is None:
            row_signature = np.full(len(self._subjects), -1, dtype=np.int32)
            row_signature[self._member_ids] = np.repeat(
                np.arange(len(self._count_vec), dtype=np.int32), self._count_vec
            )
            self._row_signature = row_signature
        return self._row_signature

    def signature_of(self, subject: object) -> Signature:
        """Return the signature of a tracked subject (requires members)."""
        member_ids = self._require_members()
        if self._subject_index is None:
            labels = self._subjects
            self._subject_index = {labels[p]: p for p in member_ids.tolist()}
        position = self._subject_index.get(coerce_uri(subject))
        g = -1 if position is None else int(self._row_signatures()[position])
        if g < 0:
            raise RDFError(f"subject {subject!r} is not tracked by this signature table")
        return self.signatures[g]

    # ------------------------------------------------------------------ #
    # Aggregates used by the closed-form structuredness functions
    # ------------------------------------------------------------------ #
    def n_cells(self) -> int:
        """``|S(D)| * |P(D)|``, the denominator of Cov."""
        return self.n_subjects * self.n_properties

    def n_ones(self) -> int:
        """Total number of (subject, property) facts: ``sum_µ |S(µ)| * |supp(µ)|``."""
        if not len(self._count_vec):
            return 0
        support_sizes = self._support_bool.sum(axis=1)
        return int(self._count_vec @ support_sizes)

    def _column(self, prop: URI) -> Optional[np.ndarray]:
        """The boolean signature-membership column of ``prop`` (None if absent)."""
        try:
            j = self._properties.index(prop)
        except ValueError:
            return None
        return self._support_bool[:, j]

    def property_count(self, prop: object) -> int:
        """Number of subjects that have ``prop``."""
        column = self._column(coerce_uri(prop))
        if column is None:
            return 0
        return int(self._count_vec @ column)

    def property_counts(self) -> Dict[URI, int]:
        """Mapping property -> number of subjects having it."""
        totals = self.property_count_vector()
        return {p: int(totals[j]) for j, p in enumerate(self._properties)}

    def property_count_vector(self) -> np.ndarray:
        """Per-property subject counts aligned with :attr:`properties`."""
        if not len(self._count_vec):
            return np.zeros(self.n_properties, dtype=np.int64)
        return np.asarray(self._count_vec @ self._support_bool, dtype=np.int64)

    def both_count(self, prop1: object, prop2: object) -> int:
        """Number of subjects having both properties."""
        col1 = self._column(coerce_uri(prop1))
        col2 = self._column(coerce_uri(prop2))
        if col1 is None or col2 is None:
            return 0
        return int(self._count_vec @ (col1 & col2))

    def either_count(self, prop1: object, prop2: object) -> int:
        """Number of subjects having at least one of the two properties."""
        col1 = self._column(coerce_uri(prop1))
        col2 = self._column(coerce_uri(prop2))
        if col1 is None and col2 is None:
            return 0
        if col1 is None:
            col1 = np.zeros(self.n_signatures, dtype=bool)
        if col2 is None:
            col2 = np.zeros(self.n_signatures, dtype=bool)
        return int(self._count_vec @ (col1 | col2))

    def count_vector(self) -> np.ndarray:
        """Signature-set sizes as an integer vector aligned with :attr:`signatures`."""
        return np.array(self._count_vec, dtype=np.int64)

    def support_matrix(self) -> np.ndarray:
        """Boolean matrix of shape (n_signatures, n_properties): signature supports."""
        return np.array(self._support_bool, dtype=bool)

    def packed_support_matrix(self) -> np.ndarray:
        """The signature supports as packed bitset rows (``np.packbits`` layout).

        Shape ``(n_signatures, ceil(n_properties / 8))``, dtype ``uint8``;
        bit ``j`` of a row (MSB-first within each byte) is property ``j``.
        """
        support = self._support_bool
        if not support.size:
            return np.zeros((len(support), 0), dtype=np.uint8)
        return np.packbits(support, axis=1)

    # ------------------------------------------------------------------ #
    # Incremental maintenance
    # ------------------------------------------------------------------ #
    def apply_delta(
        self, matrix: PropertyMatrix, delta: GraphDelta, name: Optional[str] = None
    ) -> "SignatureTable":
        """Move only the touched subjects between signature sets after a graph mutation.

        ``matrix`` must be the *already mutated* property matrix (the
        result of :meth:`PropertyMatrix.apply_delta`, or an equal rebuild)
        and ``self`` the signature table of the pre-delta matrix with
        member tracking.  The result equals
        ``SignatureTable.from_matrix(matrix)`` exactly — same signatures,
        counts, member sets and member order.

        Each touched subject's old signature comes from the cached
        row → signature array and its new one from its patched matrix
        row; its position is deleted from one block of the member column
        and inserted, in order, into another (a new signature's block
        starts empty).  Blocks are reordered only when the
        (−count, property names) order changed.  That is Python work in
        the touched subjects and the signatures, plus a few O(subjects)
        NumPy copies; nothing is re-coerced or regrouped.  When the
        subject universe changed, or the column is not rows of the
        pre-delta matrix (one reopened from a snapshot holds term IDs),
        the column is first re-based onto the new rows by label, which
        is O(subjects) Python work; its successors patch as above.

        Requires row-sorted provenance (``from_matrix`` of a
        ``from_graph`` matrix), whose member blocks are sorted by subject;
        sorted order is preserved so chained deltas stay bit-identical to
        rebuilds.  A column re-based by label comes out in row order
        whatever order its members were listed in.
        """
        self._require_members()
        subjects = matrix.subjects
        rows_of = matrix._subject_index
        if self._matrix_rows and self._subjects is subjects:
            member_ids = self._member_ids
            counts = self._count_vec.copy()
            row_signature = self._row_signatures().copy()
        else:
            member_ids, counts, row_signature = self._rebased(matrix)

        properties = matrix.properties
        support, live = self._support_over(properties)
        n_old = len(counts)
        width = len(properties)
        raw = np.ascontiguousarray(support).tobytes()
        lookup = {raw[g * width:(g + 1) * width]: g for g in range(n_old) if live[g]}
        data = matrix.data
        fresh: List[np.ndarray] = []
        moves: List[Tuple[int, int, int]] = []
        for subject in delta.subjects:
            row = rows_of.get(subject)
            if row is None:
                continue  # left the matrix; the rebase already dropped it
            old = int(row_signature[row])
            key = data[row].tobytes()
            new = lookup.get(key)
            if new is None:
                new = lookup[key] = n_old + len(fresh)
                fresh.append(data[row])
            if new != old:
                moves.append((row, old, new))

        if fresh:
            counts = np.concatenate([counts, np.zeros(len(fresh), dtype=np.int64)])
            support = np.concatenate([support, np.array(fresh, dtype=bool)])
        if moves:
            starts = np.concatenate(([0], np.cumsum(counts)))
            gone = []
            for row, old, _new in moves:
                if old >= 0:
                    lo, hi = starts[old], starts[old + 1]
                    gone.append(lo + int(np.searchsorted(member_ids[lo:hi], row)))
                    counts[old] -= 1
            member_ids = np.delete(member_ids, gone)
            starts = np.concatenate(([0], np.cumsum(counts)))
            moves.sort(key=lambda move: (move[2], move[0]))
            at = []
            for row, _old, new in moves:
                lo, hi = starts[new], starts[new + 1]
                at.append(lo + int(np.searchsorted(member_ids[lo:hi], row)))
            member_ids = np.insert(member_ids, at, [row for row, _old, _new in moves])
            for row, _old, new in moves:
                counts[new] += 1
                row_signature[row] = new

        if any(counts[g] for g, alive in enumerate(live) if not alive):
            raise RDFError(
                "delta does not match this signature table: a subject keeps a "
                "property that left the matrix"
            )
        signatures = self.signatures
        keys = list(self._key_list())
        for row in fresh:
            signature = frozenset(properties[j] for j in np.flatnonzero(row))
            signatures += (signature,)
            keys.append(signature_key(signature))
        return SignatureTable._from_columns(
            properties,
            support,
            counts,
            member_ids,
            subjects,
            self.name if name is None else name,
            signatures=signatures,
            keys=keys,
            subject_index=rows_of,
            row_signature=row_signature,
            matrix_rows=True,
            in_order=False,
        )

    def _rebased(self, matrix: PropertyMatrix) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The member column re-expressed as rows of ``matrix``.

        Returns ``(member_ids, counts, row_signature)`` with subjects that
        left the matrix dropped and every block ascending: each member is
        mapped to its row by label, then sorted within its block.
        """
        rows_of = matrix._subject_index
        n_sig = len(self._count_vec)
        groups = np.repeat(np.arange(n_sig, dtype=np.int32), self._count_vec)
        labels = self._subjects
        rows = np.fromiter(
            (rows_of.get(labels[p], -1) for p in self._member_ids.tolist()),
            dtype=np.int64,
            count=len(self._member_ids),
        )
        order = np.lexsort((rows, groups))
        rows, groups = rows[order], groups[order]
        kept = rows >= 0
        rows, groups = rows[kept].astype(np.int32), groups[kept]
        row_signature = np.full(matrix.n_subjects, -1, dtype=np.int32)
        row_signature[rows] = groups
        return rows, np.bincount(groups, minlength=n_sig).astype(np.int64, copy=False), row_signature

    def _support_over(self, properties: Tuple[URI, ...]) -> Tuple[np.ndarray, List[bool]]:
        """The support matrix over another property universe.

        Returns it with, per signature, whether the signature survives:
        one that uses a property outside ``properties`` cannot be anyone's
        signature any more.
        """
        if properties == self._properties:
            return self._support_bool, [True] * self.n_signatures
        column_of = {p: j for j, p in enumerate(self._properties)}
        shared = [j for j, p in enumerate(properties) if p in column_of]
        support = np.zeros((self.n_signatures, len(properties)), dtype=bool)
        support[:, shared] = self._support_bool[:, [column_of[properties[j]] for j in shared]]
        kept = set(properties)
        vanished = [j for j, p in enumerate(self._properties) if p not in kept]
        return support, (~self._support_bool[:, vanished].any(axis=1)).tolist()

    # ------------------------------------------------------------------ #
    # Derived tables
    # ------------------------------------------------------------------ #
    def select(self, signatures: Iterable[Signature], name: str = "") -> "SignatureTable":
        """Return the sub-table containing only the given signatures.

        This is how an implicit sort is represented at the signature level:
        the property universe is restricted to the union of supports of the
        selected signatures (the properties the implicit sort *uses*, i.e.
        the paper's ``U_{i,p}`` variables set to 1), which is exactly what
        evaluating ``σ_r`` over the implicit sort requires.
        """
        wanted = [frozenset(coerce_uri(p) for p in sig) for sig in signatures]
        positions = self._signature_positions()
        unknown = [sig for sig in wanted if sig not in positions]
        if unknown:
            raise RDFError(f"unknown signatures requested: {[signature_key(s) for s in unknown]}")
        # A subset of a table keeps the table's relative order.
        rows = sorted({positions[sig] for sig in wanted})
        used = np.flatnonzero(self._support_bool[rows].any(axis=0))
        member_ids = None
        if self._member_ids is not None:
            blocks = _blocks(self._member_ids, self._count_vec)
            member_ids = (
                np.concatenate([blocks[g] for g in rows])
                if rows
                else np.zeros(0, dtype=np.int32)
            )
        keys = self._key_list()
        return SignatureTable._from_columns(
            tuple(self._properties[j] for j in used),
            self._support_bool[np.ix_(rows, used)],
            self._count_vec[rows],
            member_ids,
            self._subjects,
            name or self.name,
            signatures=tuple(self.signatures[g] for g in rows),
            keys=[keys[g] for g in rows],
            subject_index=self._subject_index,
        )

    def restrict_properties(self, properties: Iterable[URI], name: str = "") -> "SignatureTable":
        """Project the table onto a property subset, merging equal signatures.

        Used by rules that ignore some properties (e.g. the modified Cov
        rule of Section 7.4 that drops the RDF-syntax properties).
        """
        keep = [coerce_uri(p) for p in properties]
        keep_set = set(keep)
        counts: Dict[Signature, int] = {}
        members: Optional[Dict[Signature, List[URI]]] = {} if self.has_members else None
        for sig, count in self.counts().items():
            projected = frozenset(p for p in sig if p in keep_set)
            counts[projected] = counts.get(projected, 0) + count
            if members is not None:
                members.setdefault(projected, []).extend(self.members_of(sig))
        ordered_props = tuple(p for p in self._properties if p in keep_set)
        extra = tuple(p for p in keep if p not in self._properties)
        return SignatureTable(ordered_props + extra, counts, members=members, name=name or self.name)

    def merge(self, other: "SignatureTable", name: str = "") -> "SignatureTable":
        """Return the union of two signature tables (summing counts).

        Member subjects are kept only when both tables track them.
        """
        properties = list(self._properties)
        for p in other.properties:
            if p not in properties:
                properties.append(p)
        counts = self.counts()
        for sig, count in other.counts().items():
            counts[sig] = counts.get(sig, 0) + count
        members = None
        if self.has_members and other.has_members:
            members = {sig: list(self.members_of(sig)) for sig in self.signatures}
            for sig in other.signatures:
                members.setdefault(sig, []).extend(other.members_of(sig))
        return SignatureTable(properties, counts, members=members, name=name)

    def scale(self, factor: float, minimum: int = 1, name: str = "") -> "SignatureTable":
        """Return a table with every signature-set size multiplied by ``factor``.

        Sizes are rounded and floored at ``minimum`` so that no signature
        disappears.  Member subjects are dropped (they no longer exist).
        Used to produce laptop-scale versions of the paper's datasets whose
        structuredness values match the full-scale ones closely (all the
        functions are ratios of counts, so uniform scaling preserves them
        up to rounding).
        """
        if factor <= 0:
            raise RDFError("scale factor must be positive")
        counts = {
            sig: max(minimum, int(round(count * factor))) for sig, count in self.counts().items()
        }
        return SignatureTable(self._properties, counts, name=name or self.name)

    def to_matrix(self, subject_prefix: str = "http://example.org/subject/") -> PropertyMatrix:
        """Expand the table into a full :class:`PropertyMatrix`.

        When member subjects are tracked they become the row labels;
        otherwise synthetic subject URIs ``<prefix><i>`` are minted.
        """
        if self._member_ids is not None:
            subjects: Sequence[URI] = self._decode(self._member_ids)
        else:
            subjects = [URI(f"{subject_prefix}{i}") for i in range(self.n_subjects)]
        # Expand each signature's support row once per member subject.
        data = np.repeat(self._support_bool, self._count_vec, axis=0)
        return PropertyMatrix(data, subjects, self._properties, name=self.name)

    def to_graph(self, subject_prefix: str = "http://example.org/subject/") -> RDFGraph:
        """Expand the table into an RDF graph (via :meth:`to_matrix`)."""
        return self.to_matrix(subject_prefix=subject_prefix).to_graph()

    # ------------------------------------------------------------------ #
    # Dunder methods
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self.n_signatures

    def __iter__(self):
        return iter(self.signatures)

    def __contains__(self, signature: object) -> bool:
        if not isinstance(signature, (frozenset, set)):
            return False
        return frozenset(signature) in self._signature_positions()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SignatureTable):
            return NotImplemented
        return self._properties == other._properties and self.counts() == other.counts()

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<SignatureTable{label}: {self.n_subjects} subjects, "
            f"{self.n_properties} properties, {self.n_signatures} signatures>"
        )
