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

Internally the table is columnar: alongside the frozenset view it keeps the
signature supports as **packed bitset rows** (``np.packbits`` of the
``n_signatures × n_properties`` boolean support matrix) and the signature-
set sizes as an ``int64`` count vector.  Every aggregate the closed-form
structuredness functions need (``n_ones``, per-property counts, pairwise
both/either counts) is a vectorised reduction over those arrays, and
:meth:`from_matrix` groups matrix rows into signatures with one
``np.unique`` pass over the packed rows instead of hashing a frozenset per
subject.  See DESIGN.md, "Interned-ID architecture".
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
    """

    __slots__ = (
        "_properties",
        "_signatures",
        "_counts",
        "_members",
        "_member_index",
        "_count_vec",
        "_support_bool",
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
        self._properties: Tuple[URI, ...] = tuple(coerce_uri(p) for p in properties)
        if len(set(self._properties)) != len(self._properties):
            raise RDFError("duplicate properties in signature table")
        property_set = set(self._properties)

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

        # Deterministic order: largest signature sets first (as in the
        # paper's figures), ties broken by the property names.
        ordered = sorted(normalised.items(), key=lambda item: (-item[1], signature_key(item[0])))
        self._signatures: Tuple[Signature, ...] = tuple(sig for sig, _ in ordered)
        self._counts: Dict[Signature, int] = dict(ordered)

        # Columnar view: count vector + boolean support rows over the
        # property universe, aligned with self._signatures / self._properties.
        self._count_vec: np.ndarray = np.fromiter(
            (count for _sig, count in ordered), dtype=np.int64, count=len(ordered)
        )
        property_index = {p: j for j, p in enumerate(self._properties)}
        support = np.zeros((len(self._signatures), len(self._properties)), dtype=bool)
        for i, sig in enumerate(self._signatures):
            for p in sig:
                support[i, property_index[p]] = True
        self._support_bool: np.ndarray = support

        self._members: Optional[Dict[Signature, Tuple[URI, ...]]] = None
        if members is not None:
            collected: Dict[Signature, Tuple[URI, ...]] = {}
            for signature, subject_list in members.items():
                sig = frozenset(coerce_uri(p) for p in signature)
                if sig not in self._counts:
                    if not subject_list:
                        continue
                    raise RDFError(f"members given for unknown signature {signature_key(sig)}")
                collected[sig] = tuple(coerce_uri(s) for s in subject_list)
            for sig, count in self._counts.items():
                if sig not in collected:
                    raise RDFError("members mapping must cover every signature")
                if len(collected[sig]) != count:
                    raise RDFError(
                        f"signature {signature_key(sig)} has count {count} but "
                        f"{len(collected[sig])} members"
                    )
            self._members = collected
        # Lazily built subject -> signature reverse index (requires
        # members); apply_delta carries an updated copy forward so chained
        # mutations never pay the O(n_subjects) rebuild.
        self._member_index: Optional[Dict[URI, Signature]] = None
        self.name = name

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
        """
        data = matrix.data
        properties = matrix.properties
        subjects = matrix.subjects
        if len(subjects) == 0:
            return cls(properties, {}, members={}, name=name if name is not None else matrix.name)
        # One representative row per group gives the support of its signature.
        representatives, inverse, group_counts = group_boolean_rows(data)
        n_groups = len(group_counts)
        signatures = [
            frozenset(p for j, p in enumerate(properties) if data[representatives[g], j])
            for g in range(n_groups)
        ]
        counts: Dict[Signature, int] = {
            signatures[g]: int(group_counts[g]) for g in range(n_groups)
        }
        # Stable argsort by group recovers each group's members in row order.
        order = np.argsort(inverse, kind="stable")
        boundaries = np.cumsum(group_counts)
        members: Dict[Signature, Tuple[URI, ...]] = {}
        start = 0
        for g, stop in enumerate(boundaries):
            members[signatures[g]] = tuple(subjects[i] for i in order[start:stop])
            start = stop
        return cls(
            properties,
            counts,
            members=members,
            name=name if name is not None else matrix.name,
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
        return self._signatures

    @property
    def n_signatures(self) -> int:
        """Number of distinct signatures ``|Λ(D)|``."""
        return len(self._signatures)

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
        return self._members is not None

    def count(self, signature: Iterable[URI]) -> int:
        """Return the size of the signature set for ``signature`` (0 if absent)."""
        return self._counts.get(frozenset(coerce_uri(p) for p in signature), 0)

    def counts(self) -> Dict[Signature, int]:
        """Return a copy of the signature -> size mapping."""
        return dict(self._counts)

    def support(self, signature: Signature) -> Signature:
        """Return ``supp(µ)``, i.e. the signature itself as a property set."""
        return signature

    def members_of(self, signature: Iterable[URI]) -> Tuple[URI, ...]:
        """Return the member subjects of a signature set (requires members)."""
        if self._members is None:
            raise RDFError("this signature table does not track member subjects")
        return self._members.get(frozenset(coerce_uri(p) for p in signature), ())

    def _member_index_map(self) -> Dict[URI, Signature]:
        """The subject -> signature reverse index (built once, lazily)."""
        if self._members is None:
            raise RDFError("this signature table does not track member subjects")
        if self._member_index is None:
            self._member_index = {
                subject: signature
                for signature, subjects in self._members.items()
                for subject in subjects
            }
        return self._member_index

    def signature_of(self, subject: object) -> Signature:
        """Return the signature of a tracked subject (requires members)."""
        signature = self._member_index_map().get(coerce_uri(subject))
        if signature is None:
            raise RDFError(f"subject {subject!r} is not tracked by this signature table")
        return signature

    # ------------------------------------------------------------------ #
    # Aggregates used by the closed-form structuredness functions
    # ------------------------------------------------------------------ #
    def n_cells(self) -> int:
        """``|S(D)| * |P(D)|``, the denominator of Cov."""
        return self.n_subjects * self.n_properties

    def n_ones(self) -> int:
        """Total number of (subject, property) facts: ``sum_µ |S(µ)| * |supp(µ)|``."""
        if not self._signatures:
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
        totals = self._count_vec @ self._support_bool if self._signatures else np.zeros(
            self.n_properties, dtype=np.int64
        )
        return {p: int(totals[j]) for j, p in enumerate(self._properties)}

    def property_count_vector(self) -> np.ndarray:
        """Per-property subject counts aligned with :attr:`properties`."""
        if not self._signatures:
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
            col1 = np.zeros(len(self._signatures), dtype=bool)
        if col2 is None:
            col2 = np.zeros(len(self._signatures), dtype=bool)
        return int(self._count_vec @ (col1 | col2))

    def count_vector(self) -> np.ndarray:
        """Signature-set sizes as an integer vector aligned with :attr:`signatures`."""
        return self._count_vec.copy()

    def support_matrix(self) -> np.ndarray:
        """Boolean matrix of shape (n_signatures, n_properties): signature supports."""
        return self._support_bool.copy()

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
        """Re-group only the touched subjects after a graph mutation.

        ``matrix`` must be the *already mutated* property matrix (the
        result of :meth:`PropertyMatrix.apply_delta`, or an equal rebuild)
        and ``self`` the signature table of the pre-delta matrix with
        member tracking.  The result equals
        ``SignatureTable.from_matrix(matrix)`` exactly — same signatures,
        counts, member sets and member order — but only the delta's
        subjects move between signature sets.  (The constructor still
        re-normalises every member tuple and support row, so a patch is
        O(subjects) with small constants — what it saves over
        ``from_matrix`` is the packbits/unique grouping pass and the
        per-subject membership assembly, the dominant rebuild costs.)

        Requires row-sorted provenance (``from_matrix`` of a
        ``from_graph`` matrix), whose member tuples are sorted by subject;
        sorted order is preserved so chained deltas stay bit-identical to
        rebuilds.
        """
        if self._members is None:
            raise RDFError(
                "apply_delta requires a signature table that tracks member "
                "subjects (build it with from_matrix/from_graph)"
            )
        index = dict(self._member_index_map())
        counts: Dict[Signature, int] = dict(self._counts)
        members: Dict[Signature, Tuple[URI, ...]] = dict(self._members)
        removals: Dict[Signature, set] = {}
        additions: Dict[Signature, List[URI]] = {}
        for subject in sorted(delta.subjects):
            old_sig = index.get(subject)
            new_sig = (
                frozenset(matrix.properties_of(subject))
                if matrix.has_subject(subject)
                else None
            )
            if old_sig == new_sig:
                continue
            if old_sig is not None:
                removals.setdefault(old_sig, set()).add(subject)
            if new_sig is None:
                del index[subject]
            else:
                additions.setdefault(new_sig, []).append(subject)
                index[subject] = new_sig
        for signature, gone in removals.items():
            remaining = tuple(s for s in members[signature] if s not in gone)
            if remaining:
                members[signature] = remaining
                counts[signature] = len(remaining)
            else:
                del members[signature]
                del counts[signature]
        for signature, fresh in additions.items():
            combined = tuple(sorted(members.get(signature, ()) + tuple(fresh)))
            members[signature] = combined
            counts[signature] = len(combined)
        table = SignatureTable(
            matrix.properties,
            counts,
            members=members,
            name=self.name if name is None else name,
        )
        table._member_index = index
        return table

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
        unknown = [sig for sig in wanted if sig not in self._counts]
        if unknown:
            raise RDFError(f"unknown signatures requested: {[signature_key(s) for s in unknown]}")
        used: set = set()
        for sig in wanted:
            used |= sig
        properties = tuple(p for p in self._properties if p in used)
        counts = {sig: self._counts[sig] for sig in wanted}
        members = None
        if self._members is not None:
            members = {sig: self._members[sig] for sig in wanted}
        return SignatureTable(properties, counts, members=members, name=name or self.name)

    def restrict_properties(self, properties: Iterable[URI], name: str = "") -> "SignatureTable":
        """Project the table onto a property subset, merging equal signatures.

        Used by rules that ignore some properties (e.g. the modified Cov
        rule of Section 7.4 that drops the RDF-syntax properties).
        """
        keep = [coerce_uri(p) for p in properties]
        keep_set = set(keep)
        counts: Dict[Signature, int] = {}
        members: Optional[Dict[Signature, List[URI]]] = {} if self._members is not None else None
        for sig, count in self._counts.items():
            projected = frozenset(p for p in sig if p in keep_set)
            counts[projected] = counts.get(projected, 0) + count
            if members is not None:
                members.setdefault(projected, []).extend(self._members[sig])
        member_arg = None
        if members is not None:
            member_arg = {sig: tuple(subs) for sig, subs in members.items()}
        ordered_props = tuple(p for p in self._properties if p in keep_set)
        extra = tuple(p for p in keep if p not in self._properties)
        return SignatureTable(ordered_props + extra, counts, members=member_arg, name=name or self.name)

    def merge(self, other: "SignatureTable", name: str = "") -> "SignatureTable":
        """Return the union of two signature tables (summing counts).

        Member subjects are kept only when both tables track them.
        """
        properties = list(self._properties)
        for p in other.properties:
            if p not in properties:
                properties.append(p)
        counts: Dict[Signature, int] = dict(self._counts)
        for sig, count in other.counts().items():
            counts[sig] = counts.get(sig, 0) + count
        members = None
        if self._members is not None and other._members is not None:
            members_acc: Dict[Signature, List[URI]] = {
                sig: list(subs) for sig, subs in self._members.items()
            }
            for sig, subs in other._members.items():
                members_acc.setdefault(sig, []).extend(subs)
            members = {sig: tuple(subs) for sig, subs in members_acc.items()}
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
            sig: max(minimum, int(round(count * factor))) for sig, count in self._counts.items()
        }
        return SignatureTable(self._properties, counts, name=name or self.name)

    def to_matrix(self, subject_prefix: str = "http://example.org/subject/") -> PropertyMatrix:
        """Expand the table into a full :class:`PropertyMatrix`.

        When member subjects are tracked they become the row labels;
        otherwise synthetic subject URIs ``<prefix><i>`` are minted.
        """
        subjects: List[URI] = []
        if self._members is not None:
            for sig in self._signatures:
                subjects.extend(self._members[sig])
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
        return len(self._signatures)

    def __iter__(self):
        return iter(self._signatures)

    def __contains__(self, signature: object) -> bool:
        if not isinstance(signature, (frozenset, set)):
            return False
        return frozenset(signature) in self._counts

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SignatureTable):
            return NotImplemented
        return self._properties == other._properties and self._counts == other._counts

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
