"""Sharded signature tables: the row-partitioned associative view.

The signature table is a sparse associative array (signature × property →
count), and like any associative array its *row* partition distributes
trivially: every structuredness aggregate used in this library is a sum
over signatures, so the signatures split into S shards are counted
independently and merged by addition.  :class:`ShardedSignatureTable`
implements exactly that partition:

* shards fold **signatures, never subjects** — all members of a signature
  set land in the same shard, so each shard is itself a valid
  :class:`~repro.matrix.signatures.SignatureTable` over the *full*
  property universe (never a restricted one: σ denominators depend on
  ``|P(D)|``, and per-shard rule evaluation must see the same columns the
  whole table does);
* the shard of a signature is a **content hash** (CRC-32 of its sorted
  property strings), deterministic across processes, hash seeds and
  insertion orders — the same signature lands in the same shard on every
  worker of a pool, which is what makes shard-merged counts reproducible;
* one-variable rule counts and σ fractions merge additively across
  shards (multi-variable rules need cross-shard assignments and fall back
  to whole-table counting);
* :meth:`apply_delta` keeps the sharding incrementally consistent with
  ``SignatureTable.apply_delta``: only shards whose signatures changed
  are rebuilt, the rest are reused object-identically, and the result
  equals a from-scratch ``ShardedSignatureTable`` of the patched table.

The wrapper exposes a ``table`` attribute holding the unsharded parent,
so every API that accepts ``.table``-bearing objects (the free
structuredness functions, the searches) accepts a sharded table too.
"""

from __future__ import annotations

import zlib
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from repro.exceptions import RDFError
from repro.matrix.property_matrix import PropertyMatrix
from repro.matrix.signatures import Signature, SignatureTable, signature_key
from repro.rdf.graph import GraphDelta

__all__ = ["ShardedSignatureTable", "shard_of_signature"]


def shard_of_signature(signature: Signature, n_shards: int) -> int:
    """The shard index of a signature: a content hash of its sorted support.

    Uses CRC-32 over the signature's sorted property strings, so the
    assignment is identical across processes and ``PYTHONHASHSEED``
    values (Python's own ``hash`` is salted and would shard differently
    on every worker).
    """
    if n_shards < 1:
        raise RDFError(f"n_shards must be >= 1, got {n_shards}")
    payload = "\x1f".join(signature_key(signature)).encode("utf-8")
    return zlib.crc32(payload) % n_shards


class ShardedSignatureTable:
    """A signature table folded into S content-addressed shards.

    Parameters
    ----------
    table:
        The parent :class:`SignatureTable` (kept as :attr:`table`; all
        shard tables share its property universe).
    n_shards:
        Number of shards S.  Empty shards are legal (an empty
        ``SignatureTable`` over the full property universe).

    ``stats`` counts shard (re)builds and reuses so tests can prove that
    incremental refreshes only touch the dirty shards.
    """

    __slots__ = (
        "table",
        "_n_shards",
        "_shards",
        "_assignment",
        "stats",
        "__weakref__",
    )

    def __init__(self, table: SignatureTable, n_shards: int = 1):
        if n_shards < 1:
            raise RDFError(f"n_shards must be >= 1, got {n_shards}")
        self.table = table
        self._n_shards = n_shards
        self._assignment: Dict[Signature, int] = {
            sig: shard_of_signature(sig, n_shards) for sig in table.signatures
        }
        built = self._materialise_shards(table, range(n_shards))
        self._shards: Tuple[SignatureTable, ...] = tuple(
            built[index] for index in range(n_shards)
        )
        self.stats: Dict[str, int] = {
            "shards_built": n_shards,
            "shards_rebuilt": 0,
            "shards_reused": 0,
            "refreshes": 0,
        }

    def _materialise_shards(
        self, table: SignatureTable, indices
    ) -> Dict[int, SignatureTable]:
        """Build the requested shard tables in ONE pass over the signatures.

        The signature stream is partitioned into per-shard count/member
        mappings first and only then materialised, so constructing S shards
        costs one scan of the parent table instead of S — which is what
        lets a freshly loaded (possibly out-of-core-built, disk-resident)
        table be sharded without re-touching its signatures per shard, and
        an incremental refresh rebuild only its dirty shards without
        scanning the clean ones.
        """
        wanted = set(indices)
        counts_by: Dict[int, Dict[Signature, int]] = {index: {} for index in wanted}
        members_by: Optional[Dict[int, Dict[Signature, tuple]]] = (
            {index: {} for index in wanted} if table.has_members else None
        )
        assignment = self._assignment
        for sig, count in table.counts().items():
            index = assignment[sig]
            if index not in wanted:
                continue
            counts_by[index][sig] = count
            if members_by is not None:
                members_by[index][sig] = table.members_of(sig)
        shards: Dict[int, SignatureTable] = {}
        for index in wanted:
            label = f"{table.name}[shard {index}/{self._n_shards}]" if table.name else ""
            shards[index] = SignatureTable(
                table.properties,
                counts_by[index],
                members=members_by[index] if members_by is not None else None,
                name=label,
            )
        return shards

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def n_shards(self) -> int:
        """The number of shards S."""
        return self._n_shards

    @property
    def shards(self) -> Tuple[SignatureTable, ...]:
        """The shard tables, in shard-index order (some may be empty)."""
        return self._shards

    def shard_of(self, signature: Signature) -> int:
        """The shard index a signature folds into (content-hash, stable)."""
        return shard_of_signature(frozenset(signature), self._n_shards)

    @property
    def n_subjects(self) -> int:
        """Total subjects (equals the parent table's count; additive check)."""
        return self.table.n_subjects

    @property
    def n_signatures(self) -> int:
        """Total distinct signatures across all shards."""
        return self.table.n_signatures

    @property
    def properties(self) -> Tuple:
        """The shared property universe (identical in every shard)."""
        return self.table.properties

    # ------------------------------------------------------------------ #
    # Shard-merged counting
    # ------------------------------------------------------------------ #
    def rule_counts(self, rule) -> Tuple[int, int]:
        """``(total, favourable)`` concrete-assignment counts of ``rule``.

        One-variable rules are counted per shard and summed — every
        rough case touches exactly one signature, so the shard partition
        splits the case set disjointly and the merge is plain integer
        addition (exact, associative, order-independent).  Multi-variable
        rules need assignments spanning shards, so they are counted over
        the parent table.
        """
        from repro.rules.counting import rule_counts as count_table

        if len(rule.variables()) != 1:
            return count_table(rule, self.table)
        results = [count_table(rule, shard) for shard in self._shards]
        total = sum(t for t, _f in results)
        favourable = sum(f for _t, f in results)
        return total, favourable

    def sigma_fraction(self, rule) -> Fraction:
        """σ_r over the sharded table as an exact fraction (shard-merged)."""
        total, favourable = self.rule_counts(rule)
        if total == 0:
            return Fraction(1)
        return Fraction(favourable, total)

    # ------------------------------------------------------------------ #
    # Incremental maintenance
    # ------------------------------------------------------------------ #
    def apply_delta(
        self, matrix: PropertyMatrix, delta: GraphDelta
    ) -> "ShardedSignatureTable":
        """Patch the parent table and refresh only the dirty shards.

        Mirrors :meth:`SignatureTable.apply_delta` (same arguments, same
        exactness guarantee): the result equals
        ``ShardedSignatureTable(self.table.apply_delta(matrix, delta), S)``
        but reuses every shard whose signatures the delta left untouched.
        """
        new_table = self.table.apply_delta(matrix, delta)
        return self.refreshed(new_table, subjects=delta.subjects)

    def refreshed(
        self, new_table: SignatureTable, subjects=None
    ) -> "ShardedSignatureTable":
        """Re-shard around an already-patched parent table.

        ``subjects`` optionally names the subjects a delta touched; their
        old/new signatures bound the set of dirty shards.  Without it
        (or without member tracking) dirty signatures are found by
        diffing the count/member mappings.  A changed property universe
        forces a full rebuild — support rows of *every* shard change
        width.  Cumulative ``stats`` carry over so reuse is observable.
        """
        if new_table.properties != self.table.properties:
            fresh = ShardedSignatureTable(new_table, self._n_shards)
            for key in ("shards_rebuilt", "shards_reused", "refreshes"):
                fresh.stats[key] = self.stats[key]
            fresh.stats["shards_built"] += self.stats["shards_built"]
            fresh.stats["refreshes"] += 1
            return fresh

        changed: set = set()
        if subjects is not None and self.table.has_members and new_table.has_members:
            for subject in subjects:
                for table in (self.table, new_table):
                    try:
                        changed.add(table.signature_of(subject))
                    except RDFError:
                        pass
        else:
            old_counts = self.table.counts()
            new_counts = new_table.counts()
            for sig in set(old_counts) | set(new_counts):
                if old_counts.get(sig) != new_counts.get(sig):
                    changed.add(sig)
                elif self.table.has_members and new_table.has_members:
                    if self.table.members_of(sig) != new_table.members_of(sig):
                        changed.add(sig)

        dirty = {shard_of_signature(sig, self._n_shards) for sig in changed}
        fresh = ShardedSignatureTable.__new__(ShardedSignatureTable)
        fresh.table = new_table
        fresh._n_shards = self._n_shards
        fresh._assignment = {
            sig: shard_of_signature(sig, self._n_shards) for sig in new_table.signatures
        }
        rebuilt = fresh._materialise_shards(new_table, dirty)
        fresh._shards = tuple(
            rebuilt[index] if index in dirty else self._shards[index]
            for index in range(self._n_shards)
        )
        fresh.stats = dict(self.stats)
        fresh.stats["shards_rebuilt"] += len(dirty)
        fresh.stats["shards_reused"] += self._n_shards - len(dirty)
        fresh.stats["refreshes"] += 1
        return fresh

    # ------------------------------------------------------------------ #
    # Dunder methods
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShardedSignatureTable):
            return NotImplemented
        return self._n_shards == other._n_shards and self.table == other.table

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def describe(self) -> Dict[str, object]:
        """Serialisable topology facts: shard count and per-shard sizes."""
        return {
            "n_shards": self._n_shards,
            "shard_signatures": [shard.n_signatures for shard in self._shards],
            "shard_subjects": [shard.n_subjects for shard in self._shards],
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ShardedSignatureTable {self._n_shards} shards over "
            f"{self.table.n_signatures} signatures>"
        )
