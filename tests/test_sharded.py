"""Tests for :class:`repro.matrix.sharded.ShardedSignatureTable`.

The sharding contract: signatures (never subjects) fold into shards by a
content hash, every aggregate merges back to exactly the unsharded
answer for any shard count, and incremental refreshes rebuild only the
shards a delta touched.
"""

from __future__ import annotations

import zlib

import pytest

from repro.api import Dataset
from repro.exceptions import RDFError
from repro.matrix.sharded import ShardedSignatureTable, shard_of_signature
from repro.matrix.signatures import SignatureTable, signature_key
from repro.rdf.namespaces import EX
from repro.rdf.terms import Literal
from repro.rules import coverage, similarity
from repro.rules.counting import rule_counts, sigma_by_signatures_fraction

SHARD_GRID = (1, 3, 16)

NTRIPLES = """
<http://ex/a> <http://ex/p> "1" .
<http://ex/a> <http://ex/q> "2" .
<http://ex/b> <http://ex/p> "3" .
<http://ex/c> <http://ex/p> "4" .
<http://ex/c> <http://ex/q> "5" .
<http://ex/c> <http://ex/r> "6" .
<http://ex/d> <http://ex/r> "7" .
"""


class TestShardAssignment:
    def test_content_hash_matches_crc32(self, toy_persons_table):
        for sig in toy_persons_table.signatures:
            payload = "\x1f".join(signature_key(sig)).encode("utf-8")
            for n in SHARD_GRID:
                assert shard_of_signature(sig, n) == zlib.crc32(payload) % n

    def test_assignment_independent_of_set_spelling(self):
        assert shard_of_signature(frozenset([EX.p, EX.q]), 7) == shard_of_signature(
            frozenset([EX.q, EX.p]), 7
        )

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(RDFError):
            shard_of_signature(frozenset([EX.p]), 0)
        with pytest.raises(RDFError):
            ShardedSignatureTable(
                SignatureTable.from_counts([EX.p], {frozenset([EX.p]): 1}), 0
            )


class TestShardPartition:
    @pytest.mark.parametrize("n_shards", SHARD_GRID)
    def test_shards_partition_the_signatures(self, toy_persons_table, n_shards):
        sharded = ShardedSignatureTable(toy_persons_table, n_shards)
        assert sharded.n_shards == n_shards
        assert len(sharded.shards) == n_shards
        merged: dict = {}
        for shard in sharded.shards:
            # Full property universe in every shard — σ denominators
            # depend on |P(D)|, so a restricted universe would be wrong.
            assert shard.properties == toy_persons_table.properties
            for sig, count in shard.counts().items():
                assert sig not in merged
                merged[sig] = count
        assert merged == toy_persons_table.counts()
        assert sharded.n_subjects == toy_persons_table.n_subjects
        assert sharded.n_signatures == toy_persons_table.n_signatures

    @pytest.mark.parametrize("n_shards", SHARD_GRID)
    @pytest.mark.parametrize("rule_factory", [coverage, similarity])
    def test_counts_invariant_across_shard_counts(
        self, toy_persons_table, n_shards, rule_factory
    ):
        rule = rule_factory()
        expected = rule_counts(rule, toy_persons_table)
        sharded = ShardedSignatureTable(toy_persons_table, n_shards)
        assert sharded.rule_counts(rule) == expected

    @pytest.mark.parametrize("n_shards", SHARD_GRID)
    def test_sigma_fraction_invariant(self, toy_persons_table, n_shards):
        sharded = ShardedSignatureTable(toy_persons_table, n_shards)
        for rule in (coverage(), similarity()):
            assert sharded.sigma_fraction(rule) == sigma_by_signatures_fraction(
                rule, toy_persons_table
            )

    def test_describe_reports_topology(self, toy_persons_table):
        sharded = ShardedSignatureTable(toy_persons_table, 3)
        topology = sharded.describe()
        assert topology["n_shards"] == 3
        assert sum(topology["shard_signatures"]) == toy_persons_table.n_signatures
        assert sum(topology["shard_subjects"]) == toy_persons_table.n_subjects


class TestIncrementalRefresh:
    def test_mutation_rebuilds_only_dirty_shards(self):
        dataset = Dataset.from_ntriples_text(NTRIPLES, name="sharded")
        before = dataset.sharded_table(16)
        assert before.stats["shards_built"] == 16
        # Touch one subject: only the shards holding its old/new signature
        # may rebuild; with 16 shards most must be reused object-identically.
        dataset.mutate(add=[("http://ex/d", "http://ex/p", Literal("8"))])
        after = dataset.sharded_table(16)
        assert after is not before
        assert after.stats["refreshes"] == 1
        assert after.stats["shards_reused"] > 0
        assert after.stats["shards_rebuilt"] <= 4
        reused = sum(
            1 for old, new in zip(before.shards, after.shards) if old is new
        )
        assert reused == after.stats["shards_reused"]

    def test_refreshed_view_equals_from_scratch(self):
        dataset = Dataset.from_ntriples_text(NTRIPLES, name="sharded")
        dataset.sharded_table(5)
        dataset.mutate(
            add=[("http://ex/e", "http://ex/q", Literal("9"))],
            remove=[("http://ex/b", "http://ex/p", Literal("3"))],
        )
        incremental = dataset.sharded_table(5)
        scratch = ShardedSignatureTable(dataset.table, 5)
        assert incremental == scratch
        assert [s.counts() for s in incremental.shards] == [
            s.counts() for s in scratch.shards
        ]
        for rule in (coverage(), similarity()):
            assert incremental.rule_counts(rule) == scratch.rule_counts(rule)

    def test_counts_invariant_after_delta_across_shard_counts(self):
        expected = None
        for n_shards in SHARD_GRID:
            dataset = Dataset.from_ntriples_text(NTRIPLES, name=f"delta x{n_shards}")
            dataset.sharded_table(n_shards)
            dataset.mutate(add=[("http://ex/a", "http://ex/r", Literal("10"))])
            counts = dataset.sharded_table(n_shards).rule_counts(coverage())
            if expected is None:
                expected = counts
            assert counts == expected
        assert expected == rule_counts(coverage(), dataset.table)


class TestDatasetIntegration:
    def test_sharded_table_is_cached_per_table_and_count(self, toy_persons_table):
        dataset = Dataset.from_table(toy_persons_table)
        view = dataset.sharded_table(3)
        assert view.n_shards == 3
        assert dataset.sharded_table(3) is view
        assert dataset.sharded_table(5).n_shards == 5

    def test_invalid_shards_rejected(self, toy_persons_table):
        dataset = Dataset.from_table(toy_persons_table)
        for bad in (0, -1):
            with pytest.raises(RDFError):
                dataset.sharded_table(bad)
