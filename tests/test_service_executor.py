"""Tests for batch planning, the inline executor and the worker pool.

The acceptance-critical property lives in ``TestPooledExecutor``: a mixed
32-request batch over four datasets executed on a 4-worker pool
(``create_executor(workers=4)``) returns payloads *bit-identical* to the
:class:`InlineExecutor` answer.
"""

from __future__ import annotations

import json

import pytest

from repro.exceptions import RequestError
from repro.service import (
    DatasetRegistry,
    DatasetSpec,
    ElasticPoolExecutor,
    InlineExecutor,
    create_executor,
    parse_request,
    plan_batch,
)

NT = """
<http://ex/a> <http://ex/p> "1" .
<http://ex/a> <http://ex/q> "2" .
<http://ex/b> <http://ex/p> "3" .
<http://ex/c> <http://ex/p> "4" .
<http://ex/c> <http://ex/q> "5" .
<http://ex/c> <http://ex/r> "6" .
"""


def _dataset_specs(tmp_path):
    """Four distinct datasets: three builtins and one N-Triples file."""
    path = tmp_path / "tiny.nt"
    path.write_text(NT)
    return [
        {"builtin": "dbpedia-persons", "params": {"n_subjects": 300}},
        {"builtin": "wordnet-nouns", "params": {"n_subjects": 300}},
        {
            "builtin": "mixed-drug-sultans",
            # Small per-sort signature caps keep the k = 3 sweep probes cheap.
            "params": {"n_drug_companies": 120, "n_sultans": 40, "max_signatures_per_sort": 6},
        },
        {"path": str(path), "name": "tiny"},
    ]


def mixed_batch(tmp_path, n=32):
    """A deterministic mixed batch cycling ops, datasets and solvers."""
    datasets = _dataset_specs(tmp_path)
    templates = [
        lambda ds: {"op": "evaluate", "dataset": ds, "request": {"rule": "Cov", "exact": True}},
        lambda ds: {"op": "evaluate", "dataset": ds, "request": {"rule": "Sim"}},
        lambda ds: {"op": "refine", "dataset": ds, "request": {"rule": "Cov", "k": 2, "step": "1/4"}},
        lambda ds: {"op": "lowest_k", "dataset": ds, "request": {"rule": "Cov", "theta": "1/2"}},
        lambda ds: {"op": "sweep", "dataset": ds, "request": {"rule": "Cov", "k_values": [2, 3], "step": "1/4"}},
        lambda ds: {
            "op": "refine",
            "dataset": ds,
            "solver": "branch-and-bound",
            "request": {"rule": "Cov", "k": 2, "step": "1/2"},
        },
    ]
    batch = []
    for index in range(n):
        request = templates[index % len(templates)](datasets[index % len(datasets)])
        batch.append(dict(request, id=f"job-{index}"))
    return batch


def canonical(envelopes):
    return json.dumps(envelopes, sort_keys=True)


class TestPlanBatch:
    def test_groups_by_dataset_rule_and_solver(self, tmp_path):
        batch = [parse_request(r) for r in mixed_batch(tmp_path, n=32)]
        groups = plan_batch(batch)
        # 4 datasets x (Cov, Sim, Cov+branch-and-bound) appear in the cycle.
        assert 4 < len(groups) <= 32
        seen = set()
        for group in groups:
            assert group.key not in seen
            seen.add(group.key)
            for request in group.requests:
                assert request.group_key == group.key
        # Every request lands in exactly one group, order preserved.
        all_indices = sorted(i for g in groups for i in g.indices)
        assert all_indices == list(range(len(batch)))
        for group in groups:
            assert group.indices == sorted(group.indices)

    def test_plan_is_deterministic(self, tmp_path):
        batch = [parse_request(r) for r in mixed_batch(tmp_path, n=16)]
        keys_a = [g.key for g in plan_batch(batch)]
        keys_b = [g.key for g in plan_batch(list(batch))]
        assert keys_a == keys_b


class TestInlineExecutor:
    def test_results_in_submission_order(self, tmp_path):
        batch = mixed_batch(tmp_path, n=12)
        envelopes = InlineExecutor().execute(batch)
        assert [e["id"] for e in envelopes] == [f"job-{i}" for i in range(12)]
        assert all(e["ok"] for e in envelopes)

    def test_registry_builds_each_dataset_once(self, tmp_path):
        executor = InlineExecutor()
        batch = mixed_batch(tmp_path, n=24)
        executor.execute(batch)
        assert executor.registry.stats["builds"] == 4
        assert executor.registry.stats["lookups"] > 4
        # A second batch reuses everything (and serves repeats from cache).
        executor.execute(batch)
        assert executor.registry.stats["builds"] == 4

    def test_repeat_requests_share_group_and_hit_cache(self):
        executor = InlineExecutor()
        request = {
            "op": "refine",
            "dataset": {"builtin": "dbpedia-persons", "params": {"n_subjects": 300}},
            "request": {"rule": "Cov", "k": 2, "step": "1/4"},
        }
        first, second = executor.execute([request, dict(request)])
        assert first["ok"] and second["ok"]
        assert not first["result"]["cached"] and second["result"]["cached"]
        sessions = executor.stats()["sessions"]
        assert len(sessions) == 1
        assert sessions[0]["stats"]["result_cache_hits"] == 1

    def test_parse_errors_stay_in_their_slot(self):
        executor = InlineExecutor()
        envelopes = executor.execute(
            [
                {"op": "evaluate", "dataset": "dbpedia-persons"},
                {"op": "nope", "dataset": "dbpedia-persons"},
                {"op": "evaluate", "dataset": "dbpedia-persons", "request": {"rule": "Cov"}},
            ]
        )
        assert envelopes[0]["ok"] and envelopes[2]["ok"]
        assert not envelopes[1]["ok"]
        assert envelopes[1]["status"] == 400
        assert envelopes[1]["error"]["type"] == "RequestError"

    def test_execution_errors_become_envelopes(self):
        executor = InlineExecutor()
        envelopes = executor.execute(
            [
                # Unknown built-in dataset: fails at session construction.
                {"op": "evaluate", "dataset": {"builtin": "no-such-dataset"}},
                # Unknown solver: fails at session construction too.
                {"op": "evaluate", "dataset": "dbpedia-persons", "solver": "cplex"},
                # Unknown rule name: fails inside the session call.
                {"op": "evaluate", "dataset": "dbpedia-persons", "request": {"rule": "Nope"}},
            ]
        )
        assert [e["ok"] for e in envelopes] == [False, False, False]
        assert all(e["status"] == 400 for e in envelopes)
        assert "registered solvers" in envelopes[1]["error"]["message"]

    def test_execute_jsonl_round_trip(self, tmp_path):
        executor = InlineExecutor()
        lines = "\n".join(json.dumps(r) for r in mixed_batch(tmp_path, n=6))
        output = executor.execute_jsonl(lines)
        envelopes = [json.loads(line) for line in output.splitlines()]
        assert len(envelopes) == 6 and all(e["ok"] for e in envelopes)

    def test_stats_report_backend_per_session(self):
        executor = InlineExecutor()
        executor.execute(
            [
                {"op": "evaluate", "dataset": "dbpedia-persons", "request": {"rule": "Cov"}},
                {
                    "op": "refine",
                    "dataset": "dbpedia-persons",
                    "solver": "branch-and-bound",
                    "request": {"rule": "Cov", "k": 2, "step": "1/2"},
                },
            ]
        )
        stats = executor.stats()
        assert stats["mode"] == "inline"
        backends = {s["solver_spec"]: s["solver"] for s in stats["sessions"]}
        assert backends["highs"] == "scipy-highs"
        assert backends["branch-and-bound"] == "branch-and-bound"


class TestDatasetRegistry:
    def test_get_builds_once_per_spec(self):
        registry = DatasetRegistry()
        spec = DatasetSpec.from_dict({"builtin": "dbpedia-persons", "params": {"n_subjects": 200}})
        first = registry.get(spec)
        second = registry.get(DatasetSpec.from_dict({"builtin": "dbpedia-persons", "params": {"n_subjects": 200}}))
        assert first is second
        assert registry.stats == {"lookups": 2, "builds": 1}
        other = registry.get(DatasetSpec.from_dict({"builtin": "dbpedia-persons", "params": {"n_subjects": 201}}))
        assert other is not first
        assert registry.stats["builds"] == 2

    def test_describe_is_serialisable(self):
        registry = DatasetRegistry()
        registry.get(DatasetSpec.from_dict("dbpedia-persons")).table
        entries = json.loads(json.dumps(registry.describe()))
        assert entries[0]["spec"] == {"builtin": "dbpedia-persons"}
        assert entries[0]["table_built"] is True

    def test_spec_build_rejects_unknown_builtin(self):
        with pytest.raises(RequestError, match="unknown built-in dataset"):
            DatasetSpec.from_dict("no-such-dataset").build()


class TestPooledExecutor:
    def test_acceptance_32_requests_4_datasets_4_workers_bit_identical(self, tmp_path):
        """The ISSUE acceptance batch: pooled payloads == inline payloads."""
        batch = mixed_batch(tmp_path, n=32)
        inline = InlineExecutor()
        inline_envelopes = inline.execute(batch)
        assert len(inline_envelopes) == 32 and all(e["ok"] for e in inline_envelopes)
        with create_executor(workers=4) as pool:
            pooled_envelopes = pool.execute(batch)
        assert canonical(pooled_envelopes) == canonical(inline_envelopes)

    def test_pool_survives_error_requests(self):
        with create_executor(workers=2) as pool:
            envelopes = pool.execute(
                [
                    {"op": "evaluate", "dataset": "dbpedia-persons", "request": {"rule": "Cov"}},
                    {"op": "evaluate", "dataset": {"builtin": "nope"}},
                ]
            )
        assert envelopes[0]["ok"] and not envelopes[1]["ok"]
        assert envelopes[1]["status"] == 400

    def test_pool_reuses_workers_across_batches(self):
        request = {"op": "evaluate", "dataset": "wordnet-nouns", "request": {"rule": "Cov"}}
        with create_executor(workers=2) as pool:
            first = pool.execute([request])
            second = pool.execute([request])
            assert first == second
            assert pool.stats()["jobs_dispatched"] == 2

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            ElasticPoolExecutor(workers=0)


NT_MUTABLE = NT  # the tiny graph above doubles as the mutation target


def mutation_batch(tmp_path):
    """Queries interleaved with mutations over two datasets.

    Mutations act as barriers, so the same (dataset, rule) pair recurs in
    several phases; per the wire-payload convention the envelopes must be
    bit-identical between inline and pooled execution anyway.
    """
    path = tmp_path / "mutable.nt"
    path.write_text(NT_MUTABLE)
    ds1 = {"path": str(path), "name": "mutable"}
    ds2 = {"ntriples": NT_MUTABLE, "name": "inline-twin"}
    return [
        {"op": "evaluate", "dataset": ds1, "id": "e0", "request": {"rule": "Cov", "exact": True}},
        {"op": "refine", "dataset": ds1, "id": "r0", "request": {"rule": "Cov", "k": 2, "step": "1/4"}},
        {"op": "evaluate", "dataset": ds2, "id": "t0", "request": {"rule": "Cov", "exact": True}},
        {
            "op": "mutate",
            "dataset": ds1,
            "id": "m0",
            "request": {
                "add": [
                    ["http://ex/d", "http://ex/p", '"7"'],
                    ["http://ex/d", "http://ex/s", '"8"'],
                ],
                "remove": [["http://ex/a", "http://ex/q", '"2"']],
            },
        },
        {"op": "evaluate", "dataset": ds1, "id": "e1", "request": {"rule": "Cov", "exact": True}},
        {"op": "refine", "dataset": ds1, "id": "r1", "request": {"rule": "Cov", "k": 2, "step": "1/4"}},
        {"op": "sweep", "dataset": ds1, "id": "s1", "request": {"rule": "Cov", "k_values": [2, 3], "step": "1/4"}},
        {
            "op": "mutate",
            "dataset": ds2,
            "id": "m1",
            "request": {"remove": [["http://ex/c", "http://ex/r", '"6"']]},
        },
        {"op": "evaluate", "dataset": ds2, "id": "t1", "request": {"rule": "Cov", "exact": True}},
        {
            "op": "mutate",
            "dataset": ds1,
            "id": "m2",
            "request": {"remove": [["http://ex/d", "http://ex/s", '"8"']]},
        },
        {"op": "evaluate", "dataset": ds1, "id": "e2", "request": {"rule": "Cov", "exact": True}},
    ]


class TestMutationDeterminism:
    """Satellite: /v1/mutate-style batches are bit-identical on both
    executors, and pool workers converge on the mutated state."""

    def test_mutation_batch_inline_and_pooled_bit_identical(self, tmp_path):
        batch = mutation_batch(tmp_path)
        inline = InlineExecutor()
        inline_envelopes = inline.execute(batch)
        assert all(e["ok"] for e in inline_envelopes)
        with create_executor(workers=4) as pool:
            pooled_envelopes = pool.execute(batch)
            # A follow-up batch exercises workers that did NOT run the
            # mutation job: the log replay must have converged them all.
            follow_up = [
                {"op": "evaluate", "dataset": batch[0]["dataset"], "id": f"f{i}",
                 "request": {"rule": "Cov", "exact": True}}
                for i in range(8)
            ]
            pooled_follow = pool.execute(follow_up)
            assert pool.stats()["mutations_logged"] == 3
        inline_follow = inline.execute(follow_up)
        assert canonical(pooled_envelopes) == canonical(inline_envelopes)
        assert canonical(pooled_follow) == canonical(inline_follow)

        by_id = {e["id"]: e for e in inline_envelopes}
        # The mutation took effect between the barrier phases.
        assert by_id["e0"]["result"]["exact"] != by_id["e1"]["result"]["exact"]
        assert by_id["t0"]["result"]["exact"] != by_id["t1"]["result"]["exact"]
        # Generations count per-dataset mutations, in batch order.
        assert by_id["m0"]["result"]["generation"] == 1
        assert by_id["m1"]["result"]["generation"] == 1
        assert by_id["m2"]["result"]["generation"] == 2
        # And the follow-up answers equal the final in-batch answer.
        assert pooled_follow[0]["result"]["exact"] == by_id["e2"]["result"]["exact"]

    def test_noop_mutations_stay_out_of_the_broadcast_log(self):
        ds = {"ntriples": NT_MUTABLE, "name": "noop"}
        real = {"op": "mutate", "dataset": ds,
                "request": {"add": [["http://ex/new", "http://ex/p", '"9"']]}}
        noop = {"op": "mutate", "dataset": ds,
                "request": {"add": [["http://ex/a", "http://ex/p", '"1"']]}}  # present
        with create_executor(workers=2) as pool:
            envelopes = pool.execute([real, noop, dict(noop)])
            assert all(e["ok"] for e in envelopes)
            assert envelopes[1]["result"]["added"] == 0
            # Only the graph-changing mutation was logged for replay.
            assert pool.stats()["mutations_logged"] == 1

    def test_mutation_of_table_born_dataset_fails_identically(self):
        batch = [
            {
                "op": "mutate",
                "dataset": {"builtin": "dbpedia-persons", "params": {"n_subjects": 200}},
                "id": "bad",
                "request": {"add": [["http://ex/x", "http://ex/p", '"1"']]},
            }
        ]
        inline_envelope = InlineExecutor().execute(batch)[0]
        with create_executor(workers=2) as pool:
            pooled_envelope = pool.execute(batch)[0]
            # Failed mutations never enter the broadcast log.
            assert pool.stats()["mutations_logged"] == 0
        assert not inline_envelope["ok"] and inline_envelope["status"] == 400
        assert canonical([inline_envelope]) == canonical([pooled_envelope])

    def test_concurrent_mutations_keep_the_log_in_sequence_order(self, tmp_path):
        """Mutations racing in from many threads (a ThreadingHTTPServer
        sharing one pooled executor) must append to the broadcast log in
        sequence order — an out-of-order append would make workers skip
        the lower sequence forever and silently diverge."""
        from concurrent.futures import ThreadPoolExecutor as Threads

        path = tmp_path / "race.nt"
        path.write_text(NT_MUTABLE)
        ds = {"path": str(path), "name": "race"}

        def mutation(i):
            return {
                "op": "mutate",
                "dataset": ds,
                "request": {"add": [[f"http://ex/n{i}", "http://ex/p", f'"{i}"']]},
            }

        with create_executor(workers=3) as pool:
            with Threads(max_workers=6) as threads:
                envelopes = list(
                    threads.map(lambda i: pool.execute([mutation(i)])[0], range(6))
                )
            assert all(e["ok"] for e in envelopes)
            seqs = [seq for seq, _ in pool._mutation_log]
            assert seqs == sorted(seqs) == list(range(1, 7))
            # Every generation 1..6 was observed exactly once, and a
            # follow-up fan-out sees the fully converged graph everywhere.
            assert sorted(e["result"]["generation"] for e in envelopes) == list(range(1, 7))
            follow = pool.execute(
                [
                    {"op": "evaluate", "dataset": ds, "id": f"f{i}",
                     "request": {"rule": "Cov", "exact": True}}
                    for i in range(6)
                ]
            )
        reference = InlineExecutor().execute(
            [mutation(i) for i in range(6)]
            + [{"op": "evaluate", "dataset": ds, "id": "f0",
                "request": {"rule": "Cov", "exact": True}}]
        )[-1]
        assert {e["result"]["exact"] for e in follow} == {reference["result"]["exact"]}

    def test_mutation_is_a_barrier_within_one_group(self):
        """evaluate → mutate → evaluate of the *same* group key must see
        two different dataset states (groups never span a mutation)."""
        ds = {"ntriples": NT_MUTABLE, "name": "barrier"}
        request = {"op": "evaluate", "dataset": ds, "request": {"rule": "Cov", "exact": True}}
        mutate = {
            "op": "mutate",
            "dataset": ds,
            "request": {"remove": [["http://ex/c", "http://ex/r", '"6"']]},
        }
        first, second, third = InlineExecutor().execute([request, mutate, dict(request)])
        assert first["ok"] and second["ok"] and third["ok"]
        assert first["result"]["exact"] != third["result"]["exact"]


class TestCreateExecutor:
    def test_sizes_to_workers(self):
        inline = create_executor(workers=1)
        assert isinstance(inline, InlineExecutor)
        pooled = create_executor(workers=3)
        try:
            assert isinstance(pooled, ElasticPoolExecutor)
            assert pooled.workers == 3
        finally:
            pooled.close()

    def test_shared_registry_honoured_inline_and_rejected_pooled(self):
        registry = DatasetRegistry()
        inline = create_executor(workers=1, registry=registry)
        assert inline.registry is registry
        # Pool workers build their own registries; a shared one must be
        # an explicit error, never silently dropped.
        with pytest.raises(ValueError, match="inline execution"):
            create_executor(workers=2, registry=registry)


class TestExecutorThreadSafety:
    def test_concurrent_session_for_creates_one_session(self):
        import threading
        from concurrent.futures import ThreadPoolExecutor

        executor = InlineExecutor()
        request = parse_request(
            {"op": "evaluate", "dataset": "dbpedia-persons", "request": {"rule": "Cov"}}
        )
        barrier = threading.Barrier(8)

        def fetch(_):
            barrier.wait()
            return executor.session_for(request)

        with ThreadPoolExecutor(max_workers=8) as pool:
            sessions = list(pool.map(fetch, range(8)))
        assert all(session is sessions[0] for session in sessions)
        assert len(executor.stats()["sessions"]) == 1
