"""Tests for the elastic autoscaling worker pool.

The invariants under test: payloads stay bit-identical to the inline
baseline through any amount of scaling (mutation-log replay makes a
worker booted mid-traffic converge before it takes work); the pool
scales up under backlog and drains back to the floor when idle; close()
is graceful (in-flight work completes) and the executor is reusable.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.service import ElasticPoolExecutor, InlineExecutor, create_executor
from repro.service.elastic import _DRAIN

NT = ('<http://e/a> <http://e/p> "1" .\n'
      '<http://e/a> <http://e/q> "1" .\n'
      '<http://e/b> <http://e/p> "1" .\n')
DATASET = {"ntriples": NT, "name": "elastic-tests"}


def _ev(rule="Cov", dataset=None):
    return {"op": "evaluate", "dataset": dataset or DATASET, "request": {"rule": rule}}


def _mut(i):
    return {"op": "mutate", "dataset": DATASET,
            "add": [[f"http://e/s{i}", "http://e/p", '"1"']], "remove": []}


def _strip_cached(envelope):
    """The session-cache flag is placement-dependent by design; drop it."""
    return json.dumps(
        {k: v for k, v in envelope.items() if k != "cached"}, sort_keys=True
    )


def _wait_for(predicate, timeout=20.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestBounds:
    def test_rejects_bad_worker_bounds(self):
        with pytest.raises(ValueError, match="min_workers"):
            ElasticPoolExecutor(min_workers=0, max_workers=2)
        with pytest.raises(ValueError, match="max_workers"):
            ElasticPoolExecutor(min_workers=3, max_workers=2)

    def test_create_executor_dispatches_on_max_workers(self):
        elastic = create_executor(workers=1, max_workers=3)
        try:
            assert isinstance(elastic, ElasticPoolExecutor)
            assert elastic.min_workers == 1 and elastic.max_workers == 3
        finally:
            elastic.close()
        fixed = create_executor(workers=2, max_workers=2)
        try:
            assert isinstance(fixed, ElasticPoolExecutor)
            assert fixed.min_workers == fixed.max_workers == 2
        finally:
            fixed.close()
        assert isinstance(create_executor(workers=1), InlineExecutor)

    def test_create_executor_rejects_registry_with_elastic(self):
        from repro.service.registry import DatasetRegistry

        with pytest.raises(ValueError, match="registry"):
            create_executor(workers=1, max_workers=2, registry=DatasetRegistry())


class TestDeterminism:
    def test_bit_identical_to_inline_under_mutation_churn(self):
        batch = [
            _ev(), _mut(1), _ev(), _ev("Sim"),
            _mut(2), _ev(), _ev("Sim"), _mut(3), _ev(),
        ]
        inline = InlineExecutor()
        baseline = inline.execute([dict(r) for r in batch])
        elastic = ElasticPoolExecutor(min_workers=1, max_workers=3)
        try:
            scaled = elastic.execute([dict(r) for r in batch])
            assert [_strip_cached(e) for e in baseline] == [
                _strip_cached(e) for e in scaled
            ]
            assert elastic.stats()["mutations_logged"] == 3
        finally:
            elastic.close()
            inline.close()

    def test_worker_booted_mid_traffic_replays_the_mutation_log(self):
        inline = InlineExecutor()
        elastic = ElasticPoolExecutor(
            min_workers=1, max_workers=3, idle_timeout_s=30.0
        )
        try:
            # Mutate while a single worker holds the dataset...
            elastic.execute([_ev(), _mut(1), _mut(2)])
            inline.execute([_ev(), _mut(1), _mut(2)])
            # ... then force boots: a wide batch of distinct datasets makes
            # the backlog exceed the single worker.
            wide = [
                _ev(dataset={"builtin": "dbpedia-persons",
                             "params": {"n_subjects": 300, "seed": seed}})
                for seed in range(5)
            ]
            assert all(e["ok"] for e in elastic.execute(wide))
            assert _wait_for(lambda: elastic.stats()["peak_workers"] > 1)
            # Whichever (possibly fresh) worker serves this, the answer is
            # the inline one: the log replay converged its registry.
            scaled = elastic.execute([_ev(), _ev("Sim")])
            baseline = inline.execute([_ev(), _ev("Sim")])
            assert [_strip_cached(e) for e in baseline] == [
                _strip_cached(e) for e in scaled
            ]
        finally:
            elastic.close()
            inline.close()


class TestScaling:
    def test_scales_up_under_backlog_and_drains_back_to_floor(self):
        elastic = ElasticPoolExecutor(
            min_workers=1, max_workers=3, idle_timeout_s=0.3, scale_interval_s=0.02
        )
        try:
            wide = [
                _ev(dataset={"builtin": "dbpedia-persons",
                             "params": {"n_subjects": 400, "seed": seed}})
                for seed in range(6)
            ]
            assert all(e["ok"] for e in elastic.execute(wide))
            stats = elastic.stats()
            assert stats["peak_workers"] > 1
            assert stats["scale_up_events"] >= 1
            # Idle workers drain gracefully back to the floor...
            assert _wait_for(lambda: elastic.stats()["workers"] == 1)
            stats = elastic.stats()
            assert stats["scale_down_events"] >= 1
            assert stats["workers"] == elastic.min_workers
            # ... and the drained pool still serves (no dead-queue state).
            assert elastic.execute([_ev()])[0]["ok"]
            counters = elastic.telemetry.snapshot()["counters"]
            assert counters["scale.worker_boots"] >= 2
            assert counters.get("scale.worker_drains", 0) >= 1
        finally:
            elastic.close()

    def test_never_drains_below_the_floor(self):
        elastic = ElasticPoolExecutor(
            min_workers=2, max_workers=3, idle_timeout_s=0.1, scale_interval_s=0.02
        )
        try:
            assert all(e["ok"] for e in elastic.execute([_ev(), _ev("Sim")]))
            time.sleep(1.0)  # several idle windows pass
            assert elastic.stats()["workers"] == 2
        finally:
            elastic.close()


class TestLifecycle:
    def test_close_is_graceful_and_the_executor_is_reusable(self):
        elastic = ElasticPoolExecutor(min_workers=1, max_workers=2)
        try:
            assert elastic.execute([_ev()])[0]["ok"]
            elastic.close()
            stats = elastic.stats()
            assert stats["workers"] == 0 and stats["backlog"] == 0
            counters = elastic.telemetry.snapshot()["counters"]
            assert counters.get("scale.forced_terminations", 0) == 0
            # Reuse after close: the mutation log survives, fresh workers
            # replay it before taking jobs.
            elastic.execute([_mut(9)])
            reopened = elastic.execute([_ev()])
            baseline = InlineExecutor().execute([_mut(9), _ev()])[1:]
            assert [_strip_cached(e) for e in reopened] == [
                _strip_cached(e) for e in baseline
            ]
        finally:
            elastic.close()

    def test_worker_failure_fails_the_job_without_killing_the_pool(self):
        elastic = ElasticPoolExecutor(min_workers=1, max_workers=2)
        try:
            [envelope] = elastic.execute([
                {"op": "evaluate", "dataset": {"builtin": "nope"},
                 "request": {"rule": "Cov"}},
            ])
            assert envelope["ok"] is False
            assert elastic.execute([_ev()])[0]["ok"]  # pool still healthy
        finally:
            elastic.close()

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc/<pid>/stat")
    def test_workers_exit_when_the_parent_dies_without_close(self, tmp_path):
        """A server killed by SIGTERM runs no close(); its workers must not linger."""
        script = textwrap.dedent(f"""
            import os
            from repro.service import ElasticPoolExecutor
            pool = ElasticPoolExecutor(min_workers=2, max_workers=2)
            assert pool.execute([{_ev()!r}])[0]["ok"]
            print(" ".join(str(p.pid) for p in pool._workers.values()), flush=True)
            os._exit(0)  # no close(), no atexit hooks
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        # A file, not a pipe, for the output: the workers inherit it, and a
        # pipe would not reach EOF while they live.
        output = tmp_path / "pids.txt"
        with open(output, "w") as sink:
            subprocess.run(
                [sys.executable, "-c", script], stdout=sink, stderr=subprocess.STDOUT,
                timeout=120, env=env,
            )
        pids = [int(pid) for pid in output.read_text().split() if pid.isdigit()]
        assert len(pids) == 2, output.read_text()

        def running(pid):
            try:
                with open(f"/proc/{pid}/stat") as stat:
                    return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
            except FileNotFoundError:
                return False

        try:
            assert _wait_for(lambda: not any(running(pid) for pid in pids), timeout=10)
        finally:
            for pid in filter(running, pids):
                os.kill(pid, signal.SIGKILL)

    def test_drain_sentinel_is_distinct_from_any_job(self):
        assert _DRAIN is None  # the sentinel the workers key their exit on
