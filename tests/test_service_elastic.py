"""Tests for the fixed-size worker pool (``ElasticPoolExecutor``).

The invariants under test: payloads stay bit-identical to the inline
baseline (mutation-log replay makes a worker booted after a close()
converge before it takes work); the pool runs exactly ``workers``
processes; close() is graceful (in-flight work completes) and the
executor is reusable.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
import threading
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
        with pytest.raises(ValueError, match="workers"):
            ElasticPoolExecutor(workers=0)

    def test_create_executor_sizes_the_pool_by_workers(self):
        pool = create_executor(workers=2)
        try:
            assert isinstance(pool, ElasticPoolExecutor)
            assert pool.workers == 2
            assert pool.execute([_ev()])[0]["ok"]
            assert pool.stats()["workers"] == 2
            assert "elastic-scaler" not in {t.name for t in threading.enumerate()}
        finally:
            pool.close()
        assert isinstance(create_executor(workers=1), InlineExecutor)

    def test_create_executor_rejects_registry_with_elastic(self):
        from repro.service.registry import DatasetRegistry

        with pytest.raises(ValueError, match="registry"):
            create_executor(workers=2, registry=DatasetRegistry())


class TestDeterminism:
    def test_bit_identical_to_inline_under_mutation_churn(self):
        batch = [
            _ev(), _mut(1), _ev(), _ev("Sim"),
            _mut(2), _ev(), _ev("Sim"), _mut(3), _ev(),
        ]
        inline = InlineExecutor()
        baseline = inline.execute([dict(r) for r in batch])
        pool = ElasticPoolExecutor(workers=3)
        try:
            pooled = pool.execute([dict(r) for r in batch])
            assert [_strip_cached(e) for e in baseline] == [
                _strip_cached(e) for e in pooled
            ]
            assert pool.stats()["mutations_logged"] == 3
        finally:
            pool.close()
            inline.close()

    def test_worker_booted_after_close_replays_the_mutation_log(self):
        inline = InlineExecutor()
        pool = ElasticPoolExecutor(workers=1)
        try:
            pool.execute([_ev(), _mut(1), _mut(2)])
            inline.execute([_ev(), _mut(1), _mut(2)])
            pool.close()
            # The next job boots a fresh worker with an empty registry: it
            # must replay both logged mutations before answering.
            fresh = pool.execute([_ev(), _ev("Sim")])
            baseline = inline.execute([_ev(), _ev("Sim")])
            assert [_strip_cached(e) for e in baseline] == [
                _strip_cached(e) for e in fresh
            ]
            unmutated = InlineExecutor().execute([_ev(), _ev("Sim")])
            assert [_strip_cached(e) for e in unmutated] != [
                _strip_cached(e) for e in fresh
            ]
            assert pool.telemetry.counters()["scale.worker_boots"] == 2
            assert pool.stats()["mutations_logged"] == 2
        finally:
            pool.close()
            inline.close()


class TestLifecycle:
    def test_close_is_graceful_and_the_executor_is_reusable(self):
        elastic = ElasticPoolExecutor(workers=1)
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
        elastic = ElasticPoolExecutor(workers=1)
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
            pool = ElasticPoolExecutor(workers=2)
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
