"""The telemetry spine: counters, spans, histograms, and the on/off contract.

The load-bearing property is *opt-in and free when off*: the library is
instrumented at every expensive boundary, so a disabled spine must be a
shared no-op object whose methods record nothing, and the process-wide
accessor must honour ``REPRO_TRACE`` until an explicit enable/disable
pins a choice.
"""

from __future__ import annotations

import json
import threading

import pytest

import repro.telemetry as telemetry_module
from repro.telemetry import (
    NULL_TELEMETRY,
    REPRO_TRACE_ENV,
    Telemetry,
    current,
    disable,
    enable,
)


@pytest.fixture(autouse=True)
def _reset_process_spine(monkeypatch):
    """Leave the process-wide spine in its default env-driven state."""
    monkeypatch.delenv(REPRO_TRACE_ENV, raising=False)
    monkeypatch.setattr(telemetry_module, "_active", None)
    yield
    monkeypatch.setattr(telemetry_module, "_active", None)


class TestTelemetryInstance:
    def test_counters_accumulate_and_snapshot_sorted(self):
        telemetry = Telemetry()
        telemetry.incr("b.second")
        telemetry.incr("a.first", 3)
        telemetry.incr("b.second", 2)
        assert telemetry.counters() == {"a.first": 3, "b.second": 3}
        snapshot = telemetry.snapshot()
        assert list(snapshot["counters"]) == ["a.first", "b.second"]
        assert snapshot["enabled"] is True

    def test_observe_tracks_count_total_min_max(self):
        telemetry = Telemetry()
        telemetry.observe("stage", 0.010)
        telemetry.observe("stage", 0.030)
        span = telemetry.snapshot()["spans"]["stage"]
        assert span["count"] == 2
        assert span["total_ms"] == pytest.approx(40.0)
        assert span["min_ms"] == pytest.approx(10.0)
        assert span["max_ms"] == pytest.approx(30.0)

    def test_histogram_buckets_partition_observations(self):
        telemetry = Telemetry()
        telemetry.observe("stage", 0.00005)  # 0.05ms -> le_000000.1ms
        telemetry.observe("stage", 0.0002)   # 0.2ms  -> le_000000.5ms
        telemetry.observe("stage", 0.0008)   # 0.8ms  -> le_000001.0ms
        telemetry.observe("stage", 0.004)    # 4ms    -> le_000005.0ms
        telemetry.observe("stage", 0.080)    # 80ms   -> le_000100.0ms
        telemetry.observe("stage", 9.0)      # 9000ms -> le_inf
        buckets = telemetry.snapshot()["spans"]["stage"]["buckets"]
        assert buckets["le_000000.1ms"] == 1
        assert buckets["le_000000.5ms"] == 1
        assert buckets["le_000001.0ms"] == 1
        assert buckets["le_000005.0ms"] == 1
        assert buckets["le_000100.0ms"] == 1
        assert buckets["le_inf"] == 1
        # Every observation lands in exactly one bucket.
        assert sum(buckets.values()) == 6
        # Sorted labels are bucket order: 0.1 ms first, the open bucket last.
        assert sorted(buckets) == list(buckets) == [
            "le_000000.1ms", "le_000000.5ms", "le_000001.0ms", "le_000005.0ms",
            "le_000025.0ms", "le_000100.0ms", "le_000500.0ms", "le_002500.0ms",
            "le_inf",
        ]

    def test_span_context_manager_records_wall_time(self):
        telemetry = Telemetry()
        with telemetry.span("timed"):
            pass
        span = telemetry.snapshot()["spans"]["timed"]
        assert span["count"] == 1
        assert span["total_ms"] >= 0.0

    def test_snapshot_is_json_ready_and_deterministic_schema(self):
        telemetry = Telemetry()
        telemetry.incr("hits")
        with telemetry.span("work"):
            pass
        snapshot = telemetry.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert set(snapshot) == {"enabled", "counters", "spans"}
        assert set(snapshot["spans"]["work"]) == {
            "count", "total_ms", "min_ms", "max_ms", "buckets",
        }

    def test_reset_drops_everything_but_stays_enabled(self):
        telemetry = Telemetry()
        telemetry.incr("hits")
        telemetry.observe("work", 0.001)
        telemetry.reset()
        assert telemetry.counters() == {}
        assert telemetry.snapshot()["spans"] == {}
        telemetry.incr("hits")
        assert telemetry.counters() == {"hits": 1}

    def test_concurrent_increments_lose_nothing(self):
        telemetry = Telemetry()
        barrier = threading.Barrier(8)

        def bump():
            barrier.wait()
            for _ in range(500):
                telemetry.incr("races")
                telemetry.observe("races.span", 0.0001)

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert telemetry.counters()["races"] == 4000
        assert telemetry.snapshot()["spans"]["races.span"]["count"] == 4000


class TestDisabledSpine:
    def test_null_telemetry_records_nothing(self):
        NULL_TELEMETRY.incr("ignored")
        NULL_TELEMETRY.observe("ignored", 1.0)
        with NULL_TELEMETRY.span("ignored"):
            pass
        snapshot = NULL_TELEMETRY.snapshot()
        assert snapshot["enabled"] is False
        assert snapshot["counters"] == {} and snapshot["spans"] == {}

    def test_disabled_span_is_one_shared_object(self):
        # The zero-overhead claim: a disabled span() allocates nothing.
        assert NULL_TELEMETRY.span("a") is NULL_TELEMETRY.span("b")
        disabled = Telemetry(enabled=False)
        assert disabled.span("a") is NULL_TELEMETRY.span("a")

    def test_disabled_instance_ignores_recordings(self):
        disabled = Telemetry(enabled=False)
        disabled.incr("ignored")
        disabled.observe("ignored", 1.0)
        assert disabled.counters() == {}


class TestProcessWideAccessor:
    def test_default_is_the_shared_null_instance(self):
        assert current() is NULL_TELEMETRY

    def test_env_var_switches_the_spine_on(self, monkeypatch):
        monkeypatch.setenv(REPRO_TRACE_ENV, "1")
        active = current()
        assert active.enabled and active is not NULL_TELEMETRY
        # Sticky: subsequent calls return the same instance.
        assert current() is active

    def test_falsy_env_values_stay_off(self, monkeypatch):
        for value in ("", "0", "false", "no", "off", "False", "OFF"):
            monkeypatch.setattr(telemetry_module, "_active", None)
            monkeypatch.setenv(REPRO_TRACE_ENV, value)
            assert current() is NULL_TELEMETRY

    def test_enable_returns_a_live_instance(self):
        active = enable()
        assert current() is active and active.enabled
        active.incr("seen")
        assert current().counters() == {"seen": 1}

    def test_enable_accepts_an_explicit_instance(self):
        mine = Telemetry()
        assert enable(mine) is mine
        assert current() is mine

    def test_disable_overrides_the_environment(self, monkeypatch):
        monkeypatch.setenv(REPRO_TRACE_ENV, "1")
        disable()
        # The env says on, the explicit disable wins.
        assert current() is NULL_TELEMETRY


class TestInstrumentedPaths:
    def test_dataset_chain_and_mutation_spans_recorded(self):
        from repro.api import Dataset

        telemetry = Telemetry()
        dataset = Dataset.from_ntriples_text(
            '<http://x/a> <http://x/p> "1" .\n'
            '<http://x/a> <http://x/q> "1" .\n'
            '<http://x/b> <http://x/p> "1" .\n',
            name="spine",
            telemetry=telemetry,
        )
        dataset.table
        spans = telemetry.snapshot()["spans"]
        for name in ("dataset.graph_build", "dataset.matrix_build", "dataset.table_build"):
            assert spans[name]["count"] == 1, name
        dataset.mutate(add=[("http://x/c", "http://x/p", '"1"')])
        spans = telemetry.snapshot()["spans"]
        assert spans["dataset.mutate"]["count"] == 1
        assert spans["dataset.matrix_patch"]["count"] == 1
        assert spans["dataset.table_patch"]["count"] == 1

    def test_disabled_spine_leaves_dataset_behaviour_untouched(self):
        from repro.api import Dataset

        dataset = Dataset.from_ntriples_text(
            '<http://x/a> <http://x/p> "1" .\n', name="quiet"
        )
        assert dataset.table.n_subjects == 1
        assert current() is NULL_TELEMETRY

    def test_solver_calls_record_ilp_spans_when_enabled(self):
        from repro.api import Dataset
        from repro.matrix.signatures import SignatureTable

        telemetry = enable()
        table = SignatureTable.from_counts(
            ["http://x/p", "http://x/q"],
            {
                frozenset(["http://x/p"]): 2,
                frozenset(["http://x/p", "http://x/q"]): 1,
                frozenset(["http://x/q"]): 2,
            },
            name="probe",
        )
        session = Dataset.from_table(table).session()
        result = session.refine("Cov", k=2, step=0.25)
        assert result.n_solver_probes > 0
        spans = telemetry.snapshot()["spans"]
        assert spans["ilp.solve"]["count"] == result.n_solver_probes
