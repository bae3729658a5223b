"""Tests for the HTTP front-end (:mod:`repro.service.server`).

A real server is bound to an ephemeral port and driven through ``urllib``
— the same path ``curl`` takes — so routing, status mapping and payload
determinism are exercised end to end.  The executor-routed contract
(routes, error mapping, envelopes, metrics, streamed batches) runs twice:
once with the inline executor and once with a two-worker
:class:`~repro.service.ElasticPoolExecutor`, the pool ``repro serve
--workers 2`` puts behind the same server — which is how the two
executors are proven to share one contract.  ``/v1/watch`` and the
registry-inspecting tests need the inline executor and run on it alone.
Besides that contract this covers bounded admission with 429 +
``Retry-After``, the admission snapshot in ``/v1/stats``/``/v1/metrics``
and concurrent mutations of different datasets.
"""

from __future__ import annotations

import http.client
import json
import re
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor as _Threads
from contextlib import contextmanager

import pytest

from repro.exceptions import RequestError
from repro.service import InlineExecutor, make_server
from repro.service.executor import BatchExecutor
from repro.service.server import StructurednessService
from repro.service.wire import strip_timing


@contextmanager
def running_server(**kwargs):
    """A threaded server on an ephemeral port, serving until the block exits."""
    server = make_server(host="127.0.0.1", port=0, **kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.close()
        thread.join(timeout=5)
        assert not thread.is_alive()


@pytest.fixture(scope="module", params=["inline", "pool"])
def server(request):
    """The executor-routed contract: inline and a fixed two-worker pool."""
    with running_server(workers=1 if request.param == "inline" else 2) as server:
        yield server


@pytest.fixture(scope="module")
def inline_server():
    """Watch streams and registry inspection need the inline executor."""
    with running_server() as server:
        yield server


@pytest.fixture(scope="module")
def pool_server():
    with running_server(workers=2) as server:
        yield server


def _request_full(server, path, body=None, content_type="application/json",
                  headers=None, timeout=30):
    url = server.url + path
    if body is None:
        request = urllib.request.Request(url)
    else:
        if isinstance(body, bytes):
            data = body
        else:
            data = body.encode() if isinstance(body, str) else json.dumps(body).encode()
        request = urllib.request.Request(
            url, data=data, headers={"Content-Type": content_type, **(headers or {})}
        )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read()), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


def _request(server, path, body=None, content_type="application/json"):
    status, payload, _ = _request_full(server, path, body, content_type)
    return status, payload


def _stream_watch(server, body, timeout=30):
    """POST /v1/watch and collect the JSONL event lines until EOF."""
    request = urllib.request.Request(
        server.url + "/v1/watch",
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        headers = dict(response.headers)
        lines = [json.loads(line) for line in response.read().decode().splitlines() if line]
    return response.status, headers, lines


def _status_2xx(server):
    """The server's ``http.status.2xx`` count, read without a request."""
    return server.service.telemetry.snapshot()["counters"].get("http.status.2xx", 0)


class TestRoutes:
    def test_healthz(self, server):
        status, payload = _request(server, "/healthz")
        assert status == 200 and payload["ok"] is True

    def test_evaluate(self, server):
        status, payload = _request(
            server,
            "/v1/evaluate",
            {"dataset": {"builtin": "dbpedia-persons", "params": {"n_subjects": 300}},
             "rule": "Cov", "exact": True},
        )
        assert status == 200 and payload["ok"]
        assert payload["result"]["rule"] == "Cov"
        assert 0 < payload["result"]["value"] < 1
        assert "/" in payload["result"]["exact"]

    def test_mutate_round_trip_changes_followup_answers(self, server):
        dataset = {
            "ntriples": '<http://ex/a> <http://ex/p> "1" .\n'
                        '<http://ex/b> <http://ex/p> "2" .\n'
                        '<http://ex/b> <http://ex/q> "3" .\n',
            "name": "http-mutable",
        }
        _, before = _request(server, "/v1/evaluate", {"dataset": dataset, "rule": "Cov", "exact": True})
        status, payload = _request(
            server,
            "/v1/mutate",
            {"dataset": dataset, "add": [["http://ex/a", "http://ex/q", '"4"']]},
        )
        assert status == 200 and payload["ok"]
        assert payload["result"]["generation"] == 1
        assert payload["result"]["added"] == 1
        _, after = _request(server, "/v1/evaluate", {"dataset": dataset, "rule": "Cov", "exact": True})
        assert before["result"]["exact"] != after["result"]["exact"]
        assert after["result"]["exact"] == "1/1"  # both subjects now have p and q

    def test_mutate_rejects_table_born_dataset(self, server):
        status, payload = _request(
            server,
            "/v1/mutate",
            {"dataset": {"builtin": "dbpedia-persons", "params": {"n_subjects": 300}},
             "add": [["http://ex/x", "http://ex/p", '"1"']]},
        )
        assert status == 400 and not payload["ok"]
        assert payload["error"]["type"] == "DatasetError"

    def test_refine_matches_inline_executor(self, server):
        body = {
            "dataset": {"builtin": "dbpedia-persons", "params": {"n_subjects": 300}},
            "request": {"rule": "Cov", "k": 2, "step": "1/4"},
        }
        status, payload = _request(server, "/v1/refine", body)
        assert status == 200 and payload["ok"]
        reference = InlineExecutor().execute([dict(body, op="refine")])[0]
        assert payload["result"] == reference["result"]

    def test_lowest_k_and_sweep(self, server):
        dataset = {"builtin": "dbpedia-persons", "params": {"n_subjects": 300}}
        status, payload = _request(
            server, "/v1/lowest_k", {"dataset": dataset, "theta": "1/2"}
        )
        assert status == 200 and payload["result"]["kind"] == "lowest_k"
        status, payload = _request(
            server, "/v1/sweep", {"dataset": dataset, "k_values": [2, 3], "step": "1/4"}
        )
        assert status == 200 and len(payload["result"]["entries"]) == 2

    def test_batch_json_and_ndjson(self, server):
        requests = [
            {"op": "evaluate", "dataset": "wordnet-nouns", "request": {"rule": "Cov"}},
            {"op": "evaluate", "dataset": "wordnet-nouns", "request": {"rule": "Sim"}},
        ]
        status, payload = _request(server, "/v1/batch", {"requests": requests})
        assert status == 200 and payload["count"] == 2
        assert all(env["ok"] for env in payload["results"])
        ndjson = "\n".join(json.dumps(r) for r in requests)
        status, again = _request(server, "/v1/batch", ndjson, "application/x-ndjson")
        assert status == 200
        assert again["results"] == payload["results"]

    def test_datasets_lists_builtins_and_loaded(self, server):
        status, payload = _request(server, "/v1/datasets")
        assert status == 200
        assert {"dbpedia-persons", "wordnet-nouns"} <= set(payload["builtin"])
        assert isinstance(payload["loaded"], list)

    def test_stats_report_sessions_and_backends(self, inline_server):
        _request(inline_server, "/v1/evaluate", {"dataset": "wordnet-nouns", "rule": "Cov"})
        status, payload = _request(inline_server, "/v1/stats")
        assert status == 200
        assert set(payload["server"]) == {"http_requests", "ok_responses", "error_responses"}
        assert payload["server"]["http_requests"] > 0
        sessions = payload["executor"]["sessions"]
        assert sessions and all("solver" in s and "solver_spec" in s for s in sessions)
        assert set(payload["executor"]["registry"]) == {"lookups", "builds"}
        assert payload["executor"]["registry"]["builds"] >= 1
        # The in-process views hand out copies: writing to one changes no counter.
        service = inline_server.service
        before = service.counters["http_requests"]
        service.counters["http_requests"] = -1
        service.executor.registry.stats["builds"] = -1
        assert service.counters["http_requests"] == before
        assert service.executor.registry.stats["builds"] >= 1


class TestErrorMapping:
    def test_unknown_route_404(self, server):
        assert _request(server, "/nope")[0] == 404
        assert _request(server, "/v1/transmogrify", {})[0] == 404

    def test_invalid_json_body_400(self, server):
        status, payload = _request(server, "/v1/evaluate", "{not json")
        assert status == 400
        assert payload["error"]["type"] == "RequestError"

    @pytest.mark.parametrize(
        "path,content_type",
        [("/v1/evaluate", "application/json"), ("/v1/batch", "application/x-ndjson")],
    )
    def test_non_utf8_body_400(self, server, path, content_type):
        status, payload = _request(server, path, b"\xff\xfe{", content_type)
        assert status == 400
        assert payload["error"]["type"] == "RequestError"

    @pytest.mark.parametrize(
        "path,body,fragment",
        [
            ("/v1/lowest_k", {"dataset": "dbpedia-persons", "theta": "4/3"}, "theta"),
            ("/v1/lowest_k", {"dataset": "dbpedia-persons", "theta": "3/-4"}, "denominator"),
            ("/v1/refine", {"dataset": "dbpedia-persons", "k": 0}, "k"),
            ("/v1/refine", {"dataset": "dbpedia-persons", "k": 2, "wat": 1}, "unknown"),
            # The per-request parallelism field is gone from the wire format.
            ("/v1/refine", {"dataset": "dbpedia-persons", "k": 2, "jobs": 2},
             "unknown refine request fields: jobs"),
            ("/v1/evaluate", {"dataset": {"builtin": "nope"}}, "unknown built-in"),
            ("/v1/evaluate", {"dataset": "dbpedia-persons", "rule": "Nope"}, "unknown rule"),
            # Every search encodes through the cached sweep state; the switch is gone.
            ("/v1/refine", {"dataset": "dbpedia-persons", "k": 2, "use_incremental": True},
             "unknown refine request fields: use_incremental"),
            ("/v1/lowest_k", {"dataset": "dbpedia-persons", "use_incremental": True},
             "unknown lowest_k request fields: use_incremental"),
            ("/v1/sweep", {"dataset": "dbpedia-persons", "use_incremental": True},
             "unknown sweep request fields: use_incremental"),
        ],
    )
    def test_bad_requests_are_400_with_structured_bodies(self, server, path, body, fragment):
        status, payload = _request(server, path, body)
        assert status == 400, payload
        assert payload["ok"] is False
        assert fragment in payload["error"]["message"]
        # Structured error body, never a traceback page.
        assert set(payload["error"]) == {"type", "message"}

    def test_unknown_solver_400_lists_names(self, server):
        status, payload = _request(
            server, "/v1/evaluate", {"dataset": "dbpedia-persons", "solver": "cplex", "rule": "Cov"}
        )
        assert status == 400
        assert "registered solvers" in payload["error"]["message"]

    def test_batch_body_must_be_requests_list(self, server):
        status, payload = _request(server, "/v1/batch", {"jobs": []})
        assert status == 400
        assert "requests" in payload["error"]["message"]

    def test_ndjson_and_json_batches_share_error_semantics(self, server):
        """A malformed entry yields an error envelope in its slot, both ways."""
        requests = [
            {"op": "evaluate", "dataset": "wordnet-nouns", "request": {"rule": "Cov"}},
            {"op": "transmogrify", "dataset": "wordnet-nouns"},
            {"op": "evaluate", "dataset": "wordnet-nouns", "request": {"rule": "Sim"}},
        ]
        status, as_list = _request(server, "/v1/batch", {"requests": requests})
        assert status == 200
        ndjson = "\n".join(json.dumps(r) for r in requests)
        status, as_lines = _request(server, "/v1/batch", ndjson, "application/x-ndjson")
        assert status == 200
        assert as_lines["results"] == as_list["results"]
        oks = [envelope["ok"] for envelope in as_list["results"]]
        assert oks == [True, False, True]
        assert as_list["results"][1]["status"] == 400


class TestConcurrency:
    """Build sharing is read off the inline executor's registry."""

    @pytest.fixture
    def server(self, inline_server):
        return inline_server

    def test_parallel_identical_requests_agree_and_share_builds(self, server):
        """Eight concurrent HTTP callers: one table build, identical bodies."""
        body = {
            "dataset": {"builtin": "dbpedia-persons", "params": {"n_subjects": 250, "seed": 3}},
            "request": {"rule": "Cov", "k": 2, "step": "1/4"},
        }
        results = [None] * 8
        def call(i):
            results[i] = _request(server, "/v1/refine", body)
        threads = [threading.Thread(target=call, args=(i,)) for i in range(len(results))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        statuses = {status for status, _ in results}
        assert statuses == {200}
        payloads = [strip_timing(dict(payload["result"], cached=False)) for _, payload in results]
        assert all(p == payloads[0] for p in payloads)
        registry = server.service.executor.registry
        spec_key = [e for e in registry.describe() if e["spec"].get("params", {}).get("seed") == 3]
        assert len(spec_key) == 1  # the dataset was materialised exactly once


#: A tiny graph-born dataset for the watch tests: mutable over HTTP.
WATCH_DATASET = {
    "ntriples": '<http://w/a> <http://w/p> "1" .\n'
                '<http://w/a> <http://w/q> "1" .\n'
                '<http://w/b> <http://w/p> "1" .\n',
    "name": "http-watch",
}


class TestEnvelope:
    """Every JSON envelope carries a request id and the server-side time."""

    def test_request_ids_are_monotone_and_mirrored_in_the_header(self, server):
        _, first, headers_a = _request_full(server, "/healthz")
        _, second, headers_b = _request_full(server, "/healthz")
        for payload, headers in ((first, headers_a), (second, headers_b)):
            assert re.fullmatch(r"req-\d{8}", payload["request_id"])
            assert headers["X-Request-Id"] == payload["request_id"]
        assert second["request_id"] > first["request_id"]  # zero-padded, sortable

    def test_server_time_is_a_nonnegative_float(self, server):
        _, payload = _request(
            server, "/v1/evaluate", {"dataset": "wordnet-nouns", "rule": "Cov"}
        )
        assert isinstance(payload["server_time_ms"], float)
        assert payload["server_time_ms"] >= 0.0

    def test_error_envelopes_carry_the_id_without_widening_the_error(self, server):
        status, payload = _request(server, "/v1/evaluate", {"rule": "Cov"})
        assert status == 400 and payload["ok"] is False
        assert "request_id" in payload and "server_time_ms" in payload
        # The id rides at the top level; the error object stays two-field.
        assert set(payload["error"]) == {"type", "message"}

    def test_batch_inner_envelopes_stay_deterministic(self, server):
        """request_id/server_time_ms wrap the batch, not each inner result."""
        requests = [{"op": "evaluate", "dataset": "wordnet-nouns", "request": {"rule": "Cov"}}]
        _, once = _request(server, "/v1/batch", {"requests": requests})
        _, twice = _request(server, "/v1/batch", {"requests": requests})
        assert once["request_id"] != twice["request_id"]
        assert once["results"] == twice["results"]
        assert "request_id" not in once["results"][0]


class TestMetrics:
    def test_metrics_sections_and_status_class_counters(self, server):
        _request(server, "/v1/evaluate", {"dataset": "wordnet-nouns", "rule": "Cov"})
        status, payload = _request(server, "/v1/metrics")
        assert status == 200
        assert {"server", "service", "process"} <= set(payload)
        assert payload["server"]["http_requests"] > 0
        service = payload["service"]
        assert service["enabled"] is True
        assert service["counters"]["http.status.2xx"] > 0
        # The access log is counted even though the server is not verbose.
        assert service["counters"]["http.access_log_lines"] > 0
        assert set(payload["process"]) == {"enabled", "counters", "spans"}

    def test_4xx_responses_are_counted_even_without_verbose(self, server):
        _, before = _request(server, "/v1/metrics")
        _request(server, "/v1/evaluate", {"rule": "Cov"})  # missing dataset -> 400
        _, after = _request(server, "/v1/metrics")
        seen = before["service"]["counters"].get("http.status.4xx", 0)
        assert after["service"]["counters"]["http.status.4xx"] == seen + 1

    def test_metrics_payload_is_json_stable(self, server):
        _, payload = _request(server, "/v1/metrics")
        assert json.loads(json.dumps(payload)) == payload
        assert list(payload["service"]["counters"]) == sorted(payload["service"]["counters"])


class TestWatchStreaming:
    """Watch streams observe the inline executor's registry."""

    @pytest.fixture
    def server(self, inline_server):
        return inline_server

    def test_baseline_stream_emits_one_sigma_event_then_closes(self, server):
        before = _status_2xx(server)
        status, headers, lines = _stream_watch(
            server, {"dataset": WATCH_DATASET, "max_events": 1, "duration_s": 30}
        )
        assert status == 200
        assert _status_2xx(server) > before  # the streamed 200 is counted
        assert headers["Content-Type"] == "application/x-ndjson"
        assert "Content-Length" not in headers  # EOF marks the end
        [event] = lines
        assert event["kind"] == "sigma" and event["rule"] == "Cov"
        assert event["generation"] == 0
        assert event["sigma"] == "3/4"  # a{p,q}, b{p}: 3 filled of 4 cells
        assert event["request_id"] == headers["X-Request-Id"]

    def test_idle_stream_heartbeats_until_the_deadline(self, server):
        status, _, lines = _stream_watch(
            server,
            {"dataset": WATCH_DATASET, "duration_s": 1.0, "heartbeat_s": 0.2,
             "rules": ["Sim"]},
        )
        assert status == 200
        kinds = [line["kind"] for line in lines]
        assert kinds[0] == "sigma"  # the baseline observation
        assert kinds.count("heartbeat") >= 2  # ~1s idle at 0.2s cadence
        assert set(kinds) == {"sigma", "heartbeat"}

    def test_mid_stream_mutation_is_observed_live(self, server):
        failures = []

        def mutate_later():
            try:
                time.sleep(0.4)
                status, payload = _request(
                    server, "/v1/mutate",
                    {"dataset": WATCH_DATASET,
                     "add": [["http://w/b", "http://w/q", '"1"']]},
                )
                if status != 200:
                    failures.append(payload)
            except Exception as error:  # pragma: no cover - surfaced below
                failures.append(error)

        thread = threading.Thread(target=mutate_later, daemon=True)
        thread.start()
        status, _, lines = _stream_watch(
            server, {"dataset": WATCH_DATASET, "max_events": 2, "duration_s": 30}
        )
        thread.join(timeout=10)
        assert not failures, failures
        assert status == 200
        live = [line for line in lines if line["kind"] == "sigma" and line["generation"] >= 1]
        assert live, lines
        # The streamed σ matches a fresh exact evaluation of the mutated dataset.
        _, payload = _request(
            server, "/v1/evaluate",
            {"dataset": WATCH_DATASET, "request": {"rule": "Cov", "exact": True}},
        )
        assert live[-1]["sigma"] == payload["result"]["exact"]

    def test_watch_counters_land_in_service_telemetry(self, server):
        _, payload = _request(server, "/v1/metrics")
        counters = payload["service"]["counters"]
        assert counters["watch.streams"] >= 1
        assert counters["watch.events_streamed"] >= 1

    @pytest.mark.parametrize(
        "body,fragment",
        [
            ({"rules": ["Cov"]}, "dataset"),
            ({"dataset": WATCH_DATASET, "wat": 1}, "unknown watch fields"),
            ({"dataset": WATCH_DATASET, "rules": []}, "non-empty"),
            ({"dataset": WATCH_DATASET, "duration_s": 0}, "positive"),
            ({"dataset": WATCH_DATASET, "heartbeat_s": -1}, "positive"),
            # The shard-count knob is gone with the sharded table view.
            ({"dataset": WATCH_DATASET, "shards": 4}, "unknown watch fields ['shards']"),
        ],
    )
    def test_bad_watch_bodies_are_400_envelopes(self, server, body, fragment):
        status, payload = _request(server, "/v1/watch", body)
        assert status == 400 and payload["ok"] is False
        assert fragment in payload["error"]["message"]
        assert set(payload["error"]) == {"type", "message"}

    def test_watch_requires_an_inline_executor(self):
        """Pooled servers reject watch: datasets live in worker processes."""

        class _PooledStub:
            # No `registry` attribute, like the process-pool executor.
            def close(self):
                pass

        service = StructurednessService(executor=_PooledStub())
        with pytest.raises(RequestError, match="workers=1"):
            service.watch_session({"dataset": WATCH_DATASET})
        service.close()


DATASET = {"builtin": "dbpedia-persons", "params": {"n_subjects": 120, "seed": 3}}


class _GatedExecutor(BatchExecutor):
    """An executor that blocks every request until the gate opens."""

    def __init__(self):
        self.gate = threading.Event()
        self.started = threading.Semaphore(0)
        self.calls = 0
        self._lock = threading.Lock()

    def execute(self, requests):
        with self._lock:
            self.calls += 1
        self.started.release()
        assert self.gate.wait(timeout=30), "test never opened the gate"
        return [{"ok": True, "result": {"echo": True}} for _ in requests]

    def execute_stream(self, requests):
        return iter(self.execute(list(requests)))

    def stats(self):
        return {"mode": "gated", "calls": self.calls}

    def close(self):
        self.gate.set()


class TestAdmissionControl:
    def test_overflow_gets_429_with_retry_after_and_admitted_work_completes(self):
        gated = _GatedExecutor()
        with running_server(executor=gated, pending_limit=2) as server:
            pool = _Threads(max_workers=5)
            try:
                body = {"dataset": DATASET, "request": {"rule": "Cov"}}
                first = pool.submit(_request_full, server, "/v1/evaluate", body)
                second = pool.submit(_request_full, server, "/v1/evaluate", body)
                # Both requests are admitted and running: pending=2.
                assert gated.started.acquire(timeout=10)
                assert gated.started.acquire(timeout=10)
                assert _request(server, "/v1/stats")[1]["admission"]["pending"] == 2
                # The slots are full: the next request is refused immediately.
                status, payload, headers = _request_full(server, "/v1/evaluate", body, timeout=10)
                assert status == 429
                assert payload["ok"] is False
                assert payload["error"]["type"] == "ServiceOverloaded"
                assert headers["Retry-After"] == "1"
                # GET routes bypass admission: the service stays observable.
                assert _request(server, "/healthz")[0] == 200
                # Open the gate: both admitted requests complete successfully —
                # saturation refused the overflow, it never dropped accepted work.
                gated.gate.set()
                for future in (first, second):
                    status, payload, _ = future.result(timeout=30)
                    assert status == 200 and payload["ok"] is True
                stats = _request(server, "/v1/stats")[1]["admission"]
                assert stats["rejected"] == 1
                assert stats["accepted"] == 2
                assert stats["peak_pending"] == 2
                assert stats["pending"] == 0
            finally:
                gated.gate.set()
                pool.shutdown(wait=True)

    def test_admission_snapshot_is_served_in_stats_and_metrics(self):
        with running_server(executor=InlineExecutor(), pending_limit=7) as server:
            for path in ("/v1/stats", "/v1/metrics"):
                status, payload = _request(server, path)
                assert status == 200
                admission = payload["admission"]
                assert admission["pending_limit"] == 7
                assert set(admission) == {
                    "pending", "pending_limit", "peak_pending", "accepted", "rejected",
                }

    def test_pending_limit_must_be_positive(self):
        with pytest.raises(ValueError, match="pending_limit"):
            make_server(executor=InlineExecutor(), pending_limit=0)


class TestStreamingBatch:
    def _stream(self, server, requests):
        stream_request = urllib.request.Request(
            server.url + "/v1/batch", data=json.dumps({"requests": requests}).encode(),
            headers={"Content-Type": "application/json", "Accept": "application/x-ndjson"},
        )
        with urllib.request.urlopen(stream_request, timeout=30) as response:
            headers = dict(response.headers)
            lines = [json.loads(l) for l in response.read().decode().splitlines() if l]
        return response.status, headers, lines

    def test_ndjson_accept_streams_one_envelope_per_line_in_order(self, server):
        requests = [
            {"op": "evaluate", "dataset": DATASET, "request": {"rule": "Cov"}},
            {"op": "evaluate", "dataset": DATASET, "request": {"rule": "Sim"}},
            {"not": "a request"},
            {"op": "evaluate", "dataset": DATASET, "request": {"rule": "Cov"}},
        ]
        before = _status_2xx(server)
        status, headers, lines = self._stream(server, requests)
        assert status == 200
        assert _status_2xx(server) > before  # the streamed 200 is counted
        assert headers["Content-Type"] == "application/x-ndjson"
        assert "Content-Length" not in headers  # EOF framing
        # The streamed lines are exactly the JSON route's results array.
        status, payload, _ = _request_full(server, "/v1/batch", {"requests": requests})
        assert status == 200
        assert lines == payload["results"]
        assert [line["ok"] for line in lines] == [True, True, False, True]

    def test_mid_stream_executor_failure_is_framed_as_terminal_error_line(self):
        class _ExplodingExecutor(InlineExecutor):
            def execute_stream(self, requests):
                requests = list(requests)
                yield from super().execute_stream(requests[:1])
                raise RuntimeError("wave two fell over")

        with running_server(executor=_ExplodingExecutor()) as server:
            requests = [
                {"op": "evaluate", "dataset": DATASET, "request": {"rule": "Cov"}},
                {"op": "evaluate", "dataset": DATASET, "request": {"rule": "Sim"}},
            ]
            status, _, lines = self._stream(server, requests)
            counters = server.service.telemetry.snapshot()["counters"]
        assert status == 200  # already committed pre-failure
        assert len(lines) == 2
        assert lines[0]["ok"] is True
        assert lines[1]["kind"] == "error" and lines[1]["ok"] is False
        assert "wave two fell over" in lines[1]["error"]["message"]
        assert counters["batch.stream_errors"] == 1

    def test_malformed_streamed_batch_is_a_400_envelope(self, server):
        status, payload, headers = _request_full(
            server, "/v1/batch", {"jobs": []}, headers={"Accept": "application/x-ndjson"}
        )
        assert status == 400 and "requests" in payload["error"]["message"]
        assert headers["Content-Type"] == "application/json"

    def test_plain_json_batch_route_is_unchanged(self, server):
        requests = [{"op": "evaluate", "dataset": DATASET, "request": {"rule": "Cov"}}]
        status, payload, headers = _request_full(server, "/v1/batch", {"requests": requests})
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        assert payload["ok"] is True and payload["count"] == 1


class TestMutationRouting:
    def test_mutations_of_different_datasets_do_not_serialise(self):
        """Two gated mutations on different datasets run concurrently."""

        class _GatedMutations(InlineExecutor):
            def __init__(self):
                super().__init__()
                self.entered = threading.Semaphore(0)
                self.gate = threading.Event()

            def execute(self, requests):
                parsed = list(requests)

                def _op(raw):
                    return raw.get("op") if isinstance(raw, dict) else getattr(raw, "op", None)

                if any(_op(r) == "mutate" for r in parsed):
                    self.entered.release()
                    assert self.gate.wait(timeout=30)
                return super().execute(parsed)

        gated = _GatedMutations()
        with running_server(executor=gated) as server:
            pool = _Threads(max_workers=2)
            try:
                def mutate(name):
                    return _request_full(server, "/v1/mutate", {
                        "dataset": {
                            "ntriples": f'<http://m/{name}> <http://m/p> "1" .\n',
                            "name": f"route-{name}",
                        },
                        "add": [[f"http://m/{name}2", "http://m/p", '"1"']],
                    })

                futures = [pool.submit(mutate, "a"), pool.submit(mutate, "b")]
                # Both mutations reach the executor before the gate opens:
                # neither was serialised behind the other.
                assert gated.entered.acquire(timeout=10)
                assert gated.entered.acquire(timeout=10)
                gated.gate.set()
                for future in futures:
                    status, payload, _ = future.result(timeout=30)
                    assert status == 200 and payload["ok"] is True
            finally:
                gated.gate.set()
                pool.shutdown(wait=True)


def _settled_admission(server, deadline_s=5.0):
    """The admission snapshot once no slot is held.

    A handler releases its slot just after writing the reply, so the
    client can read the reply a moment before ``pending`` drops.
    """
    deadline = time.monotonic() + deadline_s
    while True:
        admission = _request(server, "/v1/stats")[1]["admission"]
        if admission["pending"] == 0 or time.monotonic() > deadline:
            return admission
        time.sleep(0.005)


class TestAdmissionEdges:
    def test_failed_compute_requests_release_their_slot(self):
        """With one slot, every 400 must hand it back or the next call is a 429."""
        bad_requests = [
            ("/v1/evaluate", "{not json"),
            ("/v1/evaluate", [1, 2]),
            ("/v1/evaluate", {"dataset": DATASET, "rule": "Nope"}),
            ("/v1/batch", {"jobs": []}),
        ]
        with running_server(executor=InlineExecutor(), pending_limit=1) as server:
            for path, body in bad_requests:
                assert _request(server, path, body)[0] == 400, body
                assert _settled_admission(server)["pending"] == 0, body
            status, payload = _request(server, "/v1/evaluate", {"dataset": DATASET, "rule": "Cov"})
            assert status == 200 and payload["ok"] is True
            admission = _settled_admission(server)
            assert admission["pending"] == 0
            assert admission["accepted"] == 5
            assert admission["rejected"] == 0
            assert admission["peak_pending"] == 1

    def test_a_full_server_still_serves_get_routes_and_watch(self):
        class _GatedCompute(InlineExecutor):
            def __init__(self):
                super().__init__()
                self.entered = threading.Semaphore(0)
                self.gate = threading.Event()

            def execute(self, requests):
                self.entered.release()
                assert self.gate.wait(timeout=30)
                return super().execute(requests)

        gated = _GatedCompute()
        with running_server(executor=gated, pending_limit=1) as server:
            pool = _Threads(max_workers=1)
            try:
                body = {"dataset": DATASET, "request": {"rule": "Cov"}}
                admitted = pool.submit(_request_full, server, "/v1/evaluate", body)
                assert gated.entered.acquire(timeout=10)
                assert _request(server, "/v1/evaluate", body)[0] == 429
                for path in ("/healthz", "/v1/datasets", "/v1/stats", "/v1/metrics"):
                    assert _request(server, path)[0] == 200, path
                # /v1/watch reads the registry directly and takes no slot.
                status, _, lines = _stream_watch(
                    server, {"dataset": WATCH_DATASET, "max_events": 1, "duration_s": 30}
                )
                assert status == 200
                assert [line["kind"] for line in lines] == ["sigma"]
                gated.gate.set()
                status, payload, _ = admitted.result(timeout=30)
                assert status == 200 and payload["ok"] is True
            finally:
                gated.gate.set()
                pool.shutdown(wait=True)

    def test_overflow_never_reaches_the_executor_and_unknown_routes_take_no_slot(self):
        gated = _GatedExecutor()
        with running_server(executor=gated, pending_limit=1) as server:
            pool = _Threads(max_workers=1)
            try:
                body = {"dataset": DATASET, "request": {"rule": "Cov"}}
                admitted = pool.submit(_request_full, server, "/v1/evaluate", body)
                assert gated.started.acquire(timeout=10)
                batch = {"requests": [dict(body, op="evaluate")]}
                for path, payload in (
                    ("/v1/evaluate", body), ("/v1/refine", body), ("/v1/batch", batch),
                ):
                    status, answer, headers = _request_full(server, path, payload, timeout=10)
                    assert status == 429, path
                    assert answer["error"]["type"] == "ServiceOverloaded"
                    assert headers["Retry-After"] == "1"
                # An unknown route is a 404 whether or not a slot is free.
                assert _request(server, "/v1/transmogrify", body)[0] == 404
                gated.gate.set()
                assert admitted.result(timeout=30)[0] == 200
                assert gated.calls == 1
                admission = _request(server, "/v1/stats")[1]["admission"]
                assert (admission["accepted"], admission["rejected"]) == (1, 3)
            finally:
                gated.gate.set()
                pool.shutdown(wait=True)

    def test_a_429_leaves_the_keep_alive_connection_usable(self):
        """The refused body is drained, so the next request parses cleanly."""
        gated = _GatedExecutor()
        with running_server(executor=gated, pending_limit=1) as server:
            pool = _Threads(max_workers=1)
            host, port = server.server_address[:2]
            connection = http.client.HTTPConnection(host, port, timeout=10)
            try:
                body = {"dataset": DATASET, "request": {"rule": "Cov"}}
                admitted = pool.submit(_request_full, server, "/v1/evaluate", body)
                assert gated.started.acquire(timeout=10)
                connection.request(
                    "POST", "/v1/evaluate", body=json.dumps(body),
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                assert response.status == 429
                assert json.loads(response.read())["error"]["type"] == "ServiceOverloaded"
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["ok"] is True
                gated.gate.set()
                assert admitted.result(timeout=30)[0] == 200
            finally:
                connection.close()
                gated.gate.set()
                pool.shutdown(wait=True)


class TestPoolBackedServer:
    """What only a pool-backed server (``repro serve --workers 2``) shows."""

    def test_watch_is_a_400_naming_the_inline_requirement(self, pool_server):
        status, payload = _request(pool_server, "/v1/watch", {"dataset": WATCH_DATASET})
        assert status == 400 and payload["ok"] is False
        assert "workers=1" in payload["error"]["message"]
        assert set(payload["error"]) == {"type", "message"}

    def test_stats_report_the_fixed_pool_topology(self, pool_server):
        _request(pool_server, "/v1/evaluate", {"dataset": "wordnet-nouns", "rule": "Cov"})
        status, payload = _request(pool_server, "/v1/stats")
        assert status == 200
        executor = payload["executor"]
        assert set(executor) == {
            "mode", "workers", "backlog", "start_method", "jobs_dispatched",
            "mutations_logged",
        }
        assert executor["mode"] == "elastic"
        assert executor["workers"] == 2
        assert executor["jobs_dispatched"] >= 1
        # stats() reads the pool's own telemetry and hands out a copy.
        pool = pool_server.service.executor
        stats = pool.stats()
        assert stats["jobs_dispatched"] == pool.telemetry.counters()["pool.jobs_dispatched"]
        stats["jobs_dispatched"] = -1
        assert pool.stats()["jobs_dispatched"] >= 1

    def test_metrics_carry_the_pool_scale_telemetry(self, pool_server):
        _request(pool_server, "/v1/evaluate", {"dataset": "wordnet-nouns", "rule": "Cov"})
        status, payload = _request(pool_server, "/v1/metrics")
        assert status == 200
        counters = payload["executor"]["counters"]
        assert counters["scale.worker_boots"] == 2
        assert json.loads(json.dumps(payload)) == payload

    def test_every_worker_answers_with_the_mutated_graph(self, pool_server):
        dataset = {
            "ntriples": '<http://pool/a> <http://pool/p> "1" .\n'
                        '<http://pool/b> <http://pool/q> "1" .\n',
            "name": "http-pool-mutable",
        }
        body = {"dataset": dataset, "request": {"rule": "Cov", "exact": True}}
        assert _request(pool_server, "/v1/evaluate", body)[1]["result"]["exact"] == "1/2"
        status, payload = _request(
            pool_server, "/v1/mutate",
            {"dataset": dataset, "add": [["http://pool/a", "http://pool/q", '"1"'],
                                         ["http://pool/b", "http://pool/p", '"1"']]},
        )
        assert status == 200 and payload["result"]["added"] == 2
        # Eight concurrent reads spread over both workers; each one must
        # replay the mutation log before answering.
        with _Threads(max_workers=8) as threads:
            answers = list(threads.map(
                lambda _: _request(pool_server, "/v1/evaluate", body), range(8)
            ))
        assert {status for status, _ in answers} == {200}
        assert {payload["result"]["exact"] for _, payload in answers} == {"1/1"}

    def test_parallel_identical_requests_agree_across_workers(self, pool_server):
        body = {
            "dataset": {"builtin": "dbpedia-persons", "params": {"n_subjects": 250, "seed": 5}},
            "request": {"rule": "Cov", "k": 2, "step": "1/4"},
        }
        with _Threads(max_workers=6) as threads:
            answers = list(threads.map(
                lambda _: _request(pool_server, "/v1/refine", body), range(6)
            ))
        assert {status for status, _ in answers} == {200}
        payloads = [strip_timing(dict(payload["result"], cached=False)) for _, payload in answers]
        assert all(payload == payloads[0] for payload in payloads)
        reference = InlineExecutor().execute([dict(body, op="refine")])[0]["result"]
        assert payloads[0] == strip_timing(dict(reference, cached=False))
