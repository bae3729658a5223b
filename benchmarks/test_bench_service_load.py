"""Benchmark — closed-loop load against the HTTP service.

Three phases, all against real HTTP sockets:

* **Determinism** — one mixed batch (evaluate / refine / mutate churn)
  through a 1-worker server and through a 3-worker pool server;
  the result payloads must be bit-identical (the ``cached`` flag aside,
  which is worker-placement-dependent by design).
* **Load** — wrk-style closed-loop clients (threads, each firing its
  next request as soon as the previous response lands) drive mixed
  evaluate/refine/mutate traffic at the threaded front-end backed by a
  3-worker pool; throughput and latency percentiles are recorded into
  ``BENCH_service_load.json`` via the ``bench_artifact`` fixture (and
  folded into the committed trajectory by ``scripts/collect_bench.py``).
* **Saturation** — two admission slots over a deliberately slow
  executor: overflow must be refused with 429 + ``Retry-After`` while
  every admitted request still completes — saturation never stalls the
  client and never drops accepted work.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import pytest

from repro.service import make_server
from repro.service.executor import BatchExecutor, create_executor

NT = ('<http://l/a> <http://l/p> "1" .\n'
      '<http://l/a> <http://l/q> "1" .\n'
      '<http://l/b> <http://l/p> "1" .\n'
      '<http://l/c> <http://l/q> "1" .\n')
CHURN_DATASET = {"ntriples": NT, "name": "load-churn"}
EVAL_DATASET = {"builtin": "dbpedia-persons", "params": {"n_subjects": 200, "seed": 3}}


def _post(url, path, body, headers=None, timeout=60):
    request = urllib.request.Request(
        url + path, data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read()), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


def _churn_batch():
    """Mixed traffic with mutations: the determinism acceptance batch."""
    def ev(rule, dataset=CHURN_DATASET):
        return {"op": "evaluate", "dataset": dataset, "request": {"rule": rule}}

    def mut(i):
        return {"op": "mutate", "dataset": CHURN_DATASET,
                "add": [[f"http://l/s{i}", "http://l/p", '"1"']], "remove": []}

    return [
        ev("Cov"), ev("Sim"), mut(1), ev("Cov"),
        ev("Cov", EVAL_DATASET), mut(2), ev("Sim"), ev("Cov"),
        {"op": "refine", "dataset": CHURN_DATASET,
         "request": {"rule": "Cov", "k": 2, "step": "1/4"}},
        mut(3), ev("Cov"), ev("Sim"),
    ]


@contextmanager
def _serving(executor, **kwargs):
    """A threaded server over ``executor`` on an ephemeral port."""
    server = make_server(executor=executor, **kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.close()
        thread.join(timeout=5)


def _strip_cached(envelope):
    return {k: v for k, v in envelope.items() if k != "cached"}


@pytest.mark.paper_artifact("service load story (not in the paper)")
def test_bench_elastic_payloads_match_single_worker(benchmark):
    """1 worker vs a 3-worker pool under churn: bit-identical payloads."""
    batch = _churn_batch()
    with _serving(create_executor(workers=1)) as single:
        _, single_payload, _ = _post(single.url, "/v1/batch", {"requests": batch})

    def elastic_run():
        with _serving(create_executor(workers=3)) as elastic:
            _, payload, _ = _post(elastic.url, "/v1/batch", {"requests": batch})
            return payload

    elastic_payload = benchmark.pedantic(elastic_run, rounds=1, iterations=1)
    assert single_payload["ok"] and elastic_payload["ok"]
    singles = [_strip_cached(e) for e in single_payload["results"]]
    elastics = [_strip_cached(e) for e in elastic_payload["results"]]
    assert json.dumps(singles, sort_keys=True) == json.dumps(elastics, sort_keys=True)
    assert sum(1 for e in singles if e["ok"]) == len(batch)
    benchmark.extra_info["batch_size"] = len(batch)


@pytest.mark.paper_artifact("service load story (not in the paper)")
def test_bench_closed_loop_mixed_traffic(benchmark, bench_artifact, capsys):
    """Closed-loop clients over a 3-worker pool; record percentiles."""
    clients = 4
    requests_per_client = 10
    latencies_by_kind = {"evaluate": [], "refine": [], "mutate": []}
    lock = threading.Lock()
    failures = []

    def client_loop(client_id):
        for i in range(requests_per_client):
            slot = (client_id + i) % 8
            if slot < 5:
                kind, path, body = "evaluate", "/v1/evaluate", {
                    "dataset": EVAL_DATASET,
                    "request": {"rule": "Cov" if slot % 2 else "Sim"},
                }
            elif slot < 7:
                kind, path, body = "refine", "/v1/refine", {
                    "dataset": CHURN_DATASET,
                    "request": {"rule": "Cov", "k": 2, "step": "1/4"},
                }
            else:
                kind, path, body = "mutate", "/v1/mutate", {
                    "dataset": CHURN_DATASET,
                    "add": [[f"http://l/c{client_id}x{i}", "http://l/p", '"1"']],
                }
            started = time.perf_counter()
            status, payload, _ = _post(server.url, path, body)
            elapsed = time.perf_counter() - started
            with lock:
                if status != 200 or not payload.get("ok"):
                    failures.append((kind, status, payload.get("error")))
                else:
                    latencies_by_kind[kind].append(elapsed)

    def run_load():
        with ThreadPoolExecutor(max_workers=clients) as pool:
            list(pool.map(client_loop, range(clients)))

    with _serving(create_executor(workers=3), pending_limit=64) as server:
        started = time.perf_counter()
        benchmark.pedantic(run_load, rounds=1, iterations=1)
        wall = time.perf_counter() - started
        stats = json.loads(
            urllib.request.urlopen(server.url + "/v1/stats", timeout=10).read()
        )
        metrics = json.loads(
            urllib.request.urlopen(server.url + "/v1/metrics", timeout=10).read()
        )

    assert not failures, failures
    total = sum(len(v) for v in latencies_by_kind.values())
    assert total == clients * requests_per_client

    def percentiles(values):
        ordered = sorted(values)
        if not ordered:
            return {}
        pick = lambda q: ordered[min(len(ordered) - 1, int(q * len(ordered)))]
        return {
            "p50_ms": round(pick(0.50) * 1000, 3),
            "p90_ms": round(pick(0.90) * 1000, 3),
            "p99_ms": round(pick(0.99) * 1000, 3),
            "mean_ms": round(statistics.fmean(ordered) * 1000, 3),
            "count": len(ordered),
        }

    payload = {
        "config": {
            "clients": clients,
            "requests_per_client": requests_per_client,
            "workers": 3,
            "pending_limit": 64,
        },
        "throughput_rps": round(total / wall, 2) if wall > 0 else None,
        "wall_seconds": round(wall, 3),
        "latency": {kind: percentiles(v) for kind, v in latencies_by_kind.items()},
        "admission": stats["admission"],
        "executor": metrics.get("executor", {}).get("counters", {}),
    }
    path = bench_artifact("service_load", payload)
    benchmark.extra_info["throughput_rps"] = payload["throughput_rps"]
    with capsys.disabled():
        print(f"\nservice load: {total} requests in {wall:.2f}s "
              f"({payload['throughput_rps']} req/s) -> {path.name}")


class _SlowExecutor(BatchExecutor):
    """Holds every request for a beat, so the admission queue can fill."""

    def execute(self, requests):
        time.sleep(0.4)
        return [{"ok": True, "result": {"slow": True}} for _ in requests]

    def execute_stream(self, requests):
        return iter(self.execute(list(requests)))

    def stats(self):
        return {"mode": "slow"}


@pytest.mark.paper_artifact("service load story (not in the paper)")
def test_bench_saturation_returns_429_without_dropping_accepted_work(benchmark):
    with _serving(_SlowExecutor(), pending_limit=2) as server:
        body = {"dataset": EVAL_DATASET, "request": {"rule": "Cov"}}

        def flood():
            with ThreadPoolExecutor(max_workers=8) as pool:
                return [
                    f.result()
                    for f in [
                        pool.submit(_post, server.url, "/v1/evaluate", body)
                        for _ in range(8)
                    ]
                ]

        results = benchmark.pedantic(flood, rounds=1, iterations=1)
        by_status = {}
        for status, payload, headers in results:
            by_status.setdefault(status, []).append((payload, headers))
        # Saturation is visible: two slots cannot admit 8
        # near-simultaneous requests, so some are refused immediately...
        assert 429 in by_status, sorted(by_status)
        for payload, headers in by_status[429]:
            assert payload["error"]["type"] == "ServiceOverloaded"
            assert headers["Retry-After"] == "1"
        # ... and every admitted request completes: accepted work is never
        # dropped, and nothing stalls (the flood returned within timeouts).
        assert 200 in by_status
        for payload, _ in by_status[200]:
            assert payload["ok"] is True
        stats = json.loads(
            urllib.request.urlopen(server.url + "/v1/stats", timeout=10).read()
        )["admission"]
        assert stats["accepted"] == len(by_status[200])
        assert stats["rejected"] == len(by_status[429])
        benchmark.extra_info["accepted"] = stats["accepted"]
        benchmark.extra_info["rejected"] = stats["rejected"]
