#!/usr/bin/env python
"""HTTP smoke test: serve → evaluate/refine/sweep → batch → stats.

Starts ``repro serve`` as a real subprocess on an ephemeral port, drives
it over HTTP the way a client would, and fails (non-zero exit) on any
non-200 response or on payload drift against an in-process
:class:`repro.service.InlineExecutor` answering the same requests.  The
full drive runs against the inline server, and a second, shorter round
checks a ``--workers 2`` process pool (admission section in
``/v1/stats``, elastic executor stats, batch determinism).  CI runs
this as its service job; locally::

    PYTHONPATH=src python scripts/service_smoke.py
"""

from __future__ import annotations

import http.client
import json
import os
import re
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

DATASET = {"builtin": "dbpedia-persons", "params": {"n_subjects": 500}}
REQUESTS = [
    {"op": "evaluate", "dataset": DATASET, "request": {"rule": "Cov", "exact": True}},
    {"op": "refine", "dataset": DATASET, "request": {"rule": "Cov", "k": 2, "step": "1/10"}},
    {"op": "sweep", "dataset": DATASET, "request": {"rule": "Cov", "k_values": [2, 3], "step": "1/4"}},
]


def call(base, path, body=None, expect=200):
    url = base + path
    if body is None:
        request = urllib.request.Request(url)
    else:
        request = urllib.request.Request(
            url, data=json.dumps(body).encode(), headers={"Content-Type": "application/json"}
        )
    try:
        with urllib.request.urlopen(request, timeout=120) as response:
            status, payload = response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        status, payload = error.code, json.loads(error.read())
    if status != expect:
        raise SystemExit(f"FAIL {path}: expected HTTP {expect}, got {status}: {payload}")
    return payload


#: The watch round needs a *graph-backed* dataset (mutations patch the RDF
#: graph; the built-in generators materialise signature tables directly).
WATCH_DATASET = {
    "name": "watch-smoke",
    "ntriples": (
        '<http://smoke/a> <http://smoke/p> "1" .\n'
        '<http://smoke/a> <http://smoke/q> "1" .\n'
        '<http://smoke/b> <http://smoke/p> "1" .\n'
    ),
}


def run_watch_round(base) -> str:
    """One live watch round: stream ``/v1/watch`` while mutating the dataset.

    Opens the JSONL stream, fires a mutation from a sibling connection half
    a second in, and returns the σ of the post-mutation sigma event.  Fails
    if the stream never reports the mutated generation or any event line is
    missing its request id.
    """
    host = base.split("//", 1)[1].rstrip("/")
    mutate_failure = []

    def mutate() -> None:
        time.sleep(0.5)
        try:
            payload = call(base, "/v1/mutate", {
                "dataset": WATCH_DATASET,
                "add": [["http://smoke/c", "http://smoke/p", "\"1\""]],
            })
            if not payload.get("ok"):
                mutate_failure.append(f"mutate envelope not ok: {payload}")
        except SystemExit as error:  # call() failures must reach the main thread
            mutate_failure.append(str(error))

    thread = threading.Thread(target=mutate, daemon=True)
    thread.start()
    connection = http.client.HTTPConnection(host, timeout=60)
    connection.request("POST", "/v1/watch", body=json.dumps({
        "dataset": WATCH_DATASET, "rules": ["Cov"], "max_events": 2, "duration_s": 30.0,
    }), headers={"Content-Type": "application/json"})
    response = connection.getresponse()
    if response.status != 200:
        raise SystemExit(f"FAIL /v1/watch: HTTP {response.status}: {response.read()!r}")
    events = [json.loads(line) for line in response.read().decode().splitlines() if line.strip()]
    connection.close()
    thread.join(timeout=30)
    if mutate_failure:
        raise SystemExit(f"FAIL /v1/mutate during watch: {mutate_failure[0]}")
    for event in events:
        if "request_id" not in event:
            raise SystemExit(f"FAIL /v1/watch: event missing request_id: {event}")
    mutated = [e for e in events if e.get("kind") == "sigma" and e.get("generation", 0) >= 1]
    if not mutated:
        raise SystemExit(f"FAIL /v1/watch: no post-mutation sigma event in {events}")
    return mutated[-1]["sigma"]


def _spawn_server(env, *extra_args):
    """Start ``repro serve`` on an ephemeral port; return (process, base url)."""
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0", *extra_args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    line = server.stdout.readline()
    match = re.search(r"listening on (http://\S+)", line)
    if not match:
        server.terminate()
        raise SystemExit(f"FAIL: server did not announce its address: {line!r}")
    base = match.group(1)
    deadline = time.time() + 30
    while True:
        try:
            call(base, "/healthz")
            break
        except OSError:
            if time.time() > deadline:
                server.terminate()
                raise SystemExit("FAIL: server never became healthy")
            time.sleep(0.2)
    return server, base


def _stop_server(server) -> None:
    server.terminate()
    try:
        server.wait(timeout=10)
    except subprocess.TimeoutExpired:
        server.kill()


def run_drive(base, label) -> None:
    """The full route drive against one live server."""
    from repro.service import InlineExecutor

    def fail(message):
        raise SystemExit(f"[{label}] {message}")

    # The server executes the single-op calls first and the batch
    # second, against the same long-lived sessions — so the second
    # pass legitimately reports ``cached: true``.  Replay the exact
    # same sequence on one inline executor to get both references.
    executor = InlineExecutor()
    reference = executor.execute([dict(r) for r in REQUESTS])
    reference_repeat = executor.execute([dict(r) for r in REQUESTS])

    # Single-op routes, checked against the in-process answers.
    for request, expected in zip(REQUESTS, reference):
        payload = call(base, f"/v1/{request['op']}", {k: v for k, v in request.items() if k != "op"})
        if not payload.get("ok"):
            fail(f"FAIL /v1/{request['op']}: {payload}")
        if payload["result"] != expected["result"]:
            fail(
                f"FAIL /v1/{request['op']}: payload drift\n"
                f"  http:   {json.dumps(payload['result'], sort_keys=True)}\n"
                f"  inline: {json.dumps(expected['result'], sort_keys=True)}"
            )

    # The batch route returns the same envelopes, in order (the repeat
    # reference: the server's sessions answered these once already).
    batch = call(base, "/v1/batch", {"requests": REQUESTS})
    if batch["results"] != reference_repeat:
        fail(
            "FAIL /v1/batch: payload drift against inline executor\n"
            f"  http:   {json.dumps(batch['results'], sort_keys=True)}\n"
            f"  inline: {json.dumps(reference_repeat, sort_keys=True)}"
        )

    # A client mistake must map to a structured 400, not a traceback.
    bad = call(base, "/v1/lowest_k", {"dataset": DATASET, "theta": "4/3"}, expect=400)
    if bad.get("error", {}).get("type") != "RequestError":
        fail(f"FAIL: bad theta did not map to RequestError: {bad}")

    stats = call(base, "/v1/stats")
    sessions = stats.get("executor", {}).get("sessions", [])
    if not sessions or any("solver" not in s for s in sessions):
        fail(f"FAIL /v1/stats: sessions missing solver backends: {stats}")
    datasets = call(base, "/v1/datasets")
    if "dbpedia-persons" not in datasets.get("builtin", []):
        fail(f"FAIL /v1/datasets: {datasets}")

    # Every envelope must carry the request id and server timing at its
    # top level (the deterministic ``result`` payloads stay untouched).
    for key in ("request_id", "server_time_ms"):
        if key not in stats:
            fail(f"FAIL /v1/stats: envelope missing {key!r}: {stats}")

    # The telemetry spine: /v1/metrics must report the traffic this
    # smoke run generated, including the 400 from the bad theta above.
    metrics = call(base, "/v1/metrics")
    for section in ("server", "service", "process"):
        if section not in metrics:
            fail(f"FAIL /v1/metrics: missing section {section!r}: {metrics}")
    counters = metrics["service"].get("counters", {})
    if not counters.get("http.status.2xx"):
        fail(f"FAIL /v1/metrics: no 2xx traffic counted: {counters}")
    if not counters.get("http.status.4xx"):
        fail(f"FAIL /v1/metrics: the bad-theta 400 was not counted: {counters}")

    # One live watch round: stream /v1/watch, mutate the dataset from a
    # sibling connection, and check the streamed σ against a fresh
    # evaluate of the mutated dataset — the differential guarantee,
    # end to end over HTTP.
    watch_sigma = run_watch_round(base)
    fresh = call(base, "/v1/evaluate", {
        "dataset": WATCH_DATASET, "request": {"rule": "Cov", "exact": True},
    })
    if watch_sigma != fresh["result"]["exact"]:
        fail(
            "FAIL /v1/watch: streamed sigma drifted from a fresh evaluate\n"
            f"  watch: {watch_sigma}\n  fresh: {fresh['result']['exact']}"
        )

    print(f"[{label}] drive OK:", json.dumps(stats["server"], sort_keys=True))


def run_elastic_round(base) -> None:
    """The process-pool specifics: admission stats, elastic executor, batch."""
    from repro.service import InlineExecutor

    batch = call(base, "/v1/batch", {"requests": REQUESTS})
    stats = call(base, "/v1/stats")
    admission = stats.get("admission")
    if not admission or "pending_limit" not in admission:
        raise SystemExit(f"[elastic] FAIL /v1/stats: no admission section: {stats}")
    executor = stats.get("executor", {})
    if executor.get("mode") != "elastic" or executor.get("workers") != 2:
        raise SystemExit(f"[elastic] FAIL /v1/stats: executor is not a 2-worker pool: {stats}")
    reference = InlineExecutor().execute([dict(r) for r in REQUESTS])
    got = [{k: v for k, v in e.items() if k != "cached"} for e in batch["results"]]
    want = [{k: v for k, v in e.items() if k != "cached"} for e in reference]
    if got != want:
        raise SystemExit(
            "[elastic] FAIL /v1/batch: payload drift against inline executor\n"
            f"  http:   {json.dumps(got, sort_keys=True)}\n"
            f"  inline: {json.dumps(want, sort_keys=True)}"
        )
    metrics = call(base, "/v1/metrics")
    scale = metrics.get("executor", {}).get("counters", {})
    if not scale.get("scale.worker_boots"):
        raise SystemExit(f"[elastic] FAIL /v1/metrics: no worker boots counted: {metrics}")
    print("[elastic] round OK:", json.dumps(stats["executor"], sort_keys=True))


def main() -> int:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    sys.path.insert(0, src)

    server, base = _spawn_server(env)
    try:
        run_drive(base, "threaded")
    finally:
        _stop_server(server)

    server, base = _spawn_server(env, "--workers", "2")
    try:
        run_elastic_round(base)
    finally:
        _stop_server(server)

    print("service smoke OK (threaded + elastic)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
