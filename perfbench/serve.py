"""Workload ``serve``: ``repro serve`` under two closed-loop keep-alive clients.

The default threaded front-end serves the ``ingest`` Persons file as a
snapshot spec.  Each client holds one HTTP/1.1 connection and sends its
next request as soon as the previous reply lands: 90% ``evaluate``
(Cov, Sim or SymDep[deathPlace, deathDate] rule text, uniformly) and 10%
``mutate``, toggling the client's own triple (add, then remove).  The
service layer and incremental ``apply_delta`` dominate; the ILP does none.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import select
import subprocess
import sys
import threading
from pathlib import Path
from typing import Dict, List, Optional

from common import (
    PROGRAM_KNOBS,
    ROOT,
    SETUP_REPEATS,
    HostSpeed,
    Outcome,
    median,
    now,
    percentile,
    process_peak_rss_mb,
    quiesce,
)
from inputs import persons_subjects, remove, write_persons_ntriples
from spans import Tracer, program_mean_ms, program_span_totals

CLIENTS = 2
MUTATE_SHARE = 0.10
#: How long to wait for the server's "listening on" line before giving up.
START_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0
#: Evaluations per rule in the in-process counting replay of the traced run.
REPLAY_ROUNDS = 20

#: Reference kernel runs before each set-up; the load phase keeps both
#: CPUs busy, so the kernel runs only while nothing else does.
SPEED_SAMPLES_PER_SETUP = 5

LABELS = {
    "setup_s": "median set-up, at reference speed",
    "op1_ms": "evaluate_p50_ms",
    "op2_ms": "mutate_p50_ms",
    "op3_ms": "evaluate_p90_ms",
    "ops_per_s": "requests per second, both clients",
    "peak_rss_mb": "server process peak RSS",
}


def _rules() -> Dict[str, str]:
    from repro.datasets.dbpedia_persons import PERSONS_NAMESPACE as ns
    from repro.rules import symmetric_dependency

    return {
        "Cov": "Cov",
        "Sim": "Sim",
        "SymDep": symmetric_dependency(ns.deathPlace, ns.deathDate).to_text(),
    }


class Server:
    """One ``repro serve --port 0`` child process."""

    def __init__(self, workdir: Path, traced: bool):
        env = {key: value for key, value in os.environ.items() if key not in PROGRAM_KNOBS}
        env["PYTHONPATH"] = str(ROOT / "src")
        if traced:
            env["REPRO_TRACE"] = "1"
        self._log = open(workdir / "server.log", "ab")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=self._log,
        )
        try:
            self.host, self.port = self._wait_listening()
        except BaseException:
            self.close()
            raise

    def _wait_listening(self):
        """Block on the server's "listening on" line (no sleep-polling)."""
        stream = self.process.stdout
        ready, _, _ = select.select([stream], [], [], START_TIMEOUT_S)
        line = stream.readline().decode("utf-8", "replace") if ready else ""
        if "listening on http://" not in line:
            raise RuntimeError(f"repro serve did not start: {line!r} (see server.log)")
        address = line.rsplit("http://", 1)[1].strip().rstrip("/")
        host, port = address.rsplit(":", 1)
        return host, int(port)

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=REQUEST_TIMEOUT_S)

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb(self.process.pid)

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=20)
        self.process.stdout.close()
        self._log.close()


def call(conn: http.client.HTTPConnection, method: str, path: str, body: Optional[dict] = None):
    """One request on a keep-alive connection: ``(status, payload, raw body bytes)``."""
    raw = json.dumps(body).encode("utf-8") if body is not None else None
    headers = {"Content-Type": "application/json"} if raw is not None else {}
    conn.request(method, path, body=raw, headers=headers)
    response = conn.getresponse()
    data = response.read()
    return response.status, json.loads(data), raw


class Serve:
    def __init__(self, workdir: Path, seed: int, scale: float):
        self.workdir = workdir
        self.seed = seed
        self.n_subjects = persons_subjects(scale)
        self.source = workdir / "persons.nt"
        self.snapshot = workdir / "persons.snap"
        self.spec = {"snapshot": str(self.snapshot)}
        self.rules = _rules()
        self.toggles: List[list] = []
        self.exact: Dict[str, str] = {}
        self.server: Optional[Server] = None

    # ------------------------------------------------------------------ #
    def setup(self) -> None:
        """Generate the input, build its snapshot and start the server."""
        from repro.api import Dataset

        write_persons_ntriples(self.source, self.seed, self.n_subjects)
        dataset = Dataset.from_ntriples(self.source)
        dataset.save(self.snapshot)
        self.toggles = self._pick_toggles(dataset.matrix)
        del dataset
        self.server = Server(self.workdir, traced=False)

    def _pick_toggles(self, matrix) -> List[list]:
        """One (subject, deathDate, literal) triple per client, absent from the data."""
        from repro.datasets.dbpedia_persons import PERSONS_NAMESPACE as ns

        column = list(matrix.properties).index(ns.deathDate)
        candidates = [str(s) for s, row in zip(matrix.subjects, matrix.data) if not row[column]]
        chosen = random.Random(self.seed).sample(candidates, CLIENTS)
        return [[subject, str(ns.deathDate), '"benchmark toggle"'] for subject in chosen]

    def evaluate_body(self, rule: str, exact: bool = False) -> dict:
        return {"dataset": self.spec, "request": {"rule": self.rules[rule], "exact": exact}}

    def mutate_body(self, client: int, add: bool) -> dict:
        triple = [self.toggles[client]]
        return {"dataset": self.spec, "add": triple if add else [],
                "remove": [] if add else triple}

    def warm(self, outcome: Outcome) -> None:
        """Load the snapshot, count each rule once and replay the graph for mutation."""
        conn = self.server.connect()
        try:
            for rule in self.rules:
                status, payload, _ = call(conn, "POST", "/v1/evaluate",
                                          self.evaluate_body(rule, exact=True))
                if outcome.check(status == 200 and payload.get("ok"), f"warm evaluate {rule}"):
                    self.exact[rule] = payload["result"]["exact"]
            for client in range(CLIENTS):
                for add in (True, False):
                    status, payload, _ = call(conn, "POST", "/v1/mutate",
                                              self.mutate_body(client, add))
                    outcome.check(status == 200 and payload.get("ok"), "warm mutate")
        finally:
            conn.close()

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None

    # ------------------------------------------------------------------ #
    def _client(self, index: int, deadline: float, log: list, checks: list) -> None:
        rng = random.Random(self.seed * 1009 + index)
        names = sorted(self.rules)
        conn = self.server.connect()
        added = False
        try:
            while now() < deadline:
                if rng.random() < MUTATE_SHARE:
                    op, path, body = "mutate", "/v1/mutate", self.mutate_body(index, not added)
                else:
                    op, path = "evaluate", "/v1/evaluate"
                    body = self.evaluate_body(rng.choice(names))
                started = now()
                try:
                    status, payload, raw = call(conn, "POST", path, body)
                except (OSError, http.client.HTTPException, ValueError) as error:
                    checks.append((False, f"client {index} {op}: {error!r}"))
                    conn.close()
                    conn = self.server.connect()
                    continue
                latency = now() - started
                ok = status == 200 and payload.get("ok") is True
                if ok and op == "mutate":
                    result = payload["result"]
                    expected = (0, 1) if added else (1, 0)
                    ok = (result["added"], result["removed"]) == expected
                    added = not added if ok else added
                checks.append((ok, f"client {index} {op}: HTTP {status} {str(payload)[:200]}"))
                log.append((op, latency, float(payload.get("server_time_ms", 0.0)), raw, payload))
            if added:
                # Leave the data as it was found; this op is checked, not timed.
                status, payload, _ = call(conn, "POST", "/v1/mutate", self.mutate_body(index, False))
                checks.append((status == 200 and payload.get("ok") is True
                               and payload["result"]["removed"] == 1,
                               f"client {index} final remove: HTTP {status}"))
        finally:
            conn.close()

    def load(self, seconds: float, outcome: Outcome):
        """Run both clients for ``seconds``; returns the request log and the wall time."""
        logs: List[list] = [[] for _ in range(CLIENTS)]
        checks: List[list] = [[] for _ in range(CLIENTS)]
        quiesce()
        started = now()
        deadline = started + seconds
        threads = [
            threading.Thread(target=self._client, args=(i, deadline, logs[i], checks[i]))
            for i in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 2 * REQUEST_TIMEOUT_S)
        wall = now() - started
        for thread in threads:
            outcome.gate(not thread.is_alive(), "a client thread did not finish")
        for client_checks in checks:
            for ok, what in client_checks:
                outcome.check(ok, what)
        log = [entry for client_log in logs for entry in client_log]
        self._check_sigma(outcome)
        return log, wall

    def _check_sigma(self, outcome: Outcome) -> None:
        """After the run every toggle is undone, so each σ equals its pre-run value."""
        conn = self.server.connect()
        try:
            for rule, expected in self.exact.items():
                status, payload, _ = call(conn, "POST", "/v1/evaluate",
                                          self.evaluate_body(rule, exact=True))
                outcome.check(status == 200 and payload.get("ok")
                              and payload["result"]["exact"] == expected,
                              f"{rule}: post-run sigma differs from the pre-run value")
        finally:
            conn.close()


def _latencies(log, op: str) -> List[float]:
    return [entry[1] for entry in log if entry[0] == op]


def timed_run(workdir: Path, seed: int, seconds: float, scale: float, outcome: Outcome):
    workload = Serve(workdir, seed, scale)
    speed = HostSpeed()
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            workload.close()
            remove(workload.snapshot)
            quiesce()
            speed.sample(SPEED_SAMPLES_PER_SETUP)
            started = now()
            workload.setup()
            setups.append(now() - started)
        workload.warm(outcome)
        log, wall = workload.load(seconds, outcome)
        peak = workload.server.peak_rss_mb()
    finally:
        workload.close()
    evaluate, mutate = _latencies(log, "evaluate"), _latencies(log, "mutate")
    metrics = {
        "setup_s": (median(setups) * speed.scale, "s"),
        "peak_rss_mb": (peak, "MB"),
        "ops_per_s": (len(log) / wall, "1/s"),
        "op1_ms": (1000.0 * percentile(evaluate, 50), "ms"),
        "op2_ms": (1000.0 * percentile(mutate, 50), "ms"),
        "op3_ms": (1000.0 * percentile(evaluate, 90), "ms"),
    }
    info = {"samples": {"evaluate": len(evaluate), "mutate": len(mutate)},
            "raw_setup_s": [round(value, 3) for value in setups], **speed.info()}
    return metrics, LABELS, info


def _wire_replay(log) -> float:
    """Mean ms per request of the server's codec work, replayed on the run's bodies."""
    from repro.api.results import DatasetInfo, EvaluationResult, MutationResult
    from repro.service.wire import parse_request, serialize_result

    total = 0.0
    for op, _, _, raw, payload in log:
        fields = dict(payload["result"])
        if op == "evaluate":
            result = EvaluationResult(dataset=DatasetInfo(**fields.pop("dataset")), **fields)
        else:
            result = MutationResult(**fields)
        started = now()
        request = parse_request(dict(json.loads(raw), op=op))
        envelope = serialize_result(result, request)
        json.dumps(envelope, sort_keys=True).encode("utf-8")
        total += now() - started
    return 1000.0 * total / len(log)


def _counting_replay(workload: Serve) -> None:
    """Reopen the served snapshot and count each rule, under the layer wrappers."""
    from repro.api import Dataset

    session = Dataset.load(workload.snapshot).session()
    for rule_text in workload.rules.values():
        function = session.function_for(rule_text)
        for _ in range(REPLAY_ROUNDS):
            function.evaluate_fraction(session.dataset.table)
    session.close()


def traced_run(workdir: Path, seed: int, seconds: float, scale: float, outcome: Outcome):
    """Half the time against a plain server, half against one with ``REPRO_TRACE=1``."""
    workload = Serve(workdir, seed, scale)
    try:
        workload.setup()
        workload.warm(outcome)
        plain, _ = workload.load(seconds / 2.0, outcome)
        workload.close()
        workload.server = Server(workdir, traced=True)
        workload.warm(outcome)
        traced, _ = workload.load(seconds / 2.0, outcome)
        conn = workload.server.connect()
        try:
            _, metrics, _ = call(conn, "GET", "/v1/metrics")
            _, stats, _ = call(conn, "GET", "/v1/stats")
            _, datasets, _ = call(conn, "GET", "/v1/datasets")
        finally:
            conn.close()
    finally:
        workload.close()

    server_spans = program_span_totals(metrics["process"])
    tracer = Tracer()
    tracer.install()
    try:
        _counting_replay(workload)
    finally:
        tracer.remove()
    reduced = tracer.reduce()

    sessions = stats["executor"]["sessions"]
    requests = sum(session["stats"]["requests"] for session in sessions)
    hits = sum(session["stats"]["result_cache_hits"] for session in sessions)
    residency = next(entry["residency"] for entry in datasets["loaded"]
                     if entry["spec"].get("snapshot") == workload.spec["snapshot"])
    evaluates = [entry for entry in traced if entry[0] == "evaluate"]
    server_ms = [entry[2] for entry in evaluates]
    transport_ms = [1000.0 * entry[1] - entry[2] for entry in evaluates]
    latency_ms = sum(1000.0 * entry[1] for entry in traced)
    layers = {
        "matrix.patch_ms": program_mean_ms(
            server_spans, ["dataset.matrix_patch", "dataset.table_patch"],
            "dataset.matrix_patch"),
        "storage.load_ms": reduced.mean_self_ms(
            ["storage.load", "storage.load_matrix"], "storage.load"),
        "storage.table_open_ms": reduced.mean_self_ms(
            ["storage.table_open"], "storage.table_open"),
        "rules.count_ms": reduced.mean_self_ms(["rules.count"], "rules.count"),
        "api.mutate_ms": program_mean_ms(server_spans, ["dataset.mutate"], "dataset.mutate"),
        "api.cache_hit_ratio": hits / requests if requests else 0.0,
        "api.heap_mb": sum(stage["resident_bytes"] for stage in residency.values()) / 2**20,
        "service.server_ms": median(server_ms),
        "service.transport_ms": median(transport_ms),
        "service.wire_ms": _wire_replay(traced),
        # The server's own spans (server_time_ms) are the layer spans of a request.
        "trace.coverage_pct": 100.0 * sum(entry[2] for entry in traced) / latency_ms,
        "trace.overhead_ms": 1000.0 * (
            median(_latencies(traced, "evaluate")) - median(_latencies(plain, "evaluate"))),
    }
    info = {
        "untraced_requests": len(plain),
        "traced_requests": len(traced),
        "server_spans": {name: list(value) for name, value in sorted(server_spans.items())},
        "replay_self_ms_by_span": reduced.self_ms_by_span(),
    }
    return layers, info
