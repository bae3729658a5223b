"""A stdlib HTTP front-end over the batch executor.

Routes (all payloads JSON):

* ``POST /v1/evaluate`` / ``/v1/refine`` / ``/v1/lowest_k`` / ``/v1/sweep``
  — one wire request body (the ``op`` field is implied by the path); the
  request fields may be nested under ``"request"`` or spelled inline.
* ``POST /v1/mutate`` — apply a triple delta (``{"dataset": ...,
  "add": [[s, p, o], ...], "remove": [...]}``; literals spelled
  ``"\\"text\\""``) to the server's copy of the dataset.  Downstream
  matrix/signature artifacts are incrementally patched and session result
  caches invalidated; with ``--workers > 1`` the mutation is replayed
  into every pool worker's registry (via the executor's mutation log), so
  follow-up queries are consistent whichever worker serves them.  In a
  batch, a mutation acts as a barrier for its dataset: requests before
  it see the old graph, requests after it the new one (queries on other
  datasets are not serialised behind it).
* ``POST /v1/batch`` — ``{"requests": [...]}`` or a JSONL body
  (``Content-Type: application/x-ndjson``); responds with
  ``{"results": [one envelope per request, in order]}``.  With ``Accept:
  application/x-ndjson`` the envelopes stream instead, one JSON line each
  as the executor's waves resolve, and the connection closes to mark the
  end; the writes block on a slow client, which pauses the compute.
* ``GET /v1/datasets`` — built-in dataset names plus everything the
  server's registry has materialised (inline mode; with ``--workers > 1``
  the datasets live inside pool workers, so ``loaded`` stays empty).
* ``GET /v1/stats`` — server counters and the executor's stats.  In
  inline mode that includes one entry per session with its resolved
  solver backend and cache-hit/solver-call counts; in pooled mode the
  per-session detail lives in the workers and the stats report the
  pool-level view (worker count, jobs dispatched).
* ``GET /v1/metrics`` — a deterministic JSON snapshot of the
  observability spine: the request totals, the admission counters, the
  service's always-on telemetry (request totals, HTTP status counters,
  watch-stream counters), the process-wide
  :func:`repro.telemetry.current` spine (dataset builds/patches, solver
  spans, ... — populated when ``REPRO_TRACE`` is set) and, on an elastic
  pool, the pool's own telemetry (scale events, dispatched jobs).
* ``POST /v1/watch`` — a streaming JSONL watch over one dataset (inline
  servers only): ``{"dataset": ..., "rules": ["Cov"], "theta": "3/4",
  "max_events": 3, "duration_s": 10}``.  The response streams one JSON
  object per :class:`~repro.api.watch.WatchEvent` as mutations land
  (plus ``heartbeat`` lines while idle) until ``max_events`` events were
  sent or ``duration_s`` elapsed; the connection closes to mark the end
  of the stream.
* ``GET /healthz`` — liveness probe.

A client that stalls for 60 s in the middle of a request body (or
idles that long on a keep-alive connection) is disconnected; a body cut
short by a hangup or a stall gets no reply and is counted as
``http.incomplete_bodies``.

Every response envelope carries a per-request ``request_id`` (also the
``X-Request-Id`` header) and ``server_time_ms``; both live at the
envelope's top level, so the deterministic ``result`` payloads stay
bit-identical across transports.  4xx/5xx responses are counted in the
service telemetry even when the access log is quiet (``--verbose`` off).

Admission control: the compute routes (``POST /v1/batch`` and the op
routes) share ``pending_limit`` slots.  A request that finds them all
taken is refused at once with ``429`` + ``Retry-After: 1`` and a
``ServiceOverloaded`` envelope — overload is never queued without bound,
and an admitted request always runs to completion.  ``GET`` routes and
``/v1/watch`` bypass admission, so the service stays observable while
saturated; ``/v1/stats`` and ``/v1/metrics`` report the ``admission``
counters.

Malformed requests (unknown op/rule/dataset/solver, out-of-range θ or k)
map to structured ``400`` bodies via :func:`repro.service.wire.error_result`
— never a traceback; a ``Content-Length`` that is not a non-negative
integer is a ``400``, one above 64 MiB a ``413``, a ``Transfer-Encoding``
body a ``411``; unexpected failures map to ``500`` with the same shape.
The server is a ``ThreadingHTTPServer``: the locks on ``Dataset`` and
``StructurednessSession`` make concurrent requests against shared
sessions safe; with the inline executor, mutations of different datasets
run concurrently.
"""

from __future__ import annotations

import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Iterator, Optional, Tuple

from repro import __version__
from repro.api.dataset import builtin_dataset_names
from repro.exceptions import ReproError, RequestError
from repro.service.executor import BatchExecutor, create_executor
from repro.service.registry import DatasetSpec
from repro.service.wire import OPS, error_result, parse_request
from repro.telemetry import Telemetry, current as current_telemetry

__all__ = ["StructurednessService", "ServiceServer", "make_server", "serve"]

_JSON = "application/json"
_NDJSON = "application/x-ndjson"
#: Upper bound on accepted request bodies (inline N-Triples datasets are
#: the legitimate large payload; 64 MiB is far above every test corpus).
_MAX_BODY_BYTES = 64 * 1024 * 1024
#: Seconds any one read or write on a client socket may block.  A client
#: that stalls mid-body (or idles on a keep-alive connection) this long
#: is disconnected, so it cannot hold a handler thread forever.
_SOCKET_TIMEOUT_S = 60.0
#: The request totals kept on the service telemetry and served as the
#: ``server`` block of ``/v1/stats`` and ``/v1/metrics``.
_RESPONSE_COUNTERS = ("http_requests", "ok_responses", "error_responses")


class _BodyError(Exception):
    """A request body the server cannot read; carries its HTTP status.

    The body's framing is unknown (a bad ``Content-Length``, a
    ``Transfer-Encoding``) or it was left unread (too large), so the
    response also closes the connection.
    """

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class _ClientGone(Exception):
    """The client stopped sending its body (hung up early or stalled)."""


class StructurednessService:
    """The transport-independent request handling behind the HTTP routes."""

    def __init__(self, executor: Optional[BatchExecutor] = None, workers: int = 1,
                 solver_time_limit: Optional[float] = None, pending_limit: int = 64):
        if pending_limit < 1:
            raise ValueError(f"pending_limit must be >= 1, got {pending_limit}")
        self.executor = executor if executor is not None else create_executor(
            workers=workers, solver_time_limit=solver_time_limit
        )
        self._lock = threading.Lock()
        #: Admission control: one slot per admitted-but-unfinished compute
        #: request.  Acquired without blocking, so a full set of slots
        #: refuses the request instead of queueing it.
        self.pending_limit = pending_limit
        self._slots = threading.BoundedSemaphore(pending_limit)
        self._admission = {"pending": 0, "peak_pending": 0, "accepted": 0, "rejected": 0}
        #: Always-on service telemetry (independent of ``REPRO_TRACE``):
        #: request totals, HTTP status-class counters, access-log lines and
        #: watch-stream counters land here so 4xx/5xx are observable even
        #: when the access log is quiet.  Served by ``GET /v1/metrics``.
        self.telemetry = Telemetry()
        for counter in _RESPONSE_COUNTERS:
            self.telemetry.incr(counter, 0)
        self._request_seq = 0

    @property
    def counters(self) -> Dict[str, int]:
        """The request totals: the ``server`` block of ``/v1/stats`` and ``/v1/metrics``."""
        counters = self.telemetry.counters()
        return {name: counters[name] for name in _RESPONSE_COUNTERS}

    def admit(self) -> bool:
        """Take a compute slot; False (counted as rejected) when none is free."""
        admitted = self._slots.acquire(blocking=False)
        with self._lock:
            counts = self._admission
            if admitted:
                counts["pending"] += 1
                counts["accepted"] += 1
                counts["peak_pending"] = max(counts["peak_pending"], counts["pending"])
            else:
                counts["rejected"] += 1
        return admitted

    def release(self) -> None:
        """Return the slot an :meth:`admit` call took."""
        with self._lock:
            self._admission["pending"] -= 1
        self._slots.release()

    def admission_snapshot(self) -> Dict[str, int]:
        """The admission counters served in ``/v1/stats`` and ``/v1/metrics``."""
        with self._lock:
            return dict(self._admission, pending_limit=self.pending_limit)

    def next_request_id(self) -> str:
        """A fresh, monotonically increasing per-server request id."""
        with self._lock:
            self._request_seq += 1
            return f"req-{self._request_seq:08d}"

    # ------------------------------------------------------------------ #
    # Route handlers: each returns (http_status, payload dict)
    # ------------------------------------------------------------------ #
    def handle_op(self, op: str, body: Dict[str, object]) -> Tuple[int, Dict[str, object]]:
        """One single-op POST: run the request and unwrap its envelope."""
        try:
            request = parse_request(dict(body, op=op))
        except ReproError as error:
            return 400, error_result(error)
        envelope = self.executor.execute([request])[0]
        status = 200 if envelope.get("ok") else int(envelope.get("status", 500))
        return status, envelope

    @staticmethod
    def batch_requests(body: object, ndjson: bool = False) -> list:
        """The raw request list of a batch body (JSONL text or a JSON object).

        Both spellings have identical semantics: a request that fails to
        parse (one NDJSON line, one list element) later yields an error
        envelope in its slot — it never poisons the rest of the batch.
        Raises :class:`~repro.exceptions.RequestError` for a body that is
        not a batch at all.
        """
        if ndjson:
            text = body if isinstance(body, str) else ""
            return [
                line for line in (raw.strip() for raw in text.splitlines())
                if line and not line.startswith("#")
            ]
        if not isinstance(body, dict) or not isinstance(body.get("requests"), list):
            raise RequestError("a batch body must be {'requests': [...]} or JSONL")
        return list(body["requests"])

    def handle_batch(self, body: object, ndjson: bool = False) -> Tuple[int, Dict[str, object]]:
        """A whole batch; per-request failures stay inside their envelope."""
        try:
            envelopes = self.executor.execute(self.batch_requests(body, ndjson))
        except ReproError as error:
            return 400, error_result(error)
        return 200, {"ok": True, "count": len(envelopes), "results": envelopes}

    def handle_datasets(self) -> Tuple[int, Dict[str, object]]:
        """``GET /v1/datasets``: builtin names + the registry inventory.

        Registry entries carry spec, name, generation and — for datasets
        reopened from a snapshot — the snapshot path and format version.
        """
        payload: Dict[str, object] = {"builtin": list(builtin_dataset_names())}
        registry = getattr(self.executor, "registry", None)
        payload["loaded"] = registry.describe() if registry is not None else []
        return 200, payload

    def handle_stats(self) -> Tuple[int, Dict[str, object]]:
        """``GET /v1/stats``: HTTP and admission counters plus the executor's stats."""
        return 200, {
            "server": self.counters,
            "admission": self.admission_snapshot(),
            "executor": self.executor.stats(),
        }

    def handle_metrics(self) -> Tuple[int, Dict[str, object]]:
        """``GET /v1/metrics``: the observability spine as deterministic JSON.

        ``server`` holds the request totals, ``admission`` the admission
        counters, ``service`` the always-on service telemetry snapshot
        (request totals included), ``process`` the process-wide
        :func:`repro.telemetry.current` spine (disabled and empty unless
        ``REPRO_TRACE`` is set or a library caller enabled it) and, on an
        elastic pool, ``executor`` the pool's own telemetry.  Key order
        is stable and sorted; only the recorded wall-clock values vary
        between runs.
        """
        payload: Dict[str, object] = {
            "server": self.counters,
            "admission": self.admission_snapshot(),
            "service": self.telemetry.snapshot(),
            "process": current_telemetry().snapshot(),
        }
        # Executors with their own always-on telemetry (the elastic pool's
        # scale.worker_boots / pool.jobs_dispatched / ...) surface it here,
        # so worker lifecycle is observable over plain GET /v1/metrics.
        executor_telemetry = getattr(self.executor, "telemetry", None)
        if executor_telemetry is not None:
            payload["executor"] = executor_telemetry.snapshot()
        return 200, payload

    def watch_session(self, body: object):
        """Build the watch behind ``POST /v1/watch``: ``(WatchSession, params)``.

        Validates the body and resolves the dataset through the inline
        executor's registry — the same handles ``/v1/mutate`` patches, so
        streamed events reflect mutations sent over sibling connections.
        Raises :class:`~repro.exceptions.RequestError` on a pooled
        executor (the datasets live inside worker processes where no
        streaming thread can observe them) and for malformed bodies.
        """
        from repro.api.watch import WatchSession

        registry = getattr(self.executor, "registry", None)
        if registry is None:
            raise RequestError(
                "watch requires an inline server (workers=1); with a worker pool "
                "the datasets live inside the pool processes"
            )
        if not isinstance(body, dict):
            raise RequestError("the watch body must be a JSON object")
        if "dataset" not in body:
            raise RequestError("a watch body needs a 'dataset' spec")
        known = {
            "dataset", "rules", "theta",
            "max_events", "duration_s", "poll_interval_s", "heartbeat_s",
        }
        unknown = set(body) - known
        if unknown:
            raise RequestError(f"unknown watch fields {sorted(unknown)}")
        rules = body["rules"] if body.get("rules") is not None else ["Cov"]
        if not isinstance(rules, (list, tuple)) or not rules:
            raise RequestError("rules must be a non-empty list of rule specs")

        def _timing(field: str, default: float) -> float:
            # Explicit zeros must reach the positivity check below — an
            # ``or default`` would silently turn them into the default.
            value = body.get(field)
            return default if value is None else float(value)

        try:
            params = {
                "max_events": int(_timing("max_events", 0)),
                "duration_s": _timing("duration_s", 10.0),
                "poll_interval_s": _timing("poll_interval_s", 0.05),
                "heartbeat_s": _timing("heartbeat_s", 2.0),
            }
        except (TypeError, ValueError, OverflowError) as error:
            raise RequestError(f"invalid watch timing field: {error}") from None
        if params["max_events"] < 0:
            raise RequestError(
                f"max_events must be >= 0 (0 streams until the deadline), "
                f"got {params['max_events']}"
            )
        for field in ("duration_s", "poll_interval_s", "heartbeat_s"):
            value = params[field]
            # NaN slips through a plain `<= 0` (every comparison against
            # NaN is false) and the stream would then exit instantly
            # because `time.monotonic() < deadline` is false too; +inf
            # would never terminate.  Both are caller mistakes.
            if not math.isfinite(value) or value <= 0:
                raise RequestError(
                    f"watch durations and intervals must be positive finite "
                    f"numbers, got {field}={value!r}"
                )
        dataset = registry.get(DatasetSpec.from_dict(body["dataset"]))
        watch = WatchSession(dataset, tuple(rules), theta=body.get("theta"))
        return watch, params

    def close(self) -> None:
        """Shut the underlying executor down."""
        self.executor.close()


class _Handler(BaseHTTPRequestHandler):
    # Derived from the package version so releases cannot drift it.
    server_version = f"repro-structuredness/{'.'.join(__version__.split('.')[:2])}"
    protocol_version = "HTTP/1.1"
    timeout = _SOCKET_TIMEOUT_S

    @property
    def service(self) -> StructurednessService:
        return self.server.service  # type: ignore[attr-defined]

    def _begin_request(self) -> None:
        """Stamp the request with its id and start time (once per request)."""
        self._request_id = self.service.next_request_id()
        self._started = time.perf_counter()
        # Set once a status line has been sent: after that point an error
        # must never try to send a second response on the same connection.
        self._response_started = False

    def log_message(self, format: str, *args) -> None:
        # The access log is *always* routed through the service telemetry
        # (so quiet servers still count their traffic); printing to stderr
        # stays opt-in via --verbose.  Request ids make lines greppable
        # against the envelopes clients saw.
        self.service.telemetry.incr("http.access_log_lines")
        if getattr(self.server, "verbose", False):  # pragma: no cover
            request_id = getattr(self, "_request_id", "-")
            super().log_message(f"[{request_id}] {format}", *args)

    def _respond(
        self, status: int, payload: Dict[str, object],
        headers: Tuple[Tuple[str, str], ...] = (),
    ) -> None:
        request_id = getattr(self, "_request_id", None) or self.service.next_request_id()
        started = getattr(self, "_started", None)
        elapsed_ms = (
            round((time.perf_counter() - started) * 1000.0, 3) if started is not None else 0.0
        )
        payload = dict(payload, request_id=request_id, server_time_ms=elapsed_ms)
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._response_started = True
        self.send_response(status)
        self.send_header("Content-Type", _JSON)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("X-Request-Id", request_id)
        for name, value in headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)
        # Counted here unconditionally, so 4xx/5xx are seen even when the
        # access log is quiet (--verbose off).
        telemetry = self.service.telemetry
        telemetry.incr("http_requests")
        telemetry.incr("ok_responses" if 200 <= status < 400 else "error_responses")
        telemetry.incr(f"http.status.{status // 100}xx")

    def _read_body(self) -> bytes:
        # A chunked request carries no Content-Length; silently reading an
        # empty body here used to surface as a misleading "needs a
        # 'dataset' spec" 400.  Name the unsupported encoding instead.
        encoding = (self.headers.get("Transfer-Encoding") or "").strip().lower()
        if encoding:
            raise _BodyError(
                411,
                f"Transfer-Encoding {encoding!r} is not supported; "
                "send the body with a Content-Length header",
            )
        text = (self.headers.get("Content-Length") or "0").strip()
        # isdigit() alone would pass non-ASCII digits that int() rejects;
        # int() alone would pass "-1" (a read until EOF) and "1_0".
        if not (text.isascii() and text.isdigit()):
            raise _BodyError(400, f"Content-Length must be a non-negative integer, got {text!r}")
        length = int(text)
        if length > _MAX_BODY_BYTES:
            raise _BodyError(
                413, f"request body of {length} bytes exceeds the {_MAX_BODY_BYTES}-byte limit"
            )
        try:
            body = self.rfile.read(length) if length else b""
        except (TimeoutError, ConnectionError):
            raise _ClientGone() from None
        if len(body) < length:
            raise _ClientGone()
        return body

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        self._begin_request()
        if self.path == "/v1/datasets":
            self._respond(*self.service.handle_datasets())
        elif self.path == "/v1/stats":
            self._respond(*self.service.handle_stats())
        elif self.path == "/v1/metrics":
            self._respond(*self.service.handle_metrics())
        elif self.path == "/healthz":
            self._respond(200, {"ok": True})
        else:
            self._respond(404, {"ok": False, "error": {"type": "NotFound", "message": self.path}})

    def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
        self._begin_request()
        try:
            # The body is read before any answer, 429 included: an unread
            # body would be parsed as the next request on a keep-alive
            # connection.
            raw = self._read_body()
            route = self.path[len("/v1/"):] if self.path.startswith("/v1/") else ""
            if route == "watch":
                self._stream_watch(json.loads(raw or b"{}"))
            elif route == "batch" or route in OPS:
                if not self.service.admit():
                    self._respond(429, {
                        "ok": False,
                        "status": 429,
                        "error": {
                            "type": "ServiceOverloaded",
                            "message": (
                                f"all {self.service.pending_limit} request slots are "
                                "busy; retry after 1s"
                            ),
                        },
                    }, headers=(("Retry-After", "1"),))
                    return
                try:
                    self._compute(route, raw)
                finally:
                    self.service.release()
            else:
                self._respond(
                    404, {"ok": False, "error": {"type": "NotFound", "message": self.path}}
                )
        except _ClientGone:
            # Nobody is left to read a reply: drop the connection quietly.
            self.close_connection = True
            self.service.telemetry.incr("http.incomplete_bodies")
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            self._respond(400, error_result(RequestError(f"body is not valid JSON: {error}")))
        except _BodyError as error:
            self.close_connection = True
            self._respond(
                error.status, dict(error_result(RequestError(str(error))), status=error.status)
            )
        except ReproError as error:
            self._respond(400, error_result(error))
        except Exception as error:  # pragma: no cover - defensive 500
            if self._response_started:
                # The status line is gone (a streaming route failed after
                # its headers); a second send_response would corrupt the
                # connection.  The streaming routes already framed their
                # own terminal error, so there is nothing left to send.
                return
            self._respond(500, error_result(error))

    def _compute(self, route: str, raw: bytes) -> None:
        """An admitted compute route: ``/v1/batch`` or one op."""
        content_type = (self.headers.get("Content-Type") or _JSON).split(";")[0].strip()
        ndjson = content_type in (_NDJSON, "application/jsonl", "text/plain")
        if route == "batch":
            body = raw.decode("utf-8") if ndjson else json.loads(raw or b"{}")
            if _NDJSON in (self.headers.get("Accept") or ""):
                requests = self.service.batch_requests(body, ndjson)  # RequestError -> 400
                self._stream(self.service.executor.execute_stream(requests), "batch")
            else:
                self._respond(*self.service.handle_batch(body, ndjson=ndjson))
            return
        body = json.loads(raw or b"{}")
        if not isinstance(body, dict):
            raise RequestError("the request body must be a JSON object")
        self._respond(*self.service.handle_op(route, body))

    def _stream_watch(self, body: object) -> None:
        """``POST /v1/watch``: stream JSONL WatchEvents until done.

        The stream ends when ``max_events`` events were streamed or
        ``duration_s`` elapsed.  Heartbeat lines keep the stream visibly
        alive between mutations.  Setup errors (bad body, pooled executor)
        surface as normal 400 envelopes before any streaming starts.
        """
        watch, params = self.service.watch_session(body)  # ReproError -> 400 upstream
        self.service.telemetry.incr("watch.streams")
        self._stream(self._watch_events(watch, params), "watch")

    def _watch_events(self, watch, params: Dict[str, float]) -> Iterator[Dict[str, object]]:
        """The event lines of one watch stream; closes the watch when done."""
        telemetry = self.service.telemetry
        deadline = time.monotonic() + params["duration_s"]
        last_line = time.monotonic()
        sent = 0
        try:
            while time.monotonic() < deadline:
                for event in watch.poll():
                    yield dict(event.to_dict(), request_id=self._request_id)
                    telemetry.incr("watch.events_streamed")
                    sent += 1
                    last_line = time.monotonic()
                    if params["max_events"] and sent >= params["max_events"]:
                        return
                now = time.monotonic()
                if now - last_line >= params["heartbeat_s"]:
                    yield dict(watch.heartbeat().to_dict(), request_id=self._request_id)
                    last_line = now
                time.sleep(min(params["poll_interval_s"], max(0.0, deadline - now)))
        finally:
            watch.close()

    def _stream(self, lines: Iterator[Dict[str, object]], kind: str) -> None:
        """Send a 200 JSONL response, one line per item of ``lines``.

        The response has no Content-Length: the connection closes when
        ``lines`` is exhausted, which is how JSONL consumers detect the
        end.  Every line is a blocking write, so a slow reader pauses
        whatever produces ``lines``; a reader stalled past the socket
        timeout counts as a disconnect.  The 200 is counted in
        ``http.status.2xx`` as soon as it is sent.  A failure *after* the headers went
        out is framed as a terminal ``{"kind": "error", ...}`` line (the
        HTTP status is already on the wire, so a 500 envelope would
        corrupt the response); ``kind`` names the telemetry counters
        (``<kind>.client_disconnects``, ``<kind>.stream_errors``).
        """
        telemetry = self.service.telemetry
        self._response_started = True
        self.send_response(200)
        self.send_header("Content-Type", _NDJSON)
        self.send_header("X-Request-Id", self._request_id)
        self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True
        telemetry.incr("http.status.2xx")
        ok = True
        try:
            for line in lines:
                self._write_line(line)
        except (BrokenPipeError, ConnectionResetError, TimeoutError):  # client gone
            ok = False
            telemetry.incr(f"{kind}.client_disconnects")
        except Exception as error:
            ok = False
            telemetry.incr(f"{kind}.stream_errors")
            try:
                self._write_line(
                    dict(error_result(error), kind="error", request_id=self._request_id)
                )
            except OSError:
                pass
        finally:
            close = getattr(lines, "close", None)
            if close is not None:
                close()  # runs the producer's cleanup after a hangup
            telemetry.incr("http_requests")
            telemetry.incr("ok_responses" if ok else "error_responses")

    def _write_line(self, payload: Dict[str, object]) -> None:
        self.wfile.write((json.dumps(payload, sort_keys=True) + "\n").encode("utf-8"))
        self.wfile.flush()


class ServiceServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`StructurednessService`."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], service: StructurednessService,
                 verbose: bool = False):
        super().__init__(address, _Handler)
        self.service = service
        self.verbose = verbose

    @property
    def url(self) -> str:
        """The server's base URL (useful with ``port=0`` ephemeral binds)."""
        host, port = self.server_address[0], self.server_address[1]
        return f"http://{host}:{port}"

    def close(self) -> None:
        """Stop serving, release the socket and close the service."""
        self.shutdown()
        self.server_close()
        self.service.close()


def make_server(
    host: str = "127.0.0.1",
    port: int = 0,
    workers: int = 1,
    solver_time_limit: Optional[float] = None,
    executor: Optional[BatchExecutor] = None,
    verbose: bool = False,
    pending_limit: int = 64,
) -> ServiceServer:
    """Bind a service server (``port=0`` picks an ephemeral free port).

    ``workers`` sizes the executor exactly as
    :func:`repro.service.executor.create_executor` does (ignored when an
    ``executor`` is passed).  ``pending_limit`` bounds the admitted
    compute requests; the next one gets ``429``.
    """
    if executor is None:
        executor = create_executor(workers=workers, solver_time_limit=solver_time_limit)
    service = StructurednessService(executor=executor, pending_limit=pending_limit)
    return ServiceServer((host, port), service, verbose=verbose)


def serve(
    host: str = "127.0.0.1",
    port: int = 8080,
    workers: int = 1,
    solver_time_limit: Optional[float] = None,
    verbose: bool = False,
    pending_limit: int = 64,
) -> int:
    """Run the HTTP service until interrupted (the ``repro serve`` command)."""
    server = make_server(
        host, port, workers=workers, solver_time_limit=solver_time_limit, verbose=verbose,
        pending_limit=pending_limit,
    )
    print(f"repro service listening on {server.url}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        server.server_close()
        server.service.close()
    return 0
