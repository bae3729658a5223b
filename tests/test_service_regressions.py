"""Regression tests for the service-tier hardening fixes.

Each class pins one bug the server used to ship:

* a mid-stream ``watch.poll()`` failure crashed the handler *after* the
  status line went out, making ``do_POST`` send a second response on the
  same connection (and counting the wreck as ``ok``);
* ``float("nan")`` timings slipped past the ``<= 0`` validation and a
  negative ``max_events`` terminated the stream after the first event;
* a ``Transfer-Encoding: chunked`` body was silently read as empty and
  surfaced as a misleading "needs a 'dataset' spec" 400;
* a ``Content-Length`` that was not a non-negative integer answered 500
  (or, for ``-1``, blocked the handler reading until EOF), and a huge one
  500 instead of 413;
* a body shorter than its ``Content-Length`` held a handler thread in
  ``rfile.read`` for as long as the client kept the connection open, and
  a client that then hung up got a 400 written into a dead socket (a
  ``BrokenPipeError`` traceback on stderr);
* the pool's ``close()`` called ``terminate()`` outright, killing
  in-flight jobs an orderly shutdown should have drained;
* a graceful ``close()`` could count a forced termination (and signal an
  already-reaped pid) when the collector thread reaped the drained worker
  first and ``is_alive()`` misread it as running.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.exceptions import RequestError
from repro.service import ElasticPoolExecutor, make_server
from repro.service import server as server_module
from repro.service.server import StructurednessService

WATCH_DATASET = {
    "ntriples": '<http://r/a> <http://r/p> "1" .\n'
                '<http://r/b> <http://r/p> "1" .\n',
    "name": "regression-watch",
}


@pytest.fixture
def live_server():
    """A fresh (function-scoped) server: these tests patch and break it."""
    server = make_server(host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.close()
    thread.join(timeout=5)


def _post(server, path, body, headers=None):
    data = json.dumps(body).encode()
    request = urllib.request.Request(
        server.url + path, data=data,
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _counters(server):
    with urllib.request.urlopen(server.url + "/v1/metrics", timeout=10) as response:
        return json.loads(response.read())


class TestWatchValidation:
    """NaN/inf timings and negative max_events are caller errors, not modes."""

    @pytest.mark.parametrize("field", ["duration_s", "poll_interval_s", "heartbeat_s"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0, 0])
    def test_nonfinite_and_nonpositive_timings_400(self, live_server, field, value):
        status, payload = _post(
            live_server, "/v1/watch", {"dataset": WATCH_DATASET, field: value}
        )
        assert status == 400 and payload["ok"] is False
        assert "positive finite" in payload["error"]["message"] or (
            # int/float coercion failures keep the older message shape
            "timing" in payload["error"]["message"]
        )

    def test_negative_max_events_400(self, live_server):
        status, payload = _post(
            live_server, "/v1/watch", {"dataset": WATCH_DATASET, "max_events": -1}
        )
        assert status == 400
        assert "max_events must be >= 0" in payload["error"]["message"]

    def test_service_level_rejects_nan_directly(self):
        # The validation lives in the service (shared by both transports).
        service = StructurednessService()
        try:
            with pytest.raises(RequestError, match="positive finite"):
                service.watch_session(
                    {"dataset": WATCH_DATASET, "duration_s": float("nan")}
                )
            assert math.isnan(float("nan"))  # the value under test really is NaN
        finally:
            service.close()


class TestChunkedBodies:
    """Chunked uploads get a clear 411 naming the encoding, not a bogus 400."""

    def test_chunked_transfer_encoding_is_named_in_a_411(self, live_server):
        host, port = live_server.url[len("http://"):].split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            body = json.dumps({"dataset": WATCH_DATASET})
            connection.putrequest("POST", "/v1/evaluate")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Transfer-Encoding", "chunked")
            connection.endheaders()
            chunk = body.encode()
            connection.send(b"%x\r\n%s\r\n0\r\n\r\n" % (len(chunk), chunk))
            response = connection.getresponse()
            payload = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 411
        assert payload["ok"] is False
        assert "Transfer-Encoding 'chunked' is not supported" in payload["error"]["message"]
        assert "Content-Length" in payload["error"]["message"]


def _post_with_length(server, content_length):
    """POST /v1/evaluate with a raw Content-Length header and no body."""
    host, port = server.url[len("http://"):].split(":")
    connection = http.client.HTTPConnection(host, int(port), timeout=10)
    try:
        connection.putrequest("POST", "/v1/evaluate")
        connection.putheader("Content-Type", "application/json")
        connection.putheader("Content-Length", content_length)
        connection.endheaders()
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class TestContentLength:
    """A bad Content-Length is the caller's 400 (or 413), never a 500 or a hang."""

    @pytest.mark.parametrize("value", ["abc", "-1", "1_0", "+5", "12x"])
    def test_non_integer_or_negative_is_400(self, live_server, value):
        status, payload = _post_with_length(live_server, value)
        assert status == 400
        assert payload["ok"] is False and payload["status"] == 400
        assert "non-negative integer" in payload["error"]["message"]

    def test_above_the_body_limit_is_413(self, live_server):
        status, payload = _post_with_length(live_server, "999999999999")
        assert status == 413
        assert payload["ok"] is False and payload["status"] == 413
        assert "exceeds" in payload["error"]["message"]


def _send_partial_body(server, declared, sent):
    """A raw POST whose body stops after ``sent`` of ``declared`` bytes."""
    host, port = server.url[len("http://"):].split(":")
    sock = socket.create_connection((host, int(port)), timeout=10)
    sock.sendall(
        b"POST /v1/evaluate HTTP/1.1\r\nHost: %s\r\n"
        b"Content-Type: application/json\r\nContent-Length: %d\r\n\r\n%s"
        % (host.encode(), declared, sent)
    )
    return sock


def _incomplete_bodies(server):
    return server.service.telemetry.snapshot()["counters"].get("http.incomplete_bodies", 0)


def _handler_threads():
    return sum(1 for t in threading.enumerate() if "process_request_thread" in t.name)


class TestIncompleteBodies:
    """A body that never fully arrives ends the connection, without a reply."""

    def test_short_body_then_hangup_is_dropped_without_a_traceback(self, live_server, capfd):
        sock = _send_partial_body(live_server, 100, b'{"dataset": ')
        sock.close()
        deadline = time.monotonic() + 10
        while _incomplete_bodies(live_server) < 1 and time.monotonic() < deadline:
            time.sleep(0.02)
        assert _incomplete_bodies(live_server) == 1
        assert live_server.service.counters["http_requests"] == 0  # no reply was sent
        assert "Traceback" not in capfd.readouterr().err

    def test_stalled_body_frees_its_thread_after_the_socket_timeout(
        self, live_server, monkeypatch
    ):
        monkeypatch.setattr(server_module._Handler, "timeout", 0.5)
        baseline = _handler_threads()
        started = time.monotonic()
        sock = _send_partial_body(live_server, 100, b'{"dataset": ')
        try:
            # The client keeps the connection open; the server gives up on
            # the body, closes its end and sends nothing.
            assert sock.recv(4096) == b""
        finally:
            sock.close()
        assert time.monotonic() - started < 5
        deadline = time.monotonic() + 5
        while _handler_threads() > baseline and time.monotonic() < deadline:
            time.sleep(0.02)
        assert _handler_threads() == baseline
        assert _incomplete_bodies(live_server) == 1


class _ExplodingWatch:
    """A watch whose poll dies after the stream is already on the wire."""

    def __init__(self):
        self.closed = False

    def poll(self):
        raise RuntimeError("shard table evaporated")

    def heartbeat(self):  # pragma: no cover - poll raises first
        raise AssertionError("heartbeat should not be reached")

    def close(self):
        self.closed = True


class TestWatchMidStreamFailure:
    """A poll failure after the headers frames a terminal error line."""

    def test_error_is_framed_as_terminal_jsonl_line(self, live_server):
        exploding = _ExplodingWatch()
        service = live_server.service
        original = service.watch_session
        params = {
            "max_events": 0, "duration_s": 10.0,
            "poll_interval_s": 0.01, "heartbeat_s": 2.0,
        }
        service.watch_session = lambda body: (exploding, params)
        try:
            request = urllib.request.Request(
                live_server.url + "/v1/watch",
                data=json.dumps({"dataset": WATCH_DATASET}).encode(),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                status = response.status
                lines = [json.loads(l) for l in response.read().decode().splitlines() if l]
        finally:
            service.watch_session = original
        # The status line was already committed as 200; the failure rides
        # inside the stream as its terminal line, then EOF — never a
        # second HTTP response on the same connection.
        assert status == 200
        assert len(lines) == 1
        [line] = lines
        assert line["kind"] == "error" and line["ok"] is False
        assert line["error"]["type"] == "RuntimeError"
        assert "shard table evaporated" in line["error"]["message"]
        assert exploding.closed  # the session is released even on failure

    def test_stream_failure_is_counted_as_an_error_response(self, live_server):
        service = live_server.service
        before_errors = service.counters["error_responses"]
        exploding = _ExplodingWatch()
        original = service.watch_session
        params = {
            "max_events": 0, "duration_s": 10.0,
            "poll_interval_s": 0.01, "heartbeat_s": 2.0,
        }
        service.watch_session = lambda body: (exploding, params)
        try:
            request = urllib.request.Request(
                live_server.url + "/v1/watch",
                data=json.dumps({"dataset": WATCH_DATASET}).encode(),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                response.read()
        finally:
            service.watch_session = original
        assert service.counters["error_responses"] == before_errors + 1
        assert service.telemetry.snapshot()["counters"]["watch.stream_errors"] >= 1


class TestWatchClientDisconnect:
    """A client hangup is a disconnect, not a successful response."""

    def test_disconnect_counts_as_error_not_ok(self, live_server):
        service = live_server.service
        before_ok = service.counters["ok_responses"]
        host, port = live_server.url[len("http://"):].split(":")
        body = json.dumps({
            "dataset": WATCH_DATASET, "duration_s": 20.0,
            "poll_interval_s": 0.02, "heartbeat_s": 0.05,
        }).encode()
        # A raw socket keeps the hangup under our control (http.client
        # detaches the fd once it sees Connection: close).
        sock = socket.create_connection((host, int(port)), timeout=10)
        try:
            sock.sendall(
                b"POST /v1/watch HTTP/1.1\r\n"
                b"Host: %s\r\nContent-Type: application/json\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (host.encode(), len(body), body)
            )
            first = sock.recv(4096)
            assert first.startswith(b"HTTP/1.1 200")
            # Hang up mid-stream: shutdown() sends the FIN immediately, so
            # the server's next heartbeat write hits a dead connection.
            sock.shutdown(socket.SHUT_RDWR)
        finally:
            sock.close()
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline:
            counters = service.telemetry.snapshot()["counters"]
            if counters.get("watch.client_disconnects", 0) >= 1:
                break
            time.sleep(0.05)
        counters = service.telemetry.snapshot()["counters"]
        assert counters.get("watch.client_disconnects", 0) >= 1
        # The aborted stream never lands in ok_responses.
        assert service.counters["ok_responses"] == before_ok


NT = '<http://r/a> <http://r/p> "1" .\n'


def _evaluate(dataset):
    return {"op": "evaluate", "dataset": dataset, "request": {"rule": "Cov"}}


def _feed_fifo(path, text, timeout=20.0):
    """Write ``text`` into the FIFO once its reader (a pool worker) opened it."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            fd = os.open(path, os.O_WRONLY | os.O_NONBLOCK)
            break
        except OSError:  # ENXIO: no reader yet
            if time.monotonic() > deadline:
                raise
            time.sleep(0.05)
    try:
        os.set_blocking(fd, True)
        os.write(fd, text.encode())
    finally:
        os.close(fd)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
class TestPoolShutdown:
    """close() drains in-flight work; terminate() is the last resort.

    A job reading its N-Triples from a named pipe stays in flight until
    the test writes the pipe, whichever process start method the pool uses.
    """

    def test_graceful_close_counts_no_forced_terminations(self):
        executor = ElasticPoolExecutor(workers=1, drain_timeout=5.0)
        assert executor.execute([_evaluate({"ntriples": NT, "name": "graceful"})])[0]["ok"]
        executor.close()
        counters = executor.telemetry.snapshot()["counters"]
        assert counters.get("scale.forced_terminations", 0) == 0
        assert executor.stats()["workers"] == 0

    def test_worker_reaped_by_the_collector_is_not_counted_as_stuck(self, monkeypatch):
        """close() and the collector thread both join a drained worker.

        Whichever reaps it first, the other's ``waitpid`` fails with ECHILD
        and ``is_alive()`` misreads the exited worker as running.  Slowing
        the step between reaping and recording the exit code widens that
        window from microseconds to 50 ms, so each close below hits it.
        """
        exit_code_of = os.waitstatus_to_exitcode

        def slow_exit_code_of(status):
            time.sleep(0.05)
            return exit_code_of(status)

        monkeypatch.setattr(os, "waitstatus_to_exitcode", slow_exit_code_of)
        for round_ in range(5):
            executor = ElasticPoolExecutor(workers=1, drain_timeout=5.0)
            name = f"reaped-{round_}"
            assert executor.execute([_evaluate({"ntriples": NT, "name": name})])[0]["ok"]
            executor.close()
            counters = executor.telemetry.snapshot()["counters"]
            assert counters.get("scale.forced_terminations", 0) == 0, round_
            assert counters["scale.worker_drains"] == 1

    def test_worker_stuck_past_drain_timeout_is_terminated(self, tmp_path):
        fifo = tmp_path / "never-written.nt"
        os.mkfifo(fifo)
        executor = ElasticPoolExecutor(workers=1, drain_timeout=0.5)
        outcome = []

        def run():
            try:
                outcome.append(executor.execute([_evaluate({"path": str(fifo)})]))
            except RuntimeError as error:
                outcome.append(error)

        caller = threading.Thread(target=run, daemon=True)
        caller.start()
        assert _wait_until(lambda: executor.stats()["backlog"] == 1)
        started = time.monotonic()
        executor.close()
        elapsed = time.monotonic() - started
        caller.join(timeout=10)
        assert not caller.is_alive()
        # Bounded by drain_timeout plus the terminate/join, not the stuck job.
        assert elapsed < 8, elapsed
        counters = executor.telemetry.snapshot()["counters"]
        assert counters["scale.forced_terminations"] == 1
        [error] = outcome  # the abandoned job fails instead of hanging its caller
        assert isinstance(error, RuntimeError) and "closed" in str(error)

    def test_in_flight_job_drains_before_close_returns(self, tmp_path):
        fifo = tmp_path / "slow.nt"
        os.mkfifo(fifo)
        executor = ElasticPoolExecutor(workers=1, drain_timeout=30.0)
        results = []
        caller = threading.Thread(
            target=lambda: results.append(
                executor.execute([_evaluate({"path": str(fifo), "name": "slow"})])
            ),
            daemon=True,
        )
        caller.start()
        assert _wait_until(lambda: executor.stats()["backlog"] == 1)
        closer = threading.Thread(target=executor.close, daemon=True)
        closer.start()
        time.sleep(0.3)
        assert closer.is_alive()  # close() waits for the in-flight job
        _feed_fifo(fifo, NT)
        closer.join(timeout=30)
        caller.join(timeout=30)
        assert not closer.is_alive() and not caller.is_alive()
        [[envelope]] = results
        assert envelope["ok"], envelope
        counters = executor.telemetry.snapshot()["counters"]
        assert counters.get("scale.forced_terminations", 0) == 0


def _wait_until(predicate, timeout=20.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()
