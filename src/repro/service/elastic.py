"""The multiprocessing worker pool: fixed-size or autoscaling on queue depth.

:class:`ElasticPoolExecutor` fans batch groups out over long-lived worker
processes.  Each worker holds one
:class:`~repro.service.executor.InlineExecutor` — and through it a
:class:`~repro.service.registry.DatasetRegistry` plus a session cache —
kept for the worker's lifetime.  A job is one batch *group* (requests
sharing a dataset, rule and solver); the graph → matrix → signature-table
chain for a dataset is therefore built at most once per worker, and jobs
only ship scalar data across the process boundary: wire dicts out,
result envelopes back.

The worker count lies between ``min_workers`` and ``max_workers``; with
the two equal (``repro serve --workers N``) the pool is a fixed-size
pool.  Above the floor, a scaler thread watches the backlog of
unfinished jobs and

* **scales up** towards ``max_workers`` whenever jobs are queued faster
  than the live workers drain them, and
* **scales down** towards ``min_workers`` by sending a *drain* sentinel
  once the pool has been idle for ``idle_timeout_s`` — a worker that
  reads the sentinel finishes whatever job it is on, acknowledges, and
  exits cleanly (exit code 0, never a terminate).

Elasticity is practical because worker boot is nearly free when dataset
specs are snapshot-backed: a fresh worker's registry reopens the
persisted artifact chain via ``{"snapshot": path}`` specs in ~0.1 s
instead of re-parsing and rebuilding, so spawning for a traffic burst and
draining afterwards costs almost nothing.

Determinism: a group always runs in submission order inside one worker's
session, exactly as :class:`InlineExecutor` runs it in-process, so pooled
payloads are bit-identical to inline payloads — only wall-clock changes.

Mutations: the executor keeps an ordered *mutation log* (one entry per
graph-changing ``mutate`` request).  Workers are anonymous and pull jobs
off one shared queue — a job cannot be addressed to a specific process —
so instead of broadcasting eagerly, every job ships the ``(seq, wire
dict)`` history and a worker replays the entries it has not folded yet
before touching the job (:func:`_apply_job`).  Dataset state in a worker
is therefore always the fold of the same mutation sequence the inline
executor applied, whichever — and however many — workers served it, and
a worker booted mid-traffic converges before it takes work.

Deliberate trade-off: the full log ships with every job (the executor
cannot know which entries a given worker still needs), making per-job
overhead linear in the number of mutations applied over the pool's
lifetime.  Mutations are the rare operation in this workload and a log
entry is a small wire dict; a mutation-heavy deployment should recycle
the executor periodically or shard datasets across executors.

Known corner of the bit-identity invariant: the ``cached`` flag (only)
of a refinement repeated *within one batch* across a **no-op** mutation
of its own dataset is worker-placement-dependent — the repeat lands in
a later wave whose job may reach a worker with a cold session cache,
while the inline executor's single warm session reports ``cached:
true`` (a graph-changing mutation invalidates both sides identically,
so only no-op mutations expose this).  Every other payload field stays
bit-identical; exact parity here needs addressable workers (consistent
group→worker routing), which one shared job queue cannot express.

Scale events are counted in the executor's always-on
:class:`~repro.telemetry.Telemetry` (``scale.up`` / ``scale.down`` /
``scale.worker_boots`` / ``scale.worker_drains``), mirrored into the
process spine, reported by :meth:`ElasticPoolExecutor.stats` and served
over ``GET /v1/metrics``.

:meth:`close` is graceful by construction: drain sentinels queue
*behind* any in-flight jobs, so accepted work completes before the
workers exit; only workers that overrun ``drain_timeout`` are escalated
to ``terminate()`` (counted as ``scale.forced_terminations``).
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import threading
import time
from concurrent.futures import Future
from typing import Dict, List, Optional, Tuple

from repro.service.executor import BatchExecutor, BatchGroup, InlineExecutor
from repro.service.wire import ServiceRequest, parse_request
from repro.telemetry import Telemetry, current as current_telemetry

__all__ = ["ElasticPoolExecutor"]

#: Sentinel a worker interprets as "finish the current job, then exit".
_DRAIN = None


def _apply_job(
    executor: InlineExecutor, applied_seq: int, payload: Dict[str, object]
) -> Tuple[List[Dict[str, object]], int]:
    """Catch up on the mutation log, then run one group on ``executor``.

    ``payload`` carries the group's wire dicts plus the mutation log as
    ``(seq, wire dict)`` pairs; entries with a sequence number beyond
    ``applied_seq`` are replayed into the executor's registry (their
    envelopes are discarded — the phase that originated a mutation
    already produced its envelope).  ``payload["applied_seq"]`` marks the
    group itself as a mutation so the executing worker does not replay it
    again later: replaying a remove-then-insert of the same triple twice
    would count spurious changes and skew the generation counter.

    Returns ``(result envelopes, new applied_seq)``.
    """
    for seq, mutation in payload.get("mutations", ()):
        if seq > applied_seq:
            [replayed] = executor.run_group([parse_request(mutation)])
            if not replayed.get("ok"):
                # Only environmental failures can land here (the original
                # mutation succeeded elsewhere, and validated mutations are
                # total): fail the job loudly rather than skip the entry —
                # a worker that silently misses a mutation would serve
                # diverging answers forever.
                raise RuntimeError(
                    f"pool worker failed to replay mutation #{seq}: "
                    f"{replayed.get('error')}"
                )
            applied_seq = seq
    results = executor.run_group([parse_request(d) for d in payload["requests"]])
    applied = payload.get("applied_seq")
    if applied is not None:
        applied_seq = max(applied_seq, applied)
    return results, applied_seq


def _has_exited(process: multiprocessing.Process) -> bool:
    """Whether ``process`` has exited, whichever thread reaped it.

    ``is_alive()`` cannot answer this while another thread joins the same
    process (the collector joins every drained worker): when that thread's
    ``waitpid`` reaps the child first, this thread's fails with ECHILD and
    ``is_alive()`` reports the finished worker as running.  The sentinel
    pipe becomes readable once the child exits, whoever reaps it.
    """
    return bool(multiprocessing.connection.wait([process.sentinel], timeout=0))


def _elastic_worker_main(
    inbound, outbound, worker_id: int, solver_time_limit: Optional[float]
) -> None:
    """Worker process body: boot an inline engine, serve jobs until drained.

    Exceptions never escape a job — they come back as ``("error", job_id,
    message)`` tuples so the parent can resolve the job's future instead
    of hanging on a silently dead worker.  A parent that dies without
    draining (SIGTERM, SIGKILL) ends the worker too: the worker closes its
    inherited copy of the job queue's write end, so with the parent gone
    no writer is left and ``get()`` raises instead of blocking forever.
    """
    inbound._writer.close()
    executor = InlineExecutor(solver_time_limit=solver_time_limit)
    applied_seq = 0
    outbound.put(("ready", worker_id, None))
    while True:
        try:
            item = inbound.get()
        except (EOFError, OSError):  # the parent is gone
            return
        if item is _DRAIN:
            outbound.put(("drained", worker_id, None))
            return
        job_id, payload = item
        try:
            results, applied_seq = _apply_job(executor, applied_seq, payload)
            outbound.put(("result", job_id, results))
        except BaseException as error:  # noqa: BLE001 - must answer the job
            outbound.put(("error", job_id, f"{type(error).__name__}: {error}"))


class ElasticPoolExecutor(BatchExecutor):
    """A worker pool that autoscales between ``min_workers`` and ``max_workers``.

    Parameters
    ----------
    min_workers:
        The floor: the pool never drains below this many workers (booted
        lazily on first use).
    max_workers:
        The ceiling the scaler may grow to under backlog; equal to
        ``min_workers`` for a fixed-size pool (no scaler thread runs).
    solver_time_limit:
        Forwarded to every worker's session construction.
    start_method:
        A :mod:`multiprocessing` start method or ``None`` for the
        platform default (``fork`` boots fastest where available).
    idle_timeout_s:
        How long the pool must be completely idle before one surplus
        worker is asked to drain (one per interval, so scale-down is
        gradual).
    scale_interval_s:
        The scaler thread's decision cadence.
    drain_timeout:
        Seconds :meth:`close` waits for a graceful worker exit before
        escalating to ``terminate()``.
    """

    def __init__(
        self,
        min_workers: int = 1,
        max_workers: int = 4,
        solver_time_limit: Optional[float] = None,
        start_method: Optional[str] = None,
        idle_timeout_s: float = 2.0,
        scale_interval_s: float = 0.02,
        drain_timeout: float = 10.0,
    ):
        if min_workers < 1:
            raise ValueError(f"min_workers must be >= 1, got {min_workers}")
        if max_workers < min_workers:
            raise ValueError(
                f"max_workers must be >= min_workers, got {max_workers} < {min_workers}"
            )
        self.min_workers = min_workers
        self.max_workers = max_workers
        self._solver_time_limit = solver_time_limit
        self._idle_timeout_s = idle_timeout_s
        self._scale_interval_s = scale_interval_s
        self._drain_timeout = drain_timeout
        self._context = (
            multiprocessing.get_context(start_method)
            if start_method
            else multiprocessing.get_context()
        )
        #: Always-on scale/lifecycle telemetry, served via ``/v1/metrics``.
        self.telemetry = Telemetry(enabled=True)
        # Guards every piece of mutable pool state below.
        self._lock = threading.Lock()
        # Serialises whole mutations (seq allocation → worker apply → log
        # append).  Without it, two concurrent mutations could append to
        # the log in completion order rather than sequence order, and a
        # worker that replays the higher sequence first would skip the
        # lower one forever — workers would silently diverge.
        self._mutation_lock = threading.Lock()
        self._mutation_log: List[Tuple[int, Dict[str, object]]] = []
        self._mutation_seq = 0
        self._started = False
        self._closing = False
        self._inbound = None
        self._outbound = None
        self._workers: Dict[int, multiprocessing.Process] = {}
        self._worker_seq = 0
        self._draining = 0
        self._futures: Dict[int, Future] = {}
        self._job_seq = 0
        self._jobs_dispatched = 0
        self._last_busy = time.monotonic()
        self._peak_workers = 0
        self._scale_up_events = 0
        self._scale_down_events = 0
        self._collector: Optional[threading.Thread] = None
        self._scaler: Optional[threading.Thread] = None
        self._scaler_stop = threading.Event()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def _ensure_started(self) -> None:
        with self._lock:
            if self._started:
                return
            self._started = True
            self._closing = False
            self._scaler_stop.clear()
            self._inbound = self._context.Queue()
            self._outbound = self._context.Queue()
            self._collector = threading.Thread(
                target=self._collect, name="elastic-collector", daemon=True
            )
            self._collector.start()
            if self.max_workers > self.min_workers:
                self._scaler = threading.Thread(
                    target=self._autoscale, name="elastic-scaler", daemon=True
                )
                self._scaler.start()
            for _ in range(self.min_workers):
                self._spawn_locked()

    def _spawn_locked(self) -> None:
        """Boot one worker (caller holds ``self._lock``)."""
        self._worker_seq += 1
        worker_id = self._worker_seq
        process = self._context.Process(
            target=_elastic_worker_main,
            args=(self._inbound, self._outbound, worker_id, self._solver_time_limit),
            name=f"repro-elastic-{worker_id}",
            daemon=True,
        )
        process.start()
        self._workers[worker_id] = process
        self._peak_workers = max(self._peak_workers, len(self._workers))
        self.telemetry.incr("scale.worker_boots")
        current_telemetry().incr("scale.worker_boots")

    def _collect(self) -> None:
        """Route worker answers to futures; account for drained workers."""
        while True:
            kind, key, value = self._outbound.get()
            if kind == "stop":
                return
            if kind == "ready":
                self.telemetry.incr("scale.workers_ready")
                continue
            if kind == "drained":
                with self._lock:
                    process = self._workers.pop(key, None)
                    self._draining = max(0, self._draining - 1)
                if process is not None:
                    process.join(timeout=5)
                self.telemetry.incr("scale.worker_drains")
                current_telemetry().incr("scale.worker_drains")
                continue
            with self._lock:
                future = self._futures.pop(key, None)
                self._last_busy = time.monotonic()
            if future is None:  # pragma: no cover - job raced with close()
                continue
            if kind == "result":
                future.set_result(value)
            else:
                future.set_exception(RuntimeError(f"elastic worker failed: {value}"))

    def _autoscale(self) -> None:
        """The scaler loop: grow on backlog, drain one worker per idle window."""
        while not self._scaler_stop.wait(self._scale_interval_s):
            with self._lock:
                if not self._started or self._closing:
                    continue
                backlog = len(self._futures)
                effective = len(self._workers) - self._draining
                if backlog > effective and effective < self.max_workers:
                    spawn = min(backlog, self.max_workers) - effective
                    for _ in range(spawn):
                        self._spawn_locked()
                    self._scale_up_events += 1
                    self.telemetry.incr("scale.up")
                    current_telemetry().incr("scale.up")
                elif (
                    backlog == 0
                    and effective > self.min_workers
                    and time.monotonic() - self._last_busy >= self._idle_timeout_s
                ):
                    # One drain per idle window: gradual, never below min.
                    self._inbound.put(_DRAIN)
                    self._draining += 1
                    self._last_busy = time.monotonic()
                    self._scale_down_events += 1
                    self.telemetry.incr("scale.down")
                    current_telemetry().incr("scale.down")

    # ------------------------------------------------------------------ #
    # Job submission
    # ------------------------------------------------------------------ #
    def _submit(self, payload: Dict[str, object]) -> Future:
        future: Future = Future()
        with self._lock:
            self._job_seq += 1
            job_id = self._job_seq
            self._futures[job_id] = future
            self._jobs_dispatched += 1
            self._last_busy = time.monotonic()
        self._inbound.put((job_id, payload))
        return future

    def _execute_groups(self, groups: List[BatchGroup]) -> List[List[Dict[str, object]]]:
        if not groups:
            return []
        self._ensure_started()
        with self._lock:
            log = list(self._mutation_log)
        telemetry = current_telemetry()
        telemetry.incr("pool.round_trips", len(groups))
        with telemetry.span("pool.map"):
            futures = [
                self._submit({
                    "mutations": log,
                    "requests": [request.to_dict() for request in group.requests],
                })
                for group in groups
            ]
            return [future.result() for future in futures]

    def _execute_mutation(self, request: ServiceRequest) -> Dict[str, object]:
        """Run a mutation on one worker and append it to the shared log.

        The executing worker catches up on the prior log, applies the
        mutation, marks it applied; every other worker — including any
        booted later — replays it from the log before its next job.
        Failed mutations (e.g. a dataset with no graph stage) fail
        identically in every process and no-op mutations leave every
        copy unchanged, so neither enters the log.
        """
        self._ensure_started()
        with self._mutation_lock:
            with self._lock:
                self._mutation_seq += 1
                seq = self._mutation_seq
                log = list(self._mutation_log)
            payload = {
                "mutations": log,
                "requests": [request.to_dict()],
                "applied_seq": seq,
            }
            telemetry = current_telemetry()
            telemetry.incr("pool.round_trips")
            with telemetry.span("pool.mutation"):
                [envelope] = self._submit(payload).result()
            result = envelope.get("result") or {}
            if envelope.get("ok") and (result.get("added") or result.get("removed")):
                with self._lock:
                    self._mutation_log.append((seq, request.to_dict()))
        return envelope

    # ------------------------------------------------------------------ #
    # Introspection & shutdown
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, object]:
        """Pool topology, backlog and the scale-event counters."""
        with self._lock:
            return {
                "mode": "elastic",
                "min_workers": self.min_workers,
                "max_workers": self.max_workers,
                "workers": len(self._workers),
                "draining": self._draining,
                "peak_workers": self._peak_workers,
                "backlog": len(self._futures),
                "start_method": self._context.get_start_method(),
                "jobs_dispatched": self._jobs_dispatched,
                "mutations_logged": len(self._mutation_log),
                "scale_up_events": self._scale_up_events,
                "scale_down_events": self._scale_down_events,
            }

    def close(self) -> None:
        """Drain every worker gracefully; terminate only on timeout.

        Drain sentinels queue behind in-flight jobs, so accepted work
        finishes before the workers exit.  The executor can be reused
        afterwards — the mutation log survives, and fresh workers replay
        it from the start before taking jobs.
        """
        with self._lock:
            if not self._started:
                return
            self._closing = True
            workers = list(self._workers.values())
        self._scaler_stop.set()
        if self._scaler is not None:
            self._scaler.join(timeout=5)
        for _ in workers:
            self._inbound.put(_DRAIN)
        deadline = time.monotonic() + self._drain_timeout
        for process in workers:
            process.join(timeout=max(0.0, deadline - time.monotonic()))
        for process in workers:
            if not _has_exited(process):
                self.telemetry.incr("scale.forced_terminations")
                current_telemetry().incr("scale.forced_terminations")
                process.terminate()
                process.join(timeout=5)
        # The collector drains remaining acks, then stops on the sentinel.
        self._outbound.put(("stop", None, None))
        if self._collector is not None:
            self._collector.join(timeout=5)
        for queue in (self._inbound, self._outbound):
            queue.close()
            queue.cancel_join_thread()
        with self._lock:
            for future in self._futures.values():
                if not future.done():  # pragma: no cover - abnormal close
                    future.set_exception(RuntimeError("elastic pool closed"))
            self._futures.clear()
            self._workers.clear()
            self._draining = 0
            self._inbound = self._outbound = None
            self._collector = self._scaler = None
            self._started = False
            self._closing = False
