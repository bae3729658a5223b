"""Dependency-aware batch execution over the session facade.

A batch is a list of wire requests (:class:`~repro.service.wire.ServiceRequest`).
:func:`plan_batch` groups them by ``(dataset, rule, solver)`` — the unit
that shares a :class:`~repro.api.StructurednessSession` and therefore its
encoder, incremental sweep state and result cache.  Groups are independent
of each other, so an executor may run them concurrently; *within* a group
requests run in submission order against one session, which is what makes
results deterministic (and lets later requests hit the caches the earlier
ones warmed).

:class:`InlineExecutor` runs every group in the calling process; it is the
determinism baseline and the per-worker engine of the multiprocess pool in
:mod:`repro.service.elastic`.  Both return one result envelope per request,
in the original submission order, regardless of grouping.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.session import StructurednessSession
from repro.exceptions import ReproError
from repro.service.registry import DatasetRegistry
from repro.service.wire import (
    MUTATING_OPS,
    ServiceRequest,
    dump_jsonl,
    error_result,
    parse_jsonl,
    parse_request,
    serialize_result,
)

__all__ = ["BatchGroup", "plan_batch", "BatchExecutor", "InlineExecutor", "create_executor"]


@dataclass
class BatchGroup:
    """Requests that share one session: same dataset, rule and solver."""

    key: Tuple[str, str, str]
    indices: List[int] = field(default_factory=list)
    requests: List[ServiceRequest] = field(default_factory=list)


def plan_batch(requests: Sequence[ServiceRequest]) -> List[BatchGroup]:
    """Group a batch by ``(dataset, rule, solver)``, first occurrence first.

    The plan is deterministic: group order follows each key's first
    appearance and requests keep their submission order inside a group, so
    every executor produces the same per-session call sequence.
    """
    groups: Dict[Tuple[str, str, str], BatchGroup] = {}
    for index, request in enumerate(requests):
        key = request.group_key
        group = groups.get(key)
        if group is None:
            group = groups[key] = BatchGroup(key=key)
        group.indices.append(index)
        group.requests.append(request)
    return list(groups.values())


class BatchExecutor:
    """Shared plumbing: parse → plan → execute groups → reorder envelopes.

    Subclasses implement :meth:`_execute_groups`; everything else (wire
    parsing, JSONL I/O, result ordering) lives here so inline and pooled
    execution differ only in *where* groups run.
    """

    def execute(self, requests: Sequence[object]) -> List[Dict[str, object]]:
        """Run a batch; returns one envelope per request, in input order.

        ``requests`` may mix :class:`ServiceRequest` objects, wire dicts
        and JSON strings.  A request that fails to parse yields an error
        envelope in its slot instead of poisoning the batch.

        A mutation is a barrier *for its own dataset*: a request before it
        (in batch order) observes the old state, a request after it the
        new one — regardless of how requests group into sessions.
        Requests on other datasets are unaffected by the mutation, so
        they coalesce into the earliest wave their own dataset's
        mutations allow, keeping each wave's grouped (and, in the pool,
        concurrent) execution as wide as possible.  Mutations themselves
        run between waves, sequentially in batch order.
        """
        return list(self.execute_stream(requests))

    def execute_stream(self, requests: Sequence[object]):
        """Run a batch lazily, yielding envelopes in submission order.

        Execution proceeds wave by wave (exactly as :meth:`execute` — the
        envelopes are bit-identical); an envelope is yielded as soon as it
        and every earlier slot are resolved, so streaming transports can
        put early results on the wire while later waves still compute.
        Because this is a generator, a slow consumer applies backpressure:
        the next wave only runs when the consumer asks for more.
        """
        parsed: List[Optional[ServiceRequest]] = []
        envelopes: List[Optional[Dict[str, object]]] = []
        for raw in requests:
            try:
                parsed.append(parse_request(raw))
                envelopes.append(None)
            except ReproError as error:
                parsed.append(None)
                envelopes.append(error_result(error))
        # Wave assignment: request r runs in the wave right after the
        # last preceding mutation of r's dataset (wave 0 if none).  This
        # is exactly as early as correctness allows — any global mutation
        # between that wave and r's batch position targets a different
        # dataset and cannot change r's answer.
        mutations: List[Tuple[int, ServiceRequest]] = []
        last_wave: Dict[str, int] = {}
        waves: List[List[Tuple[int, ServiceRequest]]] = [[]]
        for index, request in enumerate(parsed):
            if request is None:
                continue
            if request.op in MUTATING_OPS:
                mutations.append((index, request))
                last_wave[request.dataset.key] = len(mutations)
                waves.append([])
            else:
                waves[last_wave.get(request.dataset.key, 0)].append((index, request))
        emitted = 0
        for slot, wave in enumerate(waves):
            if wave:
                groups = plan_batch([r for _, r in wave])
                # plan_batch indexes into the wave subsequence; map back.
                for group in groups:
                    group.indices = [wave[i][0] for i in group.indices]
                for group, results in zip(groups, self._execute_groups(groups)):
                    for index, envelope in zip(group.indices, results):
                        envelopes[index] = envelope
            if slot < len(mutations):
                index, request = mutations[slot]
                envelopes[index] = self._execute_mutation(request)
            # Flush the resolved prefix: every slot before a hole belongs
            # to a later wave, so nothing already yielded can change.
            while emitted < len(envelopes) and envelopes[emitted] is not None:
                yield envelopes[emitted]
                emitted += 1
        # Every slot is now either a parse-error envelope or a wave result.
        while emitted < len(envelopes):
            yield envelopes[emitted]
            emitted += 1

    def execute_jsonl(self, text: str) -> str:
        """Run a JSONL batch document; returns a JSONL result document."""
        return dump_jsonl(self.execute(parse_jsonl(text)))

    def _execute_groups(self, groups: List[BatchGroup]) -> List[List[Dict[str, object]]]:
        raise NotImplementedError

    def _execute_mutation(self, request: ServiceRequest) -> Dict[str, object]:
        """Run one mutating request as its own single-request phase.

        The default runs it like any other (one-element) group; executors
        with distributed state override this to propagate the mutation to
        every copy of the dataset (see ``ElasticPoolExecutor``).
        """
        group = BatchGroup(key=request.group_key, indices=[0], requests=[request])
        return self._execute_groups([group])[0][0]

    def stats(self) -> Dict[str, object]:  # pragma: no cover - interface
        """Executor counters for ``/v1/stats`` (subclass responsibility)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release executor resources (worker processes, sessions)."""

    def __enter__(self) -> "BatchExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def execute_one(session: StructurednessSession, request: ServiceRequest) -> Dict[str, object]:
    """Run one wire request on a session; never raises for library errors."""
    try:
        method = getattr(session, request.op)
        return serialize_result(method(request.request), request)
    except ReproError as error:
        return error_result(error, request)


class InlineExecutor(BatchExecutor):
    """Run every group in the calling process, one session per group key.

    Sessions (and the datasets under them, via the registry) persist for
    the executor's lifetime, so successive ``execute`` calls keep their
    warmed caches — the same lifecycle a pool worker has.
    """

    def __init__(
        self,
        registry: Optional[DatasetRegistry] = None,
        solver_time_limit: Optional[float] = None,
        cache_results: bool = True,
    ):
        self.registry = registry if registry is not None else DatasetRegistry()
        self._solver_time_limit = solver_time_limit
        self._cache_results = cache_results
        self._sessions: Dict[Tuple[str, str], StructurednessSession] = {}
        # Guards the session map: a ThreadingHTTPServer shares one inline
        # executor across handler threads, and a check-then-insert race
        # here would hand two threads two *different* sessions for the
        # same key — bypassing the session-level lock that guarantees
        # concurrent identical requests run one search.
        self._lock = threading.RLock()

    def session_for(self, request: ServiceRequest) -> StructurednessSession:
        """The executor's session for the request's (dataset, solver) pair."""
        key = (request.dataset.key, request.solver or "")
        with self._lock:
            session = self._sessions.get(key)
            if session is None:
                session = self._sessions[key] = StructurednessSession(
                    self.registry.get(request.dataset),
                    solver=request.solver,
                    solver_time_limit=self._solver_time_limit,
                    cache_results=self._cache_results,
                )
            return session

    def run_group(self, requests: Sequence[ServiceRequest]) -> List[Dict[str, object]]:
        """Run one group's requests in order; used directly by pool workers."""
        results = []
        for request in requests:
            try:
                session = self.session_for(request)
            except ReproError as error:
                results.append(error_result(error, request))
                continue
            results.append(execute_one(session, request))
        return results

    def _execute_groups(self, groups: List[BatchGroup]) -> List[List[Dict[str, object]]]:
        return [self.run_group(group.requests) for group in groups]

    def stats(self) -> Dict[str, object]:
        """Registry counters plus one entry per live session (with backend)."""
        with self._lock:
            sessions = list(self._sessions.values())
        return {
            "mode": "inline",
            "registry": self.registry.stats,
            "sessions": [session.describe() for session in sessions],
        }

    def close(self) -> None:
        """Drop every cached session (the registry and its datasets remain)."""
        with self._lock:
            self._sessions.clear()


def create_executor(
    workers: int = 1,
    solver_time_limit: Optional[float] = None,
    registry: Optional[DatasetRegistry] = None,
) -> BatchExecutor:
    """An executor sized to ``workers``: inline for 1, a process pool above.

    The pool is :class:`repro.service.elastic.ElasticPoolExecutor` with
    ``workers`` worker processes.

    A shared ``registry`` only makes sense in-process; pool workers build
    their own, so passing one together with a pool is an error rather
    than a silent no-op.
    """
    if workers <= 1:
        return InlineExecutor(registry=registry, solver_time_limit=solver_time_limit)
    if registry is not None:
        raise ValueError(
            "a shared DatasetRegistry applies only to inline execution (workers=1); "
            "pool workers each hold their own registry"
        )
    from repro.service.elastic import ElasticPoolExecutor

    return ElasticPoolExecutor(workers=workers, solver_time_limit=solver_time_limit)
