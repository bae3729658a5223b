"""A zero-dependency telemetry spine: counters, spans and latency histograms.

Every hot path in the library — graph → matrix → table builds,
``apply_delta`` patches, encoder assembly, solver calls, pool worker
round-trips and snapshot save/load — is
instrumented against this module.  The design contract is *opt-in and
free when off*:

* :func:`current` returns the process-wide :class:`Telemetry` instance
  when tracing is enabled (the ``REPRO_TRACE`` environment variable is
  set to a truthy value, or :func:`enable` was called) and a shared
  no-op :data:`NULL_TELEMETRY` otherwise.  The no-op's ``incr`` /
  ``observe`` / ``span`` bodies do nothing and allocate nothing, so a
  disabled spine adds no measurable overhead to the instrumented paths
  (the acceptance criterion the benchmarks rely on).
* A :class:`Telemetry` instance can also be passed explicitly — e.g.
  ``Dataset(telemetry=...)`` scopes the dataset-chain spans to one
  handle, and the HTTP service keeps an always-on instance for its
  access-log counters regardless of ``REPRO_TRACE``.

Everything is stdlib: a lock per instance makes counters and histogram
updates thread-safe (pool *worker processes* keep their own per-process
instances — cross-process aggregation is out of scope).  Snapshots are
plain dicts with sorted, stable keys so ``GET /v1/metrics`` can serve
them deterministically.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List, Optional

__all__ = [
    "REPRO_TRACE_ENV",
    "Telemetry",
    "NULL_TELEMETRY",
    "current",
    "enable",
    "disable",
]

#: Environment variable that switches the process-wide spine on.
REPRO_TRACE_ENV = "REPRO_TRACE"

#: Histogram bucket upper bounds, in milliseconds (the last bucket is
#: open-ended).  A fixed log-ish scale keeps snapshots comparable across
#: runs and machines; the sub-millisecond bounds separate sub-ms spans
#: such as a watch observation.  The labels are fixed-width and
#: zero-padded (``le_000000.1ms`` … ``le_002500.0ms``) so sorted keys
#: render in bucket order.
_BUCKET_BOUNDS_MS = (0.1, 0.5, 1.0, 5.0, 25.0, 100.0, 500.0, 2500.0)


def _bucket_labels() -> List[str]:
    labels = [f"le_{bound:08.1f}ms" for bound in _BUCKET_BOUNDS_MS]
    labels.append("le_inf")
    return labels


class _SpanTimer:
    """Context manager recording one wall-time span into its telemetry."""

    __slots__ = ("_telemetry", "_name", "_started")

    def __init__(self, telemetry: "Telemetry", name: str):
        self._telemetry = telemetry
        self._name = name
        self._started = 0.0

    def __enter__(self) -> "_SpanTimer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._telemetry.observe(self._name, time.perf_counter() - self._started)


class _NullSpan:
    """The reusable do-nothing span handed out by a disabled telemetry."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Telemetry:
    """Thread-safe counters, span timers and fixed-bucket latency histograms.

    Parameters
    ----------
    enabled:
        When false, every recording method is a no-op and
        :meth:`snapshot` reports an empty, disabled spine.  The shared
        :data:`NULL_TELEMETRY` is the canonical disabled instance; build
        enabled ones for scoped collection (a service, one dataset).
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        # name -> [count, total_s, min_s, max_s, bucket counts...]
        self._spans: Dict[str, list] = {}

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def incr(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the counter ``name`` (created at 0 on first use)."""
        if not self.enabled:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def observe(self, name: str, seconds: float) -> None:
        """Record one duration under span ``name`` (count/total/min/max + histogram)."""
        if not self.enabled:
            return
        ms = seconds * 1000.0
        with self._lock:
            entry = self._spans.get(name)
            if entry is None:
                entry = self._spans[name] = [0, 0.0, float("inf"), 0.0] + [0] * (
                    len(_BUCKET_BOUNDS_MS) + 1
                )
            entry[0] += 1
            entry[1] += seconds
            entry[2] = min(entry[2], seconds)
            entry[3] = max(entry[3], seconds)
            for index, bound in enumerate(_BUCKET_BOUNDS_MS):
                if ms <= bound:
                    entry[4 + index] += 1
                    break
            else:
                entry[4 + len(_BUCKET_BOUNDS_MS)] += 1

    def span(self, name: str):
        """A context manager timing its block into the span ``name``.

        Disabled instances return one shared no-op object, so wrapping a
        hot path in ``with telemetry.span(...)`` costs a method call and
        nothing else when tracing is off.
        """
        if not self.enabled:
            return _NULL_SPAN
        return _SpanTimer(self, name)

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def counters(self) -> Dict[str, int]:
        """A point-in-time copy of every counter."""
        with self._lock:
            return dict(self._counters)

    def snapshot(self) -> Dict[str, object]:
        """A deterministic, JSON-ready view of the whole spine.

        Keys are stable and sorted; span durations are reported in
        milliseconds rounded to 3 decimals (wall-clock values naturally
        vary run to run — the *schema* is what stays deterministic).
        """
        labels = _bucket_labels()
        with self._lock:
            spans = {}
            for name in sorted(self._spans):
                count, total, lo, hi = self._spans[name][:4]
                buckets = self._spans[name][4:]
                spans[name] = {
                    "count": count,
                    "total_ms": round(total * 1000.0, 3),
                    "min_ms": round(lo * 1000.0, 3) if count else 0.0,
                    "max_ms": round(hi * 1000.0, 3),
                    "buckets": dict(zip(labels, buckets)),
                }
            return {
                "enabled": self.enabled,
                "counters": {k: self._counters[k] for k in sorted(self._counters)},
                "spans": spans,
            }

    def reset(self) -> None:
        """Drop every counter and span (the instance stays enabled)."""
        with self._lock:
            self._counters.clear()
            self._spans.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "enabled" if self.enabled else "disabled"
        return f"<Telemetry {state}: {len(self._counters)} counters, {len(self._spans)} spans>"


class _NullTelemetry(Telemetry):
    """The shared disabled spine: every recording method is a no-op."""

    def __init__(self):
        super().__init__(enabled=False)

    def incr(self, name: str, n: int = 1) -> None:
        return None

    def observe(self, name: str, seconds: float) -> None:
        return None

    def span(self, name: str):
        return _NULL_SPAN


#: The canonical disabled instance returned by :func:`current` when
#: tracing is off.  Shared and immutable-by-convention: never enable it.
NULL_TELEMETRY = _NullTelemetry()

_lock = threading.Lock()
_active: Optional[Telemetry] = None


def _env_enabled() -> bool:
    raw = os.environ.get(REPRO_TRACE_ENV, "").strip().lower()
    return raw not in ("", "0", "false", "no", "off")


def current() -> Telemetry:
    """The process-wide spine: enabled per ``REPRO_TRACE``, else the no-op.

    Until :func:`enable` or :func:`disable` pins an explicit choice the
    environment variable is re-read on every call, so tests (and
    long-lived processes) can flip ``REPRO_TRACE`` without re-importing.
    An explicit :func:`disable` wins over the environment until the next
    :func:`enable`.
    """
    global _active
    active = _active
    if active is not None:
        return active
    if _env_enabled():
        with _lock:
            if _active is None:
                _active = Telemetry(enabled=True)
            return _active
    return NULL_TELEMETRY


def enable(telemetry: Optional[Telemetry] = None) -> Telemetry:
    """Switch the process-wide spine on (optionally to a given instance)."""
    global _active
    with _lock:
        _active = telemetry if telemetry is not None else Telemetry(enabled=True)
        return _active


def disable() -> None:
    """Switch the process-wide spine off, overriding ``REPRO_TRACE``."""
    global _active
    with _lock:
        _active = NULL_TELEMETRY
