"""The traced run's span recorder: wrappers around calls into the program's layers.

Spans are kept in memory (name, start, end, parent) and reduced once,
when the run ends.  A span's *self* time is its duration minus the time
its child spans cover, so nested calls (an encode inside a search, a
table build inside a snapshot load) are charged to the innermost layer.
Wrappers are installed only by :meth:`Tracer.install` and removed by
:meth:`Tracer.remove`; the timed run never sees them.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Tuple

from common import now

#: (module path, attribute path, span name) for every wrapped public call.
#: Module-level functions are wrapped where the caller looks them up, so
#: ``repro.api.dataset.load_ntriples`` rather than the defining module.
LAYER_CALLS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.api.dataset", "load_ntriples", "rdf.parse"),
    ("repro.matrix.property_matrix", "PropertyMatrix.from_graph", "matrix.matrix_build"),
    ("repro.matrix.signatures", "SignatureTable.from_matrix", "matrix.table_build"),
    ("repro.storage.snapshots", "encode_chain", "storage.encode"),
    ("repro.storage.snapshots", "write_encoded_snapshot", "storage.save"),
    ("repro.storage.snapshots", "open_snapshot", "storage.load"),
    ("repro.storage.snapshots", "Snapshot.load_matrix", "storage.load_matrix"),
    ("repro.storage.snapshots", "Snapshot.load_table", "storage.table_open"),
    ("repro.storage.outofcore", "build_out_of_core", "storage.ooc_build"),
    ("repro.functions.structuredness", "StructurednessFunction.evaluate_fraction", "rules.count"),
    ("repro.core.encoder", "SortRefinementEncoder.compute_cases", "rules.count"),
    ("repro.core.encoder", "SortRefinementEncoder.encode", "core.encode"),
    ("repro.core.encoder", "SortRefinementEncoder.encode_incremental", "core.encode"),
    ("repro.api.session", "highest_theta_refinement", "core.search"),
    ("repro.api.session", "lowest_k_refinement", "core.search"),
)

#: Span name of one benchmark operation; layer spans inside it are its children.
OP = "op"


class Tracer:
    """Records spans of the calling thread (every traced call runs on the main thread)."""

    def __init__(self) -> None:
        # [name, start, end, parent index or -1]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []
        self.counters: Dict[str, float] = defaultdict(float)

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, now(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def end(self, index: int) -> float:
        self._stack.pop()
        span = self.spans[index]
        span[2] = now()
        return span[2] - span[1]

    def span(self, name: str):
        return _Span(self, name)

    def add(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] += amount

    # ------------------------------------------------------------------ #
    # Installing wrappers
    # ------------------------------------------------------------------ #
    def install(self) -> "Tracer":
        import importlib

        for module_name, attr_path, span_name in LAYER_CALLS:
            owner = importlib.import_module(module_name)
            *owners, attr = attr_path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrapped(original, span_name))
            self._undo.append((owner, attr, original))
        return self

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrapped(self, original: object, span_name: str) -> object:
        tracer = self
        if isinstance(original, classmethod):
            inner = original.__func__

            def call_class(*args, **kwargs):
                index = tracer.begin(span_name)
                try:
                    return inner(*args, **kwargs)
                finally:
                    tracer.end(index)

            return classmethod(call_class)

        def call(*args, **kwargs):
            index = tracer.begin(span_name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.end(index)

        return call

    # ------------------------------------------------------------------ #
    # Reduction
    # ------------------------------------------------------------------ #
    def reduce(self) -> "Reduced":
        child_time: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[2] > 0.0 and span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        self_time: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        op_total = op_covered = 0.0
        for index, span in enumerate(self.spans):
            if span[2] <= 0.0:
                continue
            duration = span[2] - span[1]
            name = span[0]
            self_time[name] += duration - child_time[index]
            calls[name] += 1
            if name == OP:
                op_total += duration
                op_covered += child_time[index]
        return Reduced(dict(self_time), dict(calls), op_total, op_covered)


class _Span:
    __slots__ = ("_tracer", "_name", "_index", "seconds")

    def __init__(self, tracer: Tracer, name: str):
        self._tracer = tracer
        self._name = name
        self.seconds = 0.0

    def __enter__(self) -> "_Span":
        self._index = self._tracer.begin(self._name)
        return self

    def __exit__(self, *exc_info) -> None:
        self.seconds = self._tracer.end(self._index)


class Reduced:
    """Per-span-name self times and call counts of one traced run."""

    def __init__(self, self_time, calls, op_total, op_covered):
        self.self_time = self_time
        self.calls = calls
        self.op_total = op_total
        self.op_covered = op_covered

    def self_ms(self, *names: str) -> float:
        return 1000.0 * sum(self.self_time.get(name, 0.0) for name in names)

    def mean_self_ms(self, names: Iterable[str], per: str) -> float:
        """Self time of ``names`` per call of ``per`` (0 when ``per`` never ran)."""
        count = self.calls.get(per, 0)
        return self.self_ms(*names) / count if count else 0.0

    def self_ms_by_span(self) -> Dict[str, float]:
        return {name: round(1000.0 * value, 3) for name, value in sorted(self.self_time.items())}

    @property
    def coverage_pct(self) -> float:
        """Share of op time that layer spans cover (the rest is unattributed)."""
        return 100.0 * self.op_covered / self.op_total if self.op_total else 0.0


class TimedSolver:
    """A solver proxy that records each solve and its model size.

    Passed as a session's ``solver=`` instance in the traced run only; it
    resolves the same default backend a session would.
    """

    def __init__(self, tracer: Tracer):
        from repro.ilp.registry import resolve_solver

        self._tracer = tracer
        self._inner = resolve_solver(None)
        self.name = getattr(self._inner, "name", type(self._inner).__name__)

    def solve(self, model):
        self._tracer.add("ilp.vars", model.n_variables)
        self._tracer.add("ilp.constraints", model.n_constraints)
        with self._tracer.span("ilp.solve"):
            return self._inner.solve(model)


def program_span_totals(snapshot: Dict[str, object]) -> Dict[str, Tuple[int, float]]:
    """``{span: (count, total_ms)}`` from a ``repro.telemetry`` snapshot."""
    return {
        name: (int(entry["count"]), float(entry["total_ms"]))
        for name, entry in snapshot["spans"].items()
    }


def program_mean_ms(
    spans: Dict[str, Tuple[int, float]], names: Iterable[str], per: str
) -> float:
    """Total ms of program spans ``names`` per recorded ``per`` span (0 if none)."""
    count = spans.get(per, (0, 0.0))[0]
    return sum(spans.get(name, (0, 0.0))[1] for name in names) / count if count else 0.0


def program_span_delta(
    before: Dict[str, Tuple[int, float]], after: Dict[str, Tuple[int, float]]
) -> Dict[str, Tuple[int, float]]:
    """Program spans recorded between two snapshots."""
    delta = {}
    for name, (count, total) in after.items():
        count0, total0 = before.get(name, (0, 0.0))
        if count > count0:
            delta[name] = (count - count0, total - total0)
    return delta


def timed_op(fn, tracer: Optional[Tracer] = None):
    """Time one benchmark op: ``(seconds, result)``.

    Under a tracer the op is also the root span its layer spans hang off;
    without one nothing but the clock is touched.
    """
    if tracer is None:
        started = now()
        result = fn()
        return now() - started, result
    with tracer.span(OP) as span:
        result = fn()
    return span.seconds, result
