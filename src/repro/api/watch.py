"""Live structuredness watch: continuous σ/θ observability over mutations.

The paper's numbers — σ values, per-sort θ coverage, lowest-k
refinements — are one-shot query results everywhere else in the library.
This module turns them into a *stream*: a :class:`WatchSession`
subscribes to a :class:`~repro.api.dataset.Dataset` and, every time the
dataset's mutation generation advances, re-derives the watched
quantities **incrementally** and emits typed :class:`WatchEvent`\\ s.

σ is computed on the dataset's own signature table, which mutations keep
exact by patching it instead of rebuilding it
(:meth:`~repro.matrix.signatures.SignatureTable.apply_delta`): each
watched rule resolves once to the
:class:`~repro.functions.structuredness.StructurednessFunction` that
:meth:`~repro.api.session.StructurednessSession.evaluate` uses (the
closed forms for Cov, Sim, Dep and SymDep, signature-level rule counting
for anything else), and every observation evaluates it on the patched
table.  Every σ is an exact :class:`~fractions.Fraction`, so watch values
are bit-identical to a fresh-dataset recompute — the differential harness
in ``tests/test_watch.py`` pins that over a hundred mutation scenarios.

With a ``theta`` threshold the watch additionally tracks the lowest-k
refinement per rule through an internal
:class:`~repro.api.session.StructurednessSession` and emits a ``drift``
event whenever the smallest k reaching θ changes — the alert the
ROADMAP's mutation-stream observability item asks for.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from repro.api.dataset import Dataset
from repro.api.requests import parse_theta
from repro.api.session import resolve_rule
from repro.functions.structuredness import StructurednessFunction, best_function_for_rule
from repro.matrix.signatures import SignatureTable
from repro.rules.ast import Rule
from repro.telemetry import current as current_telemetry

__all__ = ["WatchEvent", "WatchSession"]


def _fraction_text(value: Optional[Fraction]) -> Optional[str]:
    if value is None:
        return None
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class WatchEvent:
    """One typed observation emitted by a :class:`WatchSession`.

    ``kind`` is ``"sigma"`` (a rule's σ after a mutation generation),
    ``"drift"`` (the lowest-k refinement for the watched θ changed) or
    ``"heartbeat"`` (a liveness tick from the streaming transport).  The
    schema is fixed: every field is always present (``None``/empty when
    not applicable), so JSONL consumers never see shape drift.
    """

    kind: str
    dataset: str
    generation: int
    rule: Optional[str] = None
    sigma: Optional[str] = None
    value: Optional[float] = None
    previous_sigma: Optional[str] = None
    changed: bool = False
    theta: Optional[str] = None
    k: Optional[int] = None
    previous_k: Optional[int] = None
    sort_sigmas: Tuple[float, ...] = ()
    covered_sorts: Optional[int] = None

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready dict with scalar values and a stable key set."""
        return {
            "kind": self.kind,
            "dataset": self.dataset,
            "generation": self.generation,
            "rule": self.rule,
            "sigma": self.sigma,
            "value": self.value,
            "previous_sigma": self.previous_sigma,
            "changed": self.changed,
            "theta": self.theta,
            "k": self.k,
            "previous_k": self.previous_k,
            "sort_sigmas": list(self.sort_sigmas),
            "covered_sorts": self.covered_sorts,
        }


class _RuleState:
    """Per-rule watch state: the σ function and the last observed values."""

    __slots__ = ("function", "last_sigma", "last_k")

    def __init__(self, rule: Rule):
        self.function: StructurednessFunction = best_function_for_rule(rule)
        self.last_sigma: Optional[Fraction] = None
        self.last_k: Optional[int] = None


class WatchSession:
    """A live watch over one dataset's structuredness under mutation.

    Parameters
    ----------
    dataset:
        The :class:`Dataset` handle to observe.  The watch is pull-based:
        call :meth:`poll` after mutations (or on a timer); a poll that
        finds no new generation is free.
    rules:
        Rule specs to watch (names, rule text or parsed
        :class:`~repro.rules.ast.Rule` objects).  More can be added with
        :meth:`add_rule`.
    theta:
        Optional θ threshold.  When given, each observation also tracks
        the lowest-k refinement per rule (through an internal session)
        and emits a ``drift`` event whenever the smallest k reaching θ
        changes.
    solver / solver_time_limit:
        Forwarded to the internal session used for lowest-k tracking.

    ``stats`` counts polls, observations, events, alerts, heartbeats
    and listener errors.
    """

    def __init__(
        self,
        dataset: Dataset,
        rules=("Cov",),
        *,
        theta=None,
        solver: object = None,
        solver_time_limit: Optional[float] = None,
    ):
        self.dataset = dataset
        self.theta: Optional[Fraction] = parse_theta(theta) if theta is not None else None
        self._session = (
            dataset.session(solver=solver, solver_time_limit=solver_time_limit)
            if self.theta is not None
            else None
        )
        self._rules: "Dict[str, _RuleState]" = {}
        self._listeners: List[Callable[[WatchEvent], None]] = []
        self._last_generation: Optional[int] = None
        self.stats: Dict[str, int] = {
            "polls": 0,
            "observations": 0,
            "events": 0,
            "alerts": 0,
            "heartbeats": 0,
            "listener_errors": 0,
        }
        self._lock = threading.RLock()
        for spec in rules:
            self.add_rule(spec)

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def add_rule(self, spec, label: Optional[str] = None) -> str:
        """Register a rule to watch; returns its label (name or rule text)."""
        rule = resolve_rule(spec)
        key = label or (spec if isinstance(spec, str) and "->" not in spec else None)
        key = key or rule.name or rule.to_text()
        with self._lock:
            if key not in self._rules:
                self._rules[key] = _RuleState(rule)
        return key

    def subscribe(self, callback: Callable[[WatchEvent], None]) -> None:
        """Add a listener invoked with every emitted event.

        Listener exceptions are isolated (counted in
        ``stats["listener_errors"]``), never propagated into the poll.
        """
        with self._lock:
            self._listeners.append(callback)

    @property
    def rules(self) -> Tuple[str, ...]:
        """The labels of the watched rules, in registration order."""
        with self._lock:
            return tuple(self._rules)

    # ------------------------------------------------------------------ #
    # Observation
    # ------------------------------------------------------------------ #
    def poll(self) -> List[WatchEvent]:
        """Check the dataset generation; observe and emit if it advanced.

        The first poll always observes (the baseline): it emits one
        ``sigma`` event per rule, so consumers see the starting point
        before any drift.  Subsequent polls return ``[]`` until a
        mutation bumps the generation.
        """
        with self._lock:
            self.stats["polls"] += 1
            # Re-read until generation and table agree: a mutation landing
            # between the two reads must not pin a newer table to an older
            # generation number.
            while True:
                generation = self.dataset.generation
                table = self.dataset.table
                if self.dataset.generation == generation:
                    break
            if self._last_generation is not None and generation == self._last_generation:
                return []
            events = self._observe(generation, table)
            self._last_generation = generation
            self._emit(events)
            return events

    def heartbeat(self) -> WatchEvent:
        """A liveness event for streaming transports (not sent to listeners)."""
        with self._lock:
            self.stats["heartbeats"] += 1
            return WatchEvent(
                kind="heartbeat",
                dataset=self.dataset.name,
                generation=self.dataset.generation,
            )

    def _observe(self, generation: int, table: SignatureTable) -> List[WatchEvent]:
        telemetry = current_telemetry()
        self.stats["observations"] += 1
        events: List[WatchEvent] = []
        with telemetry.span("watch.observe"):
            for label, state in self._rules.items():
                sigma = state.function.evaluate_fraction(table)
                previous = state.last_sigma
                state.last_sigma = sigma
                events.append(
                    WatchEvent(
                        kind="sigma",
                        dataset=self.dataset.name,
                        generation=generation,
                        rule=label,
                        sigma=_fraction_text(sigma),
                        value=float(sigma),
                        previous_sigma=_fraction_text(previous),
                        changed=previous is None or sigma != previous,
                    )
                )
                if self.theta is not None:
                    events.extend(self._track_lowest_k(label, state, generation, sigma))
        self.stats["events"] += len(events)
        return events

    def _track_lowest_k(
        self, label: str, state: _RuleState, generation: int, sigma: Fraction
    ) -> List[WatchEvent]:
        result = self._session.lowest_k(state.function.rule, theta=self.theta)
        previous_k, state.last_k = state.last_k, result.k
        if previous_k is None or result.k == previous_k:
            return []
        self.stats["alerts"] += 1
        threshold = float(self.theta)
        sort_sigmas = tuple(sort.sigma for sort in result.sorts)
        return [
            WatchEvent(
                kind="drift",
                dataset=self.dataset.name,
                generation=generation,
                rule=label,
                sigma=_fraction_text(sigma),
                value=float(sigma),
                changed=True,
                theta=_fraction_text(self.theta),
                k=result.k,
                previous_k=previous_k,
                sort_sigmas=sort_sigmas,
                covered_sorts=sum(1 for s in sort_sigmas if s >= threshold),
            )
        ]

    def _emit(self, events: List[WatchEvent]) -> None:
        for event in events:
            for listener in self._listeners:
                try:
                    listener(event)
                except Exception:
                    self.stats["listener_errors"] += 1

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def describe(self) -> Dict[str, object]:
        """Serialisable watch facts: dataset, rules, θ and counters."""
        with self._lock:
            return {
                "dataset": self.dataset.name,
                "generation": self.dataset.generation,
                "rules": list(self._rules),
                "theta": _fraction_text(self.theta),
                "stats": dict(self.stats),
            }

    def close(self) -> None:
        """Release the internal lowest-k session's resources, if any."""
        if self._session is not None:
            self._session.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<WatchSession dataset={self.dataset.name!r} rules={list(self._rules)}>"
