"""Live structuredness watch: continuous σ/θ observability over mutations.

The paper's numbers — σ values, per-sort θ coverage, lowest-k
refinements — are one-shot query results everywhere else in the library.
This module turns them into a *stream*: a :class:`WatchSession`
subscribes to a :class:`~repro.api.dataset.Dataset` and, every time the
dataset's mutation generation advances, re-derives the watched
quantities **incrementally** and emits typed :class:`WatchEvent`\\ s.

The incremental engine is the sharded signature table
(:class:`~repro.matrix.sharded.ShardedSignatureTable`): mutations refresh
only the shards whose signatures the delta touched, and the watch keeps
a per-shard aggregate cache keyed on shard *identity* — an untouched
shard's contribution is reused without recounting a single signature.
Per rule the cached aggregate is:

* one-variable rules (σCov, σDep shapes, any custom single-variable
  rule): the shard's exact ``(total, favourable)`` case counts, merged
  by integer addition;
* the σSim shape (two variables, recognised structurally): the shard's
  subject count and property-count vector — sufficient statistics whose
  sums reproduce the closed form exactly;
* any other multi-variable rule: no shard decomposition exists
  (assignments span shards), so the watch falls back to a whole-table
  recount and reports it honestly (``full_recount``).

Every σ is an exact :class:`~fractions.Fraction`, so watch values are
bit-identical to a fresh-dataset recompute — the differential harness in
``tests/test_watch.py`` pins that over hundreds of mutation scenarios.

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
from repro.exceptions import RequestError
from repro.matrix.sharded import ShardedSignatureTable
from repro.rules import library
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
    shards_recounted: int = 0
    shards_reused: int = 0
    full_recount: bool = False
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
            "shards_recounted": self.shards_recounted,
            "shards_reused": self.shards_reused,
            "full_recount": self.full_recount,
            "theta": self.theta,
            "k": self.k,
            "previous_k": self.previous_k,
            "sort_sigmas": list(self.sort_sigmas),
            "covered_sorts": self.covered_sorts,
        }


class _RuleState:
    """Per-rule incremental σ state: the shard-aggregate cache."""

    __slots__ = ("label", "rule", "kind", "cache", "last_sigma", "last_k")

    def __init__(self, label: str, rule: Rule):
        self.label = label
        self.rule = rule
        sim = library.similarity()
        if len(rule.variables()) == 1:
            self.kind = "one_var"
        elif rule.antecedent == sim.antecedent and rule.consequent == sim.consequent:
            self.kind = "similarity"
        else:
            self.kind = "full"
        # shard index -> (shard table object, aggregate payload); the
        # shard object is kept so the identity check stays valid (a
        # collected shard's id() could be recycled by a new object).
        self.cache: Dict[int, tuple] = {}
        self.last_sigma: Optional[Fraction] = None
        self.last_k: Optional[int] = None

    def _count_shard(self, shard) -> tuple:
        if self.kind == "one_var":
            from repro.rules.counting import rule_counts

            return rule_counts(self.rule, shard)
        # similarity: sufficient statistics (subjects, per-property counts)
        return (shard.n_subjects, shard.property_count_vector())

    def _merge(self, payloads: List[tuple]) -> Fraction:
        if self.kind == "one_var":
            total = sum(t for t, _f in payloads)
            favourable = sum(f for _t, f in payloads)
        else:
            n_subjects = sum(n for n, _v in payloads)
            merged = None
            for _n, vector in payloads:
                merged = vector.copy() if merged is None else merged + vector
            if merged is None:
                return Fraction(1)
            total = int(merged.sum()) * (n_subjects - 1)
            favourable = int(merged @ (merged - 1))
        if total <= 0:
            return Fraction(1)
        return Fraction(favourable, total)

    def recount(self, sharded: ShardedSignatureTable) -> Tuple[Fraction, int, int, bool]:
        """σ over ``sharded``: ``(sigma, shards_recounted, shards_reused, full)``."""
        if self.kind == "full":
            from repro.rules.counting import sigma_by_signatures_fraction

            return sigma_by_signatures_fraction(self.rule, sharded.table), 0, 0, True
        recounted = reused = 0
        payloads: List[tuple] = []
        cache: Dict[int, tuple] = {}
        for index, shard in enumerate(sharded.shards):
            entry = self.cache.get(index)
            if entry is not None and entry[0] is shard:
                payload = entry[1]
                reused += 1
            else:
                payload = self._count_shard(shard)
                recounted += 1
            cache[index] = (shard, payload)
            payloads.append(payload)
        self.cache = cache
        return self._merge(payloads), recounted, reused, False


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
    shards:
        Shard count for the incremental σ recounts (``None`` means 16).
    solver / solver_time_limit:
        Forwarded to the internal session used for lowest-k tracking.

    ``stats`` counts polls, observations, events, alerts, shard
    recounts/reuses, full recounts, heartbeats and listener errors, so
    tests (and ``/v1/metrics`` consumers) can prove the incremental path
    is actually taken.
    """

    def __init__(
        self,
        dataset: Dataset,
        rules=("Cov",),
        *,
        theta=None,
        shards: Optional[int] = None,
        solver: object = None,
        solver_time_limit: Optional[float] = None,
    ):
        self.dataset = dataset
        if shards is None:
            shards = 16
        if not isinstance(shards, int) or isinstance(shards, bool) or shards < 1:
            raise RequestError(f"shards must be a positive integer, got {shards!r}")
        self.shards = shards
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
            "shard_recounts": 0,
            "shard_reuses": 0,
            "full_recounts": 0,
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
                self._rules[key] = _RuleState(key, rule)
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

        The first poll always observes (the baseline): it primes the
        shard-aggregate caches and emits one ``sigma`` event per rule, so
        consumers see the starting point before any drift.  Subsequent
        polls return ``[]`` until a mutation bumps the generation.
        """
        with self._lock:
            self.stats["polls"] += 1
            # Re-read until generation and sharded view agree: a mutation
            # landing between the two reads must not pin a newer table to
            # an older generation number.
            while True:
                generation = self.dataset.generation
                sharded = self.dataset.sharded_table(self.shards)
                if self.dataset.generation == generation:
                    break
            if self._last_generation is not None and generation == self._last_generation:
                return []
            events = self._observe(generation, sharded)
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

    def _observe(self, generation: int, sharded: ShardedSignatureTable) -> List[WatchEvent]:
        telemetry = current_telemetry()
        self.stats["observations"] += 1
        events: List[WatchEvent] = []
        with telemetry.span("watch.observe"):
            for label, state in self._rules.items():
                sigma, recounted, reused, full = state.recount(sharded)
                self.stats["shard_recounts"] += recounted
                self.stats["shard_reuses"] += reused
                self.stats["full_recounts"] += int(full)
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
                        shards_recounted=recounted,
                        shards_reused=reused,
                        full_recount=full,
                    )
                )
                if self.theta is not None:
                    events.extend(self._track_lowest_k(label, state, generation, sigma))
        self.stats["events"] += len(events)
        return events

    def _track_lowest_k(
        self, label: str, state: _RuleState, generation: int, sigma: Fraction
    ) -> List[WatchEvent]:
        result = self._session.lowest_k(state.rule, theta=self.theta)
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
        """Serialisable watch facts: dataset, rules, θ, shards and counters."""
        with self._lock:
            return {
                "dataset": self.dataset.name,
                "generation": self.dataset.generation,
                "rules": list(self._rules),
                "theta": _fraction_text(self.theta),
                "shards": self.shards,
                "stats": dict(self.stats),
            }

    def close(self) -> None:
        """Release the internal lowest-k session's resources, if any."""
        if self._session is not None:
            self._session.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<WatchSession dataset={self.dataset.name!r} rules={list(self._rules)} "
            f"shards={self.shards}>"
        )
