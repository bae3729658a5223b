"""The :class:`StructurednessSession`: a serving-shaped query surface.

A session binds one :class:`~repro.api.dataset.Dataset` to one solver
backend and answers structuredness queries against it:

* ``evaluate(rule)`` — σ_r of the whole dataset;
* ``refine(rule, k=...)`` — the highest-θ refinement for a fixed k;
* ``lowest_k(rule, theta=...)`` — the smallest k reaching a threshold;
* ``sweep(rule, k_values=...)`` — highest-θ refinements across many k.

Everything expensive is cached at the right layer and reused across calls:

* the dataset handle caches the graph → matrix → signature-table chain;
* the session keeps one :class:`SortRefinementEncoder` per rule, so probes
  of later calls reuse the case coefficients and incremental sweep state
  (the per-rule counting views are cached globally by table identity);
* identical requests are answered from a result cache without touching the
  solver at all (disable with ``cache_results=False``).

``stats`` counts requests, solver invocations and cache hits, so tests —
and capacity planning — can see exactly what was reused.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import asdict, replace
from typing import Dict, Optional, Tuple

from repro.api.dataset import Dataset
from repro.api.requests import (
    EvaluateRequest,
    LowestKRequest,
    RefineRequest,
    RuleSpec,
    SweepRequest,
)
from repro.api.results import (
    DatasetInfo,
    EvaluationResult,
    MutationResult,
    RefinementResult,
    SortSummary,
    SweepResult,
)
from repro.core.encoder import SortRefinementEncoder
from repro.core.search import SearchResult, highest_theta_refinement, lowest_k_refinement
from repro.exceptions import RequestError
from repro.functions.structuredness import (
    StructurednessFunction,
    best_function_for_rule,
    dependency as dependency_value,
    symmetric_dependency as symmetric_dependency_value,
)
from repro.ilp.registry import DEFAULT_SOLVER, resolve_solver
from repro.rdf.terms import coerce_uri
from repro.rules import library
from repro.rules.ast import Rule
from repro.rules.parser import parse_rule
from repro.telemetry import Telemetry, current as current_telemetry

__all__ = ["StructurednessSession", "resolve_rule", "named_rules"]

#: Built-in rule names accepted wherever a RuleSpec is expected.
_NAMED_RULES = {
    "Cov": library.coverage,
    "Sim": library.similarity,
}


def named_rules() -> tuple:
    """The rule names the session resolves without parsing ("Cov", "Sim")."""
    return tuple(sorted(_NAMED_RULES))


def resolve_rule(spec: RuleSpec) -> Rule:
    """Normalise a rule spec: a built-in name, rule text, or a parsed Rule."""
    if isinstance(spec, Rule):
        return spec
    if isinstance(spec, str):
        if spec in _NAMED_RULES:
            return _NAMED_RULES[spec]()
        if "->" in spec:
            return parse_rule(spec)
        known = ", ".join(named_rules())
        raise RequestError(
            f"unknown rule {spec!r}: expected one of {known} or rule text "
            "in the concrete syntax (containing '->')"
        )
    raise RequestError(f"rule must be a name, rule text or Rule, got {spec!r}")


class _CountingSolver:
    """Wraps a backend so the session can count actual solver invocations.

    The count goes to the session's :class:`~repro.telemetry.Telemetry`,
    whose lock keeps it exact even if the wrapped solver is shared across
    threads.
    """

    def __init__(self, inner: object, telemetry: Telemetry):
        self._inner = inner
        self._telemetry = telemetry
        self.name = getattr(inner, "name", type(inner).__name__)

    def solve(self, model):
        self._telemetry.incr("solver_calls")
        with current_telemetry().span("ilp.solve"):
            return self._inner.solve(model)


class StructurednessSession:
    """Many structuredness queries over one dataset, with shared state.

    Parameters
    ----------
    dataset:
        The :class:`Dataset` handle all queries run against.
    solver:
        A registered backend name (``"highs"``, ``"branch-and-bound"``; see
        :mod:`repro.ilp.registry`) or a ready-made solver instance.
    solver_time_limit:
        Per-probe time limit forwarded to name-based solver construction.
    solver_options:
        Extra keyword options for name-based solver construction.
    cache_results:
        Answer byte-identical repeat requests from the result cache.
    max_cached_results:
        Bound on the result cache (LRU eviction): cached refinements carry
        the full search artifacts, so a long-lived session sweeping many
        parameter combinations must not grow without limit.
    """

    def __init__(
        self,
        dataset: Dataset,
        solver: object = None,
        solver_time_limit: Optional[float] = None,
        solver_options: Optional[dict] = None,
        cache_results: bool = True,
        max_cached_results: int = 256,
    ):
        self.dataset = dataset
        #: Always-on counters behind :attr:`stats`.
        self.telemetry = Telemetry()
        for counter in ("requests", "solver_calls", "result_cache_hits", "cache_invalidations"):
            self.telemetry.incr(counter, 0)
        inner = resolve_solver(
            solver, time_limit=solver_time_limit, **(solver_options or {})
        )
        self.solver = _CountingSolver(inner, self.telemetry)
        #: How the backend was requested (a registry name, or the instance's
        #: own name) — the service reports it next to the resolved backend.
        self.solver_spec: str = (
            solver if isinstance(solver, str)
            else DEFAULT_SOLVER if solver is None
            else self.solver.name
        )
        self._cache_results = cache_results
        self._max_cached_results = max(1, max_cached_results)
        self._encoders: Dict[str, SortRefinementEncoder] = {}
        self._functions: Dict[str, StructurednessFunction] = {}
        self._results: "OrderedDict[tuple, object]" = OrderedDict()
        # The dataset generation the cached results belong to: every query
        # compares it against the live counter, so a mutation (through this
        # session, a sibling session, or the Dataset handle directly)
        # invalidates exactly the stale entries — never a fresh cache.
        self._seen_generation = getattr(dataset, "generation", 0)
        # Serialises queries: shared encoder/sweep state is not safe under
        # concurrent mutation, and holding the lock for the whole query is
        # what guarantees a thread never repeats another thread's solver
        # work for an identical request (it finds the cached result instead).
        self._lock = threading.RLock()

    @property
    def stats(self) -> Dict[str, int]:
        """A copy of the session's counters (requests, solver calls, cache hits, invalidations)."""
        return self.telemetry.counters()

    def _sync_generation(self) -> None:
        """Drop cached results when the dataset mutated since they were stored."""
        generation = getattr(self.dataset, "generation", 0)
        if generation != self._seen_generation:
            self._seen_generation = generation
            self._results.clear()
            self.telemetry.incr("cache_invalidations")

    def _cached_result(self, key: tuple):
        """Fetch a cached result (marking it most recently used) or ``None``."""
        self._sync_generation()
        result = self._results.get(key)
        if result is not None:
            self._results.move_to_end(key)
            self.telemetry.incr("result_cache_hits")
        return result

    def _store_result(self, key: tuple, result):
        if not self._cache_results:
            return
        self._results[key] = result
        self._results.move_to_end(key)
        while len(self._results) > self._max_cached_results:
            self._results.popitem(last=False)

    def clear_cache(self) -> None:
        """Drop every cached result (shared encoders and functions remain)."""
        with self._lock:
            self._results.clear()

    def close(self) -> None:
        """Release the session's resources; a session holds none, so a no-op.

        Kept so callers can scope a session like any other resource;
        queries issued after ``close`` work as before.
        """

    def describe(self) -> Dict[str, object]:
        """Serialisable session facts: dataset, solver binding and counters.

        ``solver`` is the *resolved* backend's name, ``solver_spec`` how it
        was requested — the service's ``/v1/stats`` reports both so callers
        can see which backend each session actually runs on.
        """
        with self._lock:
            return {
                "dataset": self.dataset.name,
                "dataset_generation": getattr(self.dataset, "generation", 0),
                "solver": self.solver.name,
                "solver_spec": self.solver_spec,
                "stats": self.stats,
                "cached_results": len(self._results),
            }

    # ------------------------------------------------------------------ #
    # Shared per-rule state
    # ------------------------------------------------------------------ #
    def _rule_key(self, rule: Rule) -> str:
        return rule.to_text()

    def encoder_for(self, rule: RuleSpec) -> SortRefinementEncoder:
        """The session's shared encoder for ``rule`` (created on first use)."""
        resolved = resolve_rule(rule)
        key = self._rule_key(resolved)
        with self._lock:
            encoder = self._encoders.get(key)
            if encoder is None:
                encoder = self._encoders[key] = SortRefinementEncoder(resolved)
            return encoder

    def function_for(self, rule: RuleSpec) -> StructurednessFunction:
        """The fastest :class:`StructurednessFunction` for ``rule``, cached."""
        resolved = resolve_rule(rule)
        key = self._rule_key(resolved)
        with self._lock:
            function = self._functions.get(key)
            if function is None:
                name = resolved.name if isinstance(rule, Rule) else (
                    rule if isinstance(rule, str) and rule in _NAMED_RULES else resolved.name
                )
                function = self._functions[key] = best_function_for_rule(resolved, name=name)
            return function

    def _request_key(self, request: object, rule: Rule) -> tuple:
        fields = asdict(request)
        fields["rule"] = self._rule_key(rule)
        return (type(request).__name__,) + tuple(sorted(fields.items()))

    def _coerce(self, request, request_type, kwargs):
        if isinstance(request, request_type):
            if kwargs:
                raise RequestError(
                    f"pass either a {request_type.__name__} or keyword arguments, not both"
                )
            return request.validated()
        if request is not None:
            if "rule" in kwargs:
                raise RequestError("rule was given both positionally and as a keyword")
            kwargs = dict(kwargs, rule=request)
        return request_type(**kwargs).validated()

    @property
    def info(self) -> DatasetInfo:
        """The dataset's identifying statistics (forces the table build)."""
        return self.dataset.info

    def _info_from(self, table) -> DatasetInfo:
        """DatasetInfo derived from one table snapshot.

        Queries read ``dataset.table`` exactly once and thread the
        snapshot through search *and* result assembly, so a concurrent
        mutation can never produce a result that mixes two dataset
        generations (searched on one table, described by another).
        """
        return DatasetInfo(
            name=self.dataset.name or table.name,
            n_subjects=table.n_subjects,
            n_properties=table.n_properties,
            n_signatures=table.n_signatures,
        )

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def evaluate(self, request: object = None, /, **kwargs) -> EvaluationResult:
        """σ_r of the whole dataset for one rule (name, text or Rule)."""
        req = self._coerce(request, EvaluateRequest, kwargs)
        rule = resolve_rule(req.rule)
        key = self._request_key(req, rule)
        with self._lock:
            self.telemetry.incr("requests")
            cached = self._cached_result(key)
            if cached is not None:
                return cached
            function = self.function_for(req.rule)
            table = self.dataset.table
            exact_value = function.evaluate_fraction(table)
            result = EvaluationResult(
                dataset=self._info_from(table),
                rule=function.name,
                value=float(exact_value),
                exact=f"{exact_value.numerator}/{exact_value.denominator}" if req.exact else None,
            )
            self._store_result(key, result)
            return result

    def dependency(self, prop1: object, prop2: object, symmetric: bool = False) -> EvaluationResult:
        """σDep[p1, p2] (or σSymDep with ``symmetric=True``) of the dataset."""
        p1, p2 = coerce_uri(prop1), coerce_uri(prop2)
        with self._lock:
            self.telemetry.incr("requests")
            table = self.dataset.table
            compute = symmetric_dependency_value if symmetric else dependency_value
            label = "SymDep" if symmetric else "Dep"
            return EvaluationResult(
                dataset=self._info_from(table),
                rule=f"{label}[{p1.local_name}, {p2.local_name}]",
                value=float(compute(table, p1, p2)),
            )

    def mutate(self, request: object = None, /, **kwargs) -> MutationResult:
        """Apply a triple delta to the dataset (see :meth:`Dataset.mutate`).

        The mutation invalidates this session's result cache immediately;
        sibling sessions over the same dataset notice the generation bump
        on their next query.  Mutation results are never cached.
        """
        unknown = set(kwargs) - {"add", "remove"}
        if unknown:
            raise RequestError(
                f"mutate accepts 'add' and 'remove' collections of triples, "
                f"got unknown keywords {sorted(unknown)}"
            )
        with self._lock:
            self.telemetry.incr("requests")
            # Dataset.mutate owns the request-or-keywords coercion; value
            # errors surface as RequestErrors naming the bad field.
            result = self.dataset.mutate(request, **kwargs)
            self._sync_generation()
            return result

    def refine(self, request: object = None, /, **kwargs) -> RefinementResult:
        """Highest-θ sort refinement for a fixed ``k`` (see :class:`RefineRequest`)."""
        req = self._coerce(request, RefineRequest, kwargs)
        rule = resolve_rule(req.rule)
        key = self._request_key(req, rule)
        with self._lock:
            self.telemetry.incr("requests")
            cached = self._cached_result(key)
            if cached is not None:
                return replace(cached, cached=True)
            table = self.dataset.table
            search = highest_theta_refinement(
                table,
                rule,
                k=req.k,
                step=req.step,
                initial_theta=req.initial_theta,
                solver=self.solver,
                max_probes=req.max_probes,
                witness_skip=req.witness_skip,
                encoder=self.encoder_for(req.rule),
            )
            result = self._refinement_result(req.rule, rule, "highest_theta", search, table)
            self._store_result(key, result)
            return result

    def lowest_k(self, request: object = None, /, **kwargs) -> RefinementResult:
        """Smallest ``k`` reaching threshold θ (see :class:`LowestKRequest`)."""
        req = self._coerce(request, LowestKRequest, kwargs)
        rule = resolve_rule(req.rule)
        key = self._request_key(req, rule)
        with self._lock:
            self.telemetry.incr("requests")
            cached = self._cached_result(key)
            if cached is not None:
                return replace(cached, cached=True)
            table = self.dataset.table
            search = lowest_k_refinement(
                table,
                rule,
                theta=req.theta,
                direction=req.direction,
                k_min=req.k_min,
                k_max=req.k_max,
                solver=self.solver,
                witness_skip=req.witness_skip,
                encoder=self.encoder_for(req.rule),
            )
            result = self._refinement_result(req.rule, rule, "lowest_k", search, table)
            self._store_result(key, result)
            return result

    def sweep(self, request: object = None, /, **kwargs) -> SweepResult:
        """Highest-θ refinements for every ``k`` in ``k_values``.

        All sweep entries run through the session's shared per-rule encoder,
        so consecutive ``k`` values re-encode only the changed sort blocks.
        """
        req = self._coerce(request, SweepRequest, kwargs)
        rule = resolve_rule(req.rule)
        key = self._request_key(req, rule)
        with self._lock:
            self.telemetry.incr("requests")
            cached = self._cached_result(key)
            if cached is not None:
                return replace(
                    cached,
                    entries=tuple(replace(entry, cached=True) for entry in cached.entries),
                )
            # One table snapshot for the whole sweep: every k entry (and
            # the result's DatasetInfo) describes the same generation even
            # if a sibling session mutates the dataset mid-sweep.
            table = self.dataset.table
            entries = []
            for k in req.k_values:
                search = highest_theta_refinement(
                    table,
                    rule,
                    k=k,
                    step=req.step,
                    solver=self.solver,
                    max_probes=req.max_probes,
                    witness_skip=req.witness_skip,
                    encoder=self.encoder_for(req.rule),
                )
                entries.append(
                    self._refinement_result(req.rule, rule, "highest_theta", search, table)
                )
            result = SweepResult(
                dataset=self._info_from(table), rule=entries[0].rule, entries=tuple(entries)
            )
            self._store_result(key, result)
            return result

    # ------------------------------------------------------------------ #
    # Result assembly
    # ------------------------------------------------------------------ #
    def _refinement_result(
        self, spec: RuleSpec, rule: Rule, kind: str, search: SearchResult, table
    ) -> RefinementResult:
        function = self.function_for(spec)
        sorts: Tuple[SortSummary, ...] = tuple(
            SortSummary(
                index=sort.index,
                n_subjects=sort.n_subjects,
                n_signatures=sort.n_signatures,
                sigma=sort.structuredness(function),
                properties_used=tuple(str(p) for p in sort.used_properties),
            )
            for sort in search.refinement.sorts
        )
        return RefinementResult(
            dataset=self._info_from(table),
            rule=function.name,
            kind=kind,
            theta=search.theta,
            k=search.k,
            n_probes=search.n_probes,
            n_solver_probes=search.n_solver_probes,
            total_time=search.total_time,
            sorts=sorts,
            refinement=search.refinement,
            search=search,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<StructurednessSession dataset={self.dataset.name!r} "
            f"solver={self.solver.name!r} stats={self.stats}>"
        )
