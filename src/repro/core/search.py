"""Search strategies on top of the decision procedure (Section 7 set-ups).

The experiments use two complementary formulations:

* **highest θ for a fixed k** — starting from the structuredness of the
  whole dataset (for which the trivial one-sort refinement is always a
  witness), increase θ in small steps and keep the last feasible solution.
  The paper prefers this sequential search over binary search because
  proving an instance infeasible is vastly more expensive than finding a
  witness for a feasible one.
* **lowest k for a fixed θ** — search over k, either upwards from 1
  (enduring a run of infeasible instances) or downwards from the number of
  signatures (solving a run of feasible instances), whichever the caller
  prefers; the paper chooses the direction case by case.

Both searches are *incremental* (see DESIGN.md, "Incremental sweeps"):

* consecutive probes share one mutable encoder state, so moving between
  ``k`` or θ values re-encodes only the sort blocks / threshold rows that
  actually changed (the model equals a fresh encoding's, bit for bit);
* a probe whose feasibility is already *certified* by the best witness
  found so far — the previous solution's exact per-sort σ values cover the
  new threshold, or its non-empty sort count is within the new ``k`` — is
  recorded without invoking the solver at all (``witness_skip=False``
  disables this).  Certification is exact (``Fraction`` arithmetic), so
  skipped probes are guaranteed to agree with what the solver would have
  answered.  Note that while θ, k, feasibility pattern and trace are
  unchanged, the *partition* returned for a witness-certified probe is the
  certifying witness — a valid refinement that may differ from the one the
  solver would have decoded; pass ``witness_skip=False`` to reproduce the
  solver's partitions probe for probe.

A probe whose solver reports an error raises
:class:`~repro.exceptions.ILPError` naming its ``k`` and θ; only a time
limit ends a search early without an answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional, Union

from repro.core.decision import RefinementDecision, decide_sort_refinement
from repro.core.encoder import SortRefinementEncoder, to_fraction
from repro.core.refinement import SortRefinement, refinement_from_assignment
from repro.exceptions import RefinementError
from repro.functions.structuredness import (
    Dataset,
    StructurednessFunction,
    as_signature_table,
    best_function_for_rule,
)
from repro.ilp.registry import resolve_solver
from repro.rules.ast import Rule
from repro.rules.counting import sigma_by_signatures_fraction

__all__ = ["SearchStep", "SearchResult", "highest_theta_refinement", "lowest_k_refinement"]

#: Step status recorded when a probe was answered by an exact witness
#: certificate instead of a solver call.
WITNESS_STATUS = "witness"


@dataclass
class SearchStep:
    """One probe of the decision procedure during a search.

    A step with ``status == "witness"`` was answered without a solver call:
    the feasibility was certified exactly by a previously found refinement.
    """

    theta: float
    k: int
    feasible: bool
    solve_time: float
    status: str


@dataclass
class SearchResult:
    """The outcome of a refinement search.

    Attributes
    ----------
    refinement:
        The best refinement found (``None`` only if even the first probe
        failed, which cannot happen for the standard searches).
    theta:
        The threshold achieved by ``refinement``.
    k:
        The number of implicit sorts of ``refinement``.
    steps:
        The full search trace.
    """

    refinement: Optional[SortRefinement]
    theta: float
    k: int
    steps: List[SearchStep] = field(default_factory=list)
    total_time: float = 0.0

    @property
    def n_probes(self) -> int:
        """How many decision probes the search made (including witness-certified ones)."""
        return len(self.steps)

    @property
    def n_solver_probes(self) -> int:
        """How many probes actually invoked the ILP solver."""
        return sum(1 for step in self.steps if step.status != WITNESS_STATUS)


def _exact_min_sigma(function: StructurednessFunction, refinement: SortRefinement) -> Fraction:
    """The smallest per-sort σ of a refinement, as an exact fraction."""
    values = [function.evaluate_fraction(sort.table) for sort in refinement.sorts]
    return min(values) if values else Fraction(1)


def _trivial_refinement(table, rule: Rule, theta: Fraction) -> SortRefinement:
    """The one-sort refinement (always entity preserving and signature closed)."""
    return refinement_from_assignment(
        table,
        {sig: 0 for sig in table.signatures},
        rule_name=rule.name or rule.to_text(),
        threshold=float(theta),
        metadata={"witness": "trivial"},
    )


def _singleton_refinement(table, rule: Rule, theta: Fraction) -> SortRefinement:
    """The one-sort-per-signature refinement (the finest possible one)."""
    return refinement_from_assignment(
        table,
        {sig: index for index, sig in enumerate(table.signatures)},
        rule_name=rule.name or rule.to_text(),
        threshold=float(theta),
        metadata={"witness": "singleton"},
    )


def _merged_witness(
    function: StructurednessFunction,
    witness: SortRefinement,
    theta: Fraction,
) -> Optional[SortRefinement]:
    """Warm-start a ``k``-probe from a ``k+1``-sort witness by merging two sorts.

    Every sort of ``witness`` already meets θ, so a merge produces a valid
    witness with one sort fewer iff the *merged* sort still meets θ — one
    exact σ evaluation per candidate pair, versus an ILP solve.  Pairs are
    tried smallest-first (small sorts disturb the ratio least).  Returns
    ``None`` when no pair certifies; the caller then falls back to the ILP.
    """
    parent = witness.parent
    sorts = witness.sorts
    pairs = sorted(
        ((a, b) for a in range(len(sorts)) for b in range(a + 1, len(sorts))),
        key=lambda ab: sorts[ab[0]].n_subjects + sorts[ab[1]].n_subjects,
    )
    for a, b in pairs:
        merged_signatures = list(sorts[a].signatures) + list(sorts[b].signatures)
        merged_table = parent.select(merged_signatures)
        if function.evaluate_fraction(merged_table) >= theta:
            assignment = {}
            for index, sort in enumerate(sorts):
                target = a if index == b else index
                for sig in sort.signatures:
                    assignment[sig] = target
            return refinement_from_assignment(
                parent,
                assignment,
                rule_name=witness.rule_name,
                threshold=float(theta),
                metadata={"witness": "merge"},
            )
    return None


def highest_theta_refinement(
    dataset: Dataset,
    rule: Rule,
    k: int,
    step: float = 0.01,
    initial_theta: Optional[Union[float, Fraction]] = None,
    solver: Optional[object] = None,
    solver_time_limit: Optional[float] = None,
    max_probes: int = 200,
    callback: Optional[Callable[[SearchStep], None]] = None,
    witness_skip: bool = True,
    encoder: Optional[SortRefinementEncoder] = None,
) -> SearchResult:
    """Find (approximately) the largest θ admitting a refinement with ``k`` sorts.

    Implements the sequential search of Section 7: starting from
    ``θ = σ_r(D)`` (guaranteed feasible via the trivial refinement), the
    threshold is increased by ``step`` until the ILP becomes infeasible;
    the last stored solution is returned.

    Parameters
    ----------
    dataset, rule, k:
        As in :func:`repro.core.decision.decide_sort_refinement`.
    step:
        The θ increment (the paper uses 0.01).
    initial_theta:
        Explicit starting threshold; defaults to σ_r of the whole dataset.
    solver / solver_time_limit:
        Backend configuration — ``solver`` may be a registered backend name
        (see :mod:`repro.ilp.registry`) or an instance; a time-limited probe
        that fails to find a witness is treated as "stop the search" but,
        like the paper notes, this is not a proof of infeasibility.
    max_probes:
        Safety cap on the number of decision probes (witness-certified
        probes count too, so the θ grid walked is the same either way).
    callback:
        Called with every :class:`SearchStep` as it happens (progress bars,
        logging).
    witness_skip:
        Skip solver calls for grid thresholds that the last witness's exact
        per-sort σ values already certify as feasible.
    encoder:
        A pre-built :class:`SortRefinementEncoder` for ``rule`` — the
        session layer passes one so consecutive searches over the same
        table share cached case coefficients and sweep state.
    """
    table = as_signature_table(dataset)
    if encoder is None:
        encoder = SortRefinementEncoder(rule)
    solver = resolve_solver(solver, time_limit=solver_time_limit)
    if initial_theta is None:
        # Start from sigma_r(D) (always feasible via the trivial one-sort
        # refinement), floored to a 1/10000 grid so that the threshold
        # fraction stays small and safely below the exact value.
        exact_sigma = sigma_by_signatures_fraction(rule, table)
        initial_theta = Fraction(int(exact_sigma * 10_000), 10_000)
    theta = to_fraction(initial_theta)
    step_fraction = to_fraction(step)
    if step_fraction <= 0:
        raise RefinementError("the theta search step must be positive")

    started = time.perf_counter()
    function = best_function_for_rule(rule)
    witness: Optional[SortRefinement] = None
    witness_sigma = Fraction(0)
    if witness_skip:
        candidate = _trivial_refinement(table, rule, theta)
        witness_sigma = _exact_min_sigma(function, candidate)
        if witness_sigma >= theta:
            witness = candidate

    best: Optional[SortRefinement] = None
    best_theta = theta
    steps: List[SearchStep] = []
    probes = 0
    while probes < max_probes and theta <= 1:
        if witness is not None and witness_sigma >= theta:
            search_step = SearchStep(
                theta=float(theta), k=k, feasible=True, solve_time=0.0, status=WITNESS_STATUS
            )
            feasible = True
            best, best_theta = witness, theta
        else:
            decision = decide_sort_refinement(
                table, rule, theta, k, solver=solver, encoder=encoder
            )
            search_step = SearchStep(
                theta=float(theta),
                k=k,
                feasible=decision.feasible,
                solve_time=decision.solve_time,
                status=decision.solution.status,
            )
            feasible = decision.feasible
            if feasible:
                best, best_theta = decision.refinement, theta
                if witness_skip:
                    witness = decision.refinement
                    witness_sigma = _exact_min_sigma(function, witness)
        probes += 1
        steps.append(search_step)
        if callback is not None:
            callback(search_step)
        if not feasible:
            break
        if theta == 1:
            break
        theta = min(Fraction(1), theta + step_fraction)
    total_time = time.perf_counter() - started

    if best is None:
        raise RefinementError(
            "the initial threshold was already infeasible; "
            "use initial_theta <= sigma_r(D) (the default) to guarantee a witness"
        )
    refinement = best
    refinement.threshold = float(best_theta)
    refinement.metadata["search"] = "highest_theta"
    refinement.metadata["probes"] = probes
    return SearchResult(
        refinement=refinement,
        theta=float(best_theta),
        k=refinement.k,
        steps=steps,
        total_time=total_time,
    )


def lowest_k_refinement(
    dataset: Dataset,
    rule: Rule,
    theta: Union[float, Fraction, str],
    direction: str = "up",
    k_min: int = 1,
    k_max: Optional[int] = None,
    solver: Optional[object] = None,
    solver_time_limit: Optional[float] = None,
    callback: Optional[Callable[[SearchStep], None]] = None,
    witness_skip: bool = True,
    encoder: Optional[SortRefinementEncoder] = None,
) -> SearchResult:
    """Find the smallest ``k`` admitting a refinement with threshold ``θ``.

    Parameters
    ----------
    direction:
        ``"up"`` starts at ``k_min`` and increases k until the first
        feasible instance (enduring infeasible probes); ``"down"`` starts at
        ``k_max`` (default: the number of signatures, always feasible
        because singleton-signature sorts have σ = 1 for the rules used in
        the paper) and decreases k while instances remain feasible.  The
        paper reports choosing the direction case by case for efficiency.
        ``"auto"`` first runs the greedy agglomerative baseline to obtain an
        upper bound on k, then searches downward from that bound — this way
        only the final probe is infeasible (infeasible MILP instances are by
        far the slowest ones, as the paper also observes).
    witness_skip:
        Answer probes whose feasibility is certified exactly by an earlier
        refinement without calling the solver: a witness with ``j ≤ k``
        non-empty sorts (whose per-sort σ values exactly meet θ) settles
        every probe down to ``k = j``.  The greedy bound and the singleton
        refinement are used as initial witnesses when they certify.
    """
    table = as_signature_table(dataset)
    if encoder is None:
        encoder = SortRefinementEncoder(rule)
    solver = resolve_solver(solver, time_limit=solver_time_limit)
    theta_fraction = to_fraction(theta)
    if k_max is None:
        k_max = table.n_signatures
    if k_min < 1 or k_max < k_min:
        raise RefinementError(f"invalid k range [{k_min}, {k_max}]")
    if direction not in ("up", "down", "auto"):
        raise RefinementError("direction must be 'up', 'down' or 'auto'")
    function = best_function_for_rule(rule)
    witness: Optional[SortRefinement] = None
    if direction == "auto":
        # A greedy upper bound keeps the downward sweep short; fall back to
        # the full range when the heuristic cannot reach the threshold.
        from repro.core.greedy import GreedyRefiner

        greedy = GreedyRefiner(function).refine_threshold(table, float(theta_fraction))
        if greedy.min_structuredness(function) >= float(theta_fraction) - 1e-12:
            k_max = min(k_max, max(k_min, greedy.k))
            if witness_skip and _exact_min_sigma(function, greedy) >= theta_fraction:
                witness = greedy
        direction = "down"

    started = time.perf_counter()
    steps: List[SearchStep] = []
    best_refinement: Optional[SortRefinement] = None
    best_k: Optional[int] = None

    def record(step: SearchStep) -> None:
        steps.append(step)
        if callback is not None:
            callback(step)

    def witness_step(k: int) -> SearchStep:
        return SearchStep(
            theta=float(theta_fraction), k=k, feasible=True, solve_time=0.0,
            status=WITNESS_STATUS,
        )

    def probe(k: int) -> RefinementDecision:
        decision = decide_sort_refinement(
            table, rule, theta_fraction, k, solver=solver, encoder=encoder
        )
        record(
            SearchStep(
                theta=float(theta_fraction),
                k=k,
                feasible=decision.feasible,
                solve_time=decision.solve_time,
                status=decision.solution.status,
            )
        )
        return decision

    if direction == "up":
        for k in range(k_min, k_max + 1):
            if witness_skip and k == 1:
                # The one-sort refinement is the only candidate at k = 1;
                # its exact σ settles the probe without a solver call.
                trivial = _trivial_refinement(table, rule, theta_fraction)
                if _exact_min_sigma(function, trivial) >= theta_fraction:
                    record(witness_step(k))
                    best_refinement, best_k = trivial, k
                    break
                # An exactly-infeasible trivial refinement does not prove the
                # ILP infeasible (float tolerances), so fall through.
            decision = probe(k)
            if decision.feasible:
                best_refinement, best_k = decision.refinement, k
                break
    else:
        for k in range(k_max, k_min - 1, -1):
            if witness_skip and witness is not None and witness.k <= k:
                record(witness_step(k))
                best_refinement, best_k = witness, k
                continue
            if witness_skip and witness is not None and witness.k == k + 1:
                # Warm start: try to merge two sorts of the previous witness
                # instead of re-solving from scratch.
                merged = _merged_witness(function, witness, theta_fraction)
                if merged is not None:
                    witness = merged
                    record(witness_step(k))
                    best_refinement, best_k = witness, k
                    continue
            if (
                witness_skip
                and witness is None
                and k == table.n_signatures
            ):
                # First probe of a plain downward sweep: the singleton
                # refinement usually certifies it outright.
                singleton = _singleton_refinement(table, rule, theta_fraction)
                if _exact_min_sigma(function, singleton) >= theta_fraction:
                    witness = singleton
                    record(witness_step(k))
                    best_refinement, best_k = witness, k
                    continue
            decision = probe(k)
            if not decision.feasible:
                break
            best_refinement, best_k = decision.refinement, k
            if witness_skip and _exact_min_sigma(function, decision.refinement) >= theta_fraction:
                witness = decision.refinement

    total_time = time.perf_counter() - started
    if best_refinement is None or best_k is None:
        raise RefinementError(
            f"no refinement with threshold {float(theta_fraction):.4f} exists with "
            f"k in [{k_min}, {k_max}]"
        )
    refinement = best_refinement
    refinement.metadata["search"] = "lowest_k"
    refinement.metadata["direction"] = direction
    return SearchResult(
        refinement=refinement,
        theta=float(theta_fraction),
        k=best_k,
        steps=steps,
        total_time=total_time,
    )
