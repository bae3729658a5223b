"""The decision procedure for ``ExistsSortRefinement(r)``.

This is the direct counterpart of the problem statement in Section 5: given
an RDF graph (or its signature table), a rule ``r``, a rational threshold
``θ`` and a positive integer ``k``, decide whether a σ_r-sort refinement
with threshold θ and at most ``k`` implicit sorts exists — and, when it
does, return one.

Every decision encodes through
:meth:`~repro.core.encoder.SortRefinementEncoder.encode_incremental`, so a
caller that passes the same encoder to consecutive decisions over one table
(as the searches do) pays the full encoding cost once.  A solver error is
not an answer: it raises :class:`~repro.exceptions.ILPError` rather than
being read as "infeasible".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Optional, Union

from repro.core.encoder import EncodedInstance, SortRefinementEncoder
from repro.core.refinement import SortRefinement
from repro.exceptions import ILPError
from repro.functions.structuredness import Dataset
from repro.ilp.registry import resolve_solver
from repro.ilp.solution import Solution, SolveStatus
from repro.rules.ast import Rule

__all__ = ["RefinementDecision", "exists_sort_refinement", "decide_sort_refinement"]


@dataclass
class RefinementDecision:
    """The outcome of one ``ExistsSortRefinement`` decision.

    Attributes
    ----------
    feasible:
        The answer to the decision problem.
    refinement:
        A witnessing refinement when feasible, otherwise ``None``.
    solution:
        The raw ILP solution (useful for timings and diagnostics).
    instance:
        The encoded ILP instance (useful for model-size statistics).
    """

    feasible: bool
    refinement: Optional[SortRefinement]
    solution: Solution
    instance: EncodedInstance
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def solve_time(self) -> float:
        """Backend solve time in seconds."""
        return self.solution.solve_time

    @property
    def total_time(self) -> float:
        """Encoding plus solve time in seconds."""
        return self.instance.encode_time + self.solution.solve_time

    def __bool__(self) -> bool:
        return self.feasible


def decide_sort_refinement(
    dataset: Dataset,
    rule: Rule,
    theta: Union[float, Fraction, str],
    k: int,
    solver: Optional[object] = None,
    encoder: Optional[SortRefinementEncoder] = None,
) -> RefinementDecision:
    """Decide ``ExistsSortRefinement(r)`` on ``dataset`` for ``θ`` and ``k``.

    Parameters
    ----------
    dataset:
        An :class:`~repro.rdf.graph.RDFGraph`, property matrix or signature
        table.
    rule:
        The structuredness rule ``r``.
    theta:
        The threshold; floats are interpreted as nearby exact rationals.
    k:
        The maximum number of implicit sorts.
    solver:
        Any object with a ``solve(model) -> Solution`` method, or a
        registered backend name (see :mod:`repro.ilp.registry`); defaults
        to the HiGHS backend.
    encoder:
        A pre-built encoder (lets the searches reuse its cached case
        coefficients and constraint blocks across many probes).  Only the
        latest decision's ``instance.model`` per encoder and table may be
        solved again.

    Raises
    ------
    ILPError
        When the solver reports an error instead of an answer.
    """
    if encoder is None:
        encoder = SortRefinementEncoder(rule)
    solver = resolve_solver(solver)
    instance = encoder.encode_incremental(dataset, k=k, theta=theta)
    solution = solver.solve(instance.model)
    if solution.status == SolveStatus.ERROR:
        raise ILPError(
            f"the solver failed at k={k}, theta={instance.theta}: {solution.message}"
        )
    if solution.is_feasible:
        refinement = instance.decode(solution)
        return RefinementDecision(True, refinement, solution, instance)
    feasible = False
    metadata: Dict[str, object] = {}
    if solution.status != SolveStatus.INFEASIBLE:
        # A time limit is *not* a proof of infeasibility.
        metadata["inconclusive"] = True
        metadata["status"] = solution.status
    return RefinementDecision(feasible, None, solution, instance, metadata=metadata)


def exists_sort_refinement(
    dataset: Dataset,
    rule: Rule,
    theta: Union[float, Fraction, str],
    k: int,
    solver: Optional[object] = None,
) -> bool:
    """Boolean form of :func:`decide_sort_refinement` (the paper's decision problem)."""
    return decide_sort_refinement(dataset, rule, theta, k, solver=solver).feasible
