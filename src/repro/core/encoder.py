"""The ILP encoding of ``ExistsSortRefinement(r)`` (Section 6).

Given a rule ``r = ϕ1 ↦ ϕ2``, a signature table for the dataset ``D``, a
threshold ``θ = θ1/θ2`` and a maximum number of implicit sorts ``k``, the
encoder produces an ILP model with:

* ``X_{i,µ} ∈ {0,1}`` — signature ``µ`` is placed in implicit sort ``i``;
* ``U_{i,p} ∈ {0,1}`` — implicit sort ``i`` uses property ``p``;
* ``T_{i,τ} ∈ {0,1}`` — the rough variable assignment ``τ`` is *consistent*
  in implicit sort ``i`` (all its signatures and properties are present);

and the constraints of Section 6.2:

1. every signature is assigned to exactly one implicit sort;
2. ``U_{i,p}`` is 1 exactly when some signature with ``p`` in its support is
   placed in sort ``i``;
3. ``T_{i,τ}`` is 1 exactly when every signature and property mentioned by
   ``τ`` is present in sort ``i`` (the standard 2-constraint AND
   linearisation);
4. the threshold constraint
   ``θ2 · Σ_τ count(ϕ1 ∧ ϕ2, τ, M) · T_{i,τ}  ≥  θ1 · Σ_τ count(ϕ1, τ, M) · T_{i,τ}``
   for every implicit sort ``i``;
5. (optionally) the symmetry-breaking hash constraints of Section 6.3.

Implementation notes (the "implementation details" of the paper, §6.3, plus
two engineering refinements documented in DESIGN.md):

* rough assignments with ``count(ϕ1, τ, M) = 0`` are never materialised —
  they cannot influence either side of the threshold constraint;
* rough assignments that mention the same *set* of (signature, property)
  pairs are merged into a single T variable whose coefficients are the
  summed counts — their T variables would be forced equal anyway;
* the hash exponent is capped at 2^20 (:data:`HASH_EXPONENT_CAP`) to avoid
  the numerical instability the paper reports for large signature counts.

:meth:`SortRefinementEncoder.encode` and
:meth:`~SortRefinementEncoder.encode_incremental` share one assembly path;
they differ only in whether the per-sort blocks come from a fresh or a
cached sweep state.  ``tests/test_encoder_oracle.py`` checks the emitted
rows against an enumeration of every signature partition.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

from repro.caching import IdentityWeakCache
from repro.exceptions import RefinementError
from repro.functions.structuredness import Dataset, as_signature_table
from repro.ilp.model import Constraint, LinExpr, Model, Variable
from repro.ilp.solution import Solution
from repro.matrix.signatures import Signature, SignatureTable, signature_key
from repro.rdf.terms import URI
from repro.rules.ast import Rule
from repro.rules.counting import enumerate_rough_assignments
from repro.core.refinement import SortRefinement, refinement_from_assignment
from repro.telemetry import current as current_telemetry

__all__ = ["EncodedInstance", "SortRefinementEncoder", "to_fraction"]

#: A rough-assignment key: the (signature, property) pairs the case mentions.
#: When equivalent cases are grouped the key is the sorted tuple of *distinct*
#: pairs; otherwise it is the per-variable tuple of pairs in variable order.
CaseKey = Tuple[Tuple[Signature, URI], ...]

#: Largest exponent of the Section 6.3 hash weights ``2^j``: later
#: signatures share the weight, which keeps the coefficients exact in the
#: double precision a MILP solver works in.
HASH_EXPONENT_CAP = 20


def _pair_sort_key(pair: Tuple[Signature, URI]) -> Tuple[Tuple[str, ...], str]:
    signature, prop = pair
    return (signature_key(signature), str(prop))


def to_fraction(theta: Union[float, int, str, Fraction], max_denominator: int = 10_000) -> Fraction:
    """Normalise a threshold to an exact fraction ``θ1/θ2``.

    The paper requires θ to be rational precisely so the threshold
    constraint can be written with integer coefficients; floats are
    converted via ``limit_denominator`` so that e.g. ``0.9`` really means
    ``9/10`` rather than its binary approximation.
    """
    if isinstance(theta, Fraction):
        fraction = theta
    elif isinstance(theta, int):
        fraction = Fraction(theta)
    elif isinstance(theta, str):
        fraction = Fraction(theta)
    else:
        fraction = Fraction(theta).limit_denominator(max_denominator)
    if fraction < 0 or fraction > 1:
        raise RefinementError(f"threshold must lie in [0, 1], got {theta!r}")
    return fraction


@dataclass
class EncodedInstance:
    """An encoded ILP instance together with its variable dictionaries."""

    model: Model
    table: SignatureTable
    rule: Rule
    k: int
    theta: Fraction
    x_vars: Dict[Tuple[int, Signature], Variable]
    u_vars: Dict[Tuple[int, URI], Variable]
    t_vars: Dict[Tuple[int, CaseKey], Variable]
    case_counts: Dict[CaseKey, Tuple[int, int]]
    encode_time: float = 0.0
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def n_cases(self) -> int:
        """Number of grouped rough assignments (per implicit sort)."""
        return len(self.case_counts)

    def statistics(self) -> Dict[str, object]:
        """Model-size statistics plus encoding metadata."""
        stats: Dict[str, object] = dict(self.model.statistics())
        stats.update(
            {
                "signatures": self.table.n_signatures,
                "properties": self.table.n_properties,
                "cases": self.n_cases,
                "k": self.k,
                "theta": float(self.theta),
                "encode_time": self.encode_time,
            }
        )
        return stats

    def decode(self, solution: Solution) -> SortRefinement:
        """Turn a feasible ILP solution into a :class:`SortRefinement`."""
        solution.require_feasible()
        assignment: Dict[Signature, int] = {}
        for (index, signature), variable in self.x_vars.items():
            if solution.int_value(variable) == 1:
                if signature in assignment:
                    raise RefinementError(
                        f"solver assigned signature {signature_key(signature)} to two sorts"
                    )
                assignment[signature] = index
        missing = [s for s in self.table.signatures if s not in assignment]
        if missing:
            raise RefinementError(
                f"solver left {len(missing)} signatures unassigned (solution is not integral?)"
            )
        return refinement_from_assignment(
            self.table,
            assignment,
            rule_name=self.rule.name or self.rule.to_text(),
            threshold=float(self.theta),
            metadata={
                "solver_status": solution.status,
                "solver_backend": solution.backend,
                "solve_time": solution.solve_time,
                "k_requested": self.k,
            },
        )


class SortRefinementEncoder:
    """Builds ILP instances for ``ExistsSortRefinement(r)``.

    Parameters
    ----------
    rule:
        The structuredness rule ``r``.
    symmetry_breaking:
        How to break the permutation symmetry between implicit sorts:

        * ``"hash"`` (or ``True``) — the paper's Section 6.3 constraints
          ``hash(i) ≤ hash(i+1)`` with capped powers of two.  Helps CPLEX
          according to the paper, but the large, heavily tied coefficients
          can slow HiGHS down dramatically on larger ``k``.
        * ``"anchor"`` (the default) — pin the largest signature set to the
          first implicit sort.  Removes a factor ``k`` of the symmetry with
          a single tiny constraint and never hurts.
        * ``"none"`` (or ``False``) — no symmetry breaking.
    group_equivalent_cases:
        Merge rough assignments using the same set of (signature, property)
        pairs into one T variable (exact reformulation, fewer variables).
    """

    def __init__(
        self,
        rule: Rule,
        symmetry_breaking: Union[str, bool] = "anchor",
        group_equivalent_cases: bool = True,
    ):
        self.rule = rule
        if symmetry_breaking is True:
            symmetry_breaking = "hash"
        elif symmetry_breaking is False:
            symmetry_breaking = "none"
        if symmetry_breaking not in ("hash", "anchor", "none"):
            raise RefinementError(
                f"symmetry_breaking must be 'hash', 'anchor' or 'none', got {symmetry_breaking!r}"
            )
        self.symmetry_breaking = symmetry_breaking
        self.group_equivalent_cases = group_equivalent_cases
        self._case_cache: IdentityWeakCache = IdentityWeakCache()
        self._sweep_cache: IdentityWeakCache = IdentityWeakCache()

    # ------------------------------------------------------------------ #
    # Rough-assignment coefficients
    # ------------------------------------------------------------------ #
    def compute_cases(self, table: SignatureTable) -> Dict[CaseKey, Tuple[int, int]]:
        """Compute ``count(ϕ1, τ, M)`` / ``count(ϕ1 ∧ ϕ2, τ, M)`` per grouped case.

        Results are cached per signature table (the θ-search re-encodes the
        same table many times with different thresholds).
        """
        cached = self._case_cache.get(table)
        if cached is not None:
            return cached
        grouped: Dict[CaseKey, List[int]] = {}
        for case in enumerate_rough_assignments(self.rule, table):
            if self.group_equivalent_cases:
                key: CaseKey = tuple(
                    sorted(set(case.assignment.values()), key=_pair_sort_key)
                )
            else:
                key = tuple(case.assignment[v] for v in sorted(case.assignment))
            bucket = grouped.setdefault(key, [0, 0])
            bucket[0] += case.total
            bucket[1] += case.favourable
        cases = {key: (total, favourable) for key, (total, favourable) in grouped.items()}
        return self._case_cache.set(table, cases)

    # ------------------------------------------------------------------ #
    # Encoding
    # ------------------------------------------------------------------ #
    def encode(
        self,
        dataset: Dataset,
        k: int,
        theta: Union[float, Fraction, str],
    ) -> EncodedInstance:
        """Encode ``ExistsSortRefinement(r)`` for the dataset, ``k`` and ``θ``.

        The model is assembled from a fresh sweep state that nothing else
        holds, so the instance stays valid however many others are encoded
        after it (unlike :meth:`encode_incremental`'s).
        """
        return self._encode(dataset, k, theta, cached=False)

    def encode_incremental(
        self,
        dataset: Dataset,
        k: int,
        theta: Union[float, Fraction, str],
    ) -> EncodedInstance:
        """Encode ``ExistsSortRefinement(r)`` by mutating a cached sweep state.

        Produces the same model as :meth:`encode` (same variables in the
        same order, same constraints with the same coefficients), but keeps
        one :class:`_SweepState` per signature table and mutates it between
        probes: each implicit sort's variable block and its k/θ-invariant
        constraints (the U-link and T-AND families — the bulk of the model)
        are built once and re-attached; moving from ``k`` to ``k ± 1``
        merely adds or drops one sort's block, and moving between
        thresholds swaps the ``k`` threshold rows.  A search that probes
        many (k, θ) pairs against the same table therefore pays the full
        encoding cost once, not once per probe.

        Because the assembled models share ``Variable`` objects, only the
        most recently assembled instance per encoder/table may be handed to
        a solver (earlier instances' variable indexes are re-pointed).  The
        search strategies solve strictly sequentially, so this is safe; use
        :meth:`encode` when several live instances are needed at once.
        """
        return self._encode(dataset, k, theta, cached=True)

    def _encode(
        self,
        dataset: Dataset,
        k: int,
        theta: Union[float, Fraction, str],
        cached: bool,
    ) -> EncodedInstance:
        """Assemble the model for ``k`` and ``θ`` from the cached or a fresh sweep state."""
        if k < 1:
            raise RefinementError("the number of implicit sorts k must be at least 1")
        table = as_signature_table(dataset)
        theta_fraction = to_fraction(theta)
        started = time.perf_counter()
        if cached:
            state = self._sweep_state(table)
        else:
            state = _SweepState(table, self.compute_cases(table))
        while len(state.blocks) < k:
            state.blocks.append(self._build_block(state, len(state.blocks)))

        model = Model(
            name=f"sort-refinement[{self.rule.name or 'rule'}, k={k}, theta={theta_fraction}]"
        )
        variables = model.variables
        for i in range(k):
            block = state.blocks[i]
            for variable in block.ordered_vars:
                variable.index = len(variables)
                variables.append(variable)

        # (1) every signature lands in exactly one implicit sort (k-dependent,
        # cached per k because a sweep revisits the same k many times).
        assignment = state.assignment_cache.get(k)
        if assignment is None:
            assignment = []
            for sig in state.signatures:
                expr = LinExpr.sum(state.blocks[i].x[sig] for i in range(k))
                assignment.append(
                    Constraint(expr, lower=1.0, upper=1.0, name=f"assign[{signature_key(sig)[:1]}]")
                )
            state.assignment_cache[k] = assignment
        model.constraints.extend(assignment)

        # (2) + (3): the cached per-sort constraint families.
        for i in range(k):
            model.constraints.extend(state.blocks[i].link_constraints)
        for i in range(k):
            model.constraints.extend(state.blocks[i].and_constraints)

        # (4) the threshold constraint per implicit sort (θ-dependent, cached
        # per (sort, θ) because a k-sweep revisits the same θ at every k).
        for i in range(k):
            model.constraints.append(self._threshold_constraint(state, i, theta_fraction))

        # (5) symmetry breaking between the k implicit sorts.
        if self.symmetry_breaking == "hash" and k > 1:
            constraints = state.hash_cache.get(k)
            if constraints is None:
                for i in range(k):
                    block = state.blocks[i]
                    if block.hash_expr is None:
                        # The paper's Section 6.3 form: hash(i) <= hash(i+1).
                        expr = LinExpr()
                        for j, sig in enumerate(state.signatures):
                            weight = 2 ** min(j, HASH_EXPONENT_CAP)
                            expr = expr + weight * block.x[sig]
                        block.hash_expr = expr
                constraints = [
                    state.blocks[i].hash_expr <= state.blocks[i + 1].hash_expr
                    for i in range(k - 1)
                ]
                state.hash_cache[k] = constraints
            model.constraints.extend(constraints)
        elif self.symmetry_breaking == "anchor" and k > 1 and state.signatures:
            # Pin the largest signature set (the first, tables are sorted by
            # size) to the first implicit sort.
            if state.anchor is None:
                anchor = state.blocks[0].x[state.signatures[0]]
                state.anchor = Constraint(LinExpr({anchor: 1.0}), lower=1, upper=1)
            model.constraints.append(state.anchor)

        x_vars = {
            (i, sig): state.blocks[i].x[sig] for i in range(k) for sig in state.signatures
        }
        u_vars = {
            (i, p): state.blocks[i].u[p] for i in range(k) for p in state.properties
        }
        t_vars = {
            (i, key): state.blocks[i].t[key] for i in range(k) for key in state.cases
        }
        encode_time = time.perf_counter() - started
        current_telemetry().observe(
            "encoder.encode_incremental" if cached else "encoder.encode", encode_time
        )
        return EncodedInstance(
            model=model,
            table=table,
            rule=self.rule,
            k=k,
            theta=theta_fraction,
            x_vars=x_vars,
            u_vars=u_vars,
            t_vars=t_vars,
            case_counts=state.cases,
            encode_time=encode_time,
            metadata={
                "symmetry_breaking": self.symmetry_breaking,
                "group_equivalent_cases": self.group_equivalent_cases,
            },
        )

    def _sweep_state(self, table: SignatureTable) -> "_SweepState":
        state = self._sweep_cache.get(table)
        if state is None:
            state = self._sweep_cache.set(table, _SweepState(table, self.compute_cases(table)))
        return state

    def _build_block(self, state: "_SweepState", i: int) -> "_SortBlock":
        """Create implicit sort ``i``'s variables and its k/θ-invariant constraints."""
        block = _SortBlock()
        block.x = {
            sig: Variable(f"X[{i},{s_index}]", 0, 1, is_integer=True)
            for s_index, sig in enumerate(state.signatures)
        }
        block.u = {
            p: Variable(f"U[{i},{p.local_name}]", 0, 1, is_integer=True)
            for p in state.properties
        }
        block.t = {
            key: Variable(f"T[{i},{c_index}]", 0, 1, is_integer=True)
            for c_index, key in enumerate(state.cases)
        }
        block.ordered_vars = (
            list(block.x.values()) + list(block.u.values()) + list(block.t.values())
        )

        # (2) U_{i,p} tracks whether sort i uses property p.
        link: List[Constraint] = []
        for sig in state.signatures:
            x_var = block.x[sig]
            for p in state.supports[sig]:
                link.append(x_var <= block.u[p])
        for p in state.properties:
            providers = state.property_to_signatures[p]
            if providers:
                total = LinExpr.sum(block.x[sig] for sig in providers)
                link.append(block.u[p] <= total)
            else:
                link.append(block.u[p] <= 0)
        block.link_constraints = link

        # (3) T_{i,τ} is the AND of the X/U literals the case mentions.
        ands: List[Constraint] = []
        for key in state.cases:
            literals: List[Variable] = []
            for sig, prop in key:
                literals.append(block.x[sig])
                literals.append(block.u[prop])
            # Deduplicate literals: a case may reuse a signature or property.
            unique_literals = list(dict.fromkeys(literals))
            count = len(unique_literals)
            t_var = block.t[key]
            literal_sum = LinExpr.sum(unique_literals)
            ands.append(literal_sum <= t_var + (count - 1))
            ands.append(count * t_var <= literal_sum)
        block.and_constraints = ands
        return block

    def _threshold_constraint(
        self, state: "_SweepState", i: int, theta_fraction: Fraction
    ) -> Constraint:
        block = state.blocks[i]
        cached = block.threshold_cache.get(theta_fraction)
        if cached is not None:
            return cached
        # The paper's form uses the integer coefficients θ2·fav − θ1·total.
        # For thresholds with large denominators (e.g. the *exact* σ_r(D) of
        # a big dataset used as the starting point of the θ-search) those
        # integers overflow the double precision a MILP solver works in, so
        # the row is written with the equivalent float coefficients
        # fav − θ·total, whose magnitude stays bounded by the largest count.
        theta_float = float(theta_fraction)
        coefficients: Dict[Variable, float] = {}
        for key, (total, favourable) in state.cases.items():
            coefficient = favourable - theta_float * total
            if coefficient != 0:
                coefficients[block.t[key]] = 1.0 * coefficient
        constraint = Constraint(LinExpr(coefficients), lower=0.0, name=f"threshold[{i}]")
        block.threshold_cache[theta_fraction] = constraint
        return constraint


class _SortBlock:
    """One implicit sort's variables and its k/θ-invariant constraints."""

    __slots__ = (
        "x",
        "u",
        "t",
        "ordered_vars",
        "link_constraints",
        "and_constraints",
        "threshold_cache",
        "hash_expr",
    )

    def __init__(self) -> None:
        self.x: Dict[Signature, Variable] = {}
        self.u: Dict[URI, Variable] = {}
        self.t: Dict[CaseKey, Variable] = {}
        self.ordered_vars: List[Variable] = []
        self.link_constraints: List[Constraint] = []
        self.and_constraints: List[Constraint] = []
        self.threshold_cache: Dict[Fraction, Constraint] = {}
        self.hash_expr: Optional[LinExpr] = None


class _SweepState:
    """The per-sort blocks and row caches a model is assembled from.

    :meth:`SortRefinementEncoder.encode_incremental` keeps one per table and
    reuses it between probes; :meth:`SortRefinementEncoder.encode` builds a
    fresh one per call.
    """

    # NOTE: no reference to the table itself — the sweep cache is weakly
    # keyed by the table, and a strong back-reference from the value would
    # pin the entry forever.
    __slots__ = (
        "cases",
        "signatures",
        "properties",
        "supports",
        "property_to_signatures",
        "blocks",
        "assignment_cache",
        "hash_cache",
        "anchor",
    )

    def __init__(self, table: SignatureTable, cases: Dict[CaseKey, Tuple[int, int]]):
        self.cases = cases
        self.signatures: Tuple[Signature, ...] = table.signatures
        self.properties: Tuple[URI, ...] = table.properties
        # Iterate supports in property-universe order (not frozenset order),
        # so the emitted model is identical across hash seeds and the solver
        # breaks ties the same way on every run.
        self.supports: Dict[Signature, Tuple[URI, ...]] = {
            sig: tuple(p for p in self.properties if p in sig) for sig in self.signatures
        }
        self.property_to_signatures: Dict[URI, List[Signature]] = {
            p: [sig for sig in self.signatures if p in sig] for p in self.properties
        }
        self.blocks: List[_SortBlock] = []
        self.assignment_cache: Dict[int, List[Constraint]] = {}
        self.hash_cache: Dict[int, List[Constraint]] = {}
        self.anchor: Optional[Constraint] = None
