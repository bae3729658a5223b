"""Signature-level evaluation: rough assignments and ``count(ϕ, τ, M)``.

Section 6 of the paper reduces the sort-refinement problem to ILP by
working with *rough variable assignments*: instead of assigning each rule
variable to a concrete cell ``(subject, property)``, a rough assignment
``τ`` assigns each variable to a pair ``(signature, property)``.  The
quantity ``count(ϕ, τ, M)`` is the number of concrete assignments that are
compatible with ``τ`` and satisfy ``ϕ``; it is computed offline and becomes
a constant coefficient of the ILP.

Because all subjects sharing a signature are structurally identical, the
concrete assignments compatible with ``τ`` differ only in *which* subjects
of each signature set are picked and whether distinct variables pick the
same subject.  ``count`` therefore reduces to a small combinatorial sum
over the ways of co-identifying variables (set partitions restricted to
variables with equal signatures), weighted by falling factorials of the
signature-set sizes.

The same machinery also evaluates ``σ_r`` for a whole dataset directly at
the signature level (:func:`sigma_by_signatures`), which is how the
experiments compute structuredness for datasets with hundreds of thousands
of subjects: the cost depends on the number of signatures, not on the
number of subjects.

Rules that mention ``subj(c) = <uri>`` constants are rejected here: such
rules are not signature-generic (the paper argues they should be excluded
anyway since structuredness should not depend on one particular subject).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.caching import IdentityWeakCache
from repro.exceptions import EvaluationError
from repro.matrix.signatures import Signature, SignatureTable
from repro.rdf.terms import URI
from repro.rules.ast import (
    And,
    Atom,
    Formula,
    Not,
    Or,
    PropEq,
    PropIs,
    Rule,
    SubjEq,
    SubjIs,
    ValEq,
    ValIs,
    Var,
    VarEq,
)

__all__ = [
    "RoughAssignment",
    "RoughCase",
    "count_rough",
    "enumerate_rough_assignments",
    "rule_counts",
    "sigma_by_signatures",
    "sigma_by_signatures_fraction",
    "set_partitions",
    "falling_factorial",
]

#: A rough assignment maps each rule variable to a (signature, property) pair.
RoughAssignment = Dict[Var, Tuple[Signature, URI]]


class RoughCase:
    """One rough assignment together with its total/favourable counts.

    These triples are exactly the constants ``count(ϕ1, τ, M)`` and
    ``count(ϕ1 ∧ ϕ2, τ, M)`` that appear in the ILP threshold constraint.
    """

    __slots__ = ("assignment", "total", "favourable")

    def __init__(self, assignment: RoughAssignment, total: int, favourable: int):
        self.assignment = assignment
        self.total = total
        self.favourable = favourable

    @property
    def signatures(self) -> Tuple[Signature, ...]:
        """The signatures mentioned by the rough assignment (with repeats)."""
        return tuple(sig for sig, _prop in self.assignment.values())

    @property
    def properties(self) -> Tuple[URI, ...]:
        """The properties mentioned by the rough assignment (with repeats)."""
        return tuple(prop for _sig, prop in self.assignment.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<RoughCase total={self.total} favourable={self.favourable}>"


@lru_cache(maxsize=None)
def _falling_factorial_cached(n: int, k: int) -> int:
    result = 1
    for i in range(k):
        if n - i <= 0:
            return 0
        result *= n - i
    return result


def falling_factorial(n: int, k: int) -> int:
    """Return ``n · (n-1) · ... · (n-k+1)`` (1 when k = 0, 0 when k > n).

    Memoized: the counting loops evaluate the same ``(size, blocks)``
    pairs for every rough assignment of a rule, and the distinct pairs
    are few (signature-set sizes × small partition widths).
    """
    if k < 0:
        raise EvaluationError("falling_factorial needs k >= 0")
    return _falling_factorial_cached(n, k)


def set_partitions(items: Sequence) -> Iterator[List[List]]:
    """Yield every set partition of ``items`` (order of blocks is irrelevant)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in set_partitions(rest):
        # put ``first`` in its own block
        yield [[first]] + [list(block) for block in partition]
        # or add it to an existing block
        for index in range(len(partition)):
            new_partition = [list(block) for block in partition]
            new_partition[index].append(first)
            yield new_partition


@lru_cache(maxsize=None)
def _frozen_partitions(items: Tuple) -> Tuple[Tuple[Tuple, ...], ...]:
    """Every set partition of ``items`` as immutable (shareable) tuples.

    The counting core re-partitions the *same* variable groups for every
    rough assignment of a rule; memoizing on the variable tuple hoists
    the partition enumeration out of the per-assignment work entirely
    (the distinct keys are the rules' variable groups — a handful).
    """
    return tuple(
        tuple(tuple(block) for block in partition) for partition in set_partitions(items)
    )


@lru_cache(maxsize=None)
def _variable_pair_keys(variables: Tuple) -> Tuple[frozenset, ...]:
    """The unordered variable pairs of a rule, memoized per variable tuple."""
    return tuple(
        frozenset({a, b})
        for i, a in enumerate(variables)
        for b in variables[i + 1 :]
    )


# --------------------------------------------------------------------------- #
# Indexed view of a signature table
# --------------------------------------------------------------------------- #
class _IndexedTable:
    """Array view of a :class:`SignatureTable` for signature-level counting.

    Rough assignments are evaluated over *indices*: a variable binds to a
    ``(signature index, property index)`` pair, property membership is one
    lookup in the boolean support matrix (the unpacked bitset rows of the
    table), and signature-set sizes come from the count vector.  This keeps
    the inner enumeration loops free of frozenset hashing entirely.
    """

    __slots__ = ("signatures", "properties", "support", "counts", "prop_index", "sig_index")

    def __init__(self, table: SignatureTable):
        self.signatures: Tuple[Signature, ...] = table.signatures
        self.properties: Tuple[URI, ...] = table.properties
        self.support = table.support_matrix()
        self.counts: List[int] = [int(c) for c in table.count_vector()]
        self.prop_index: Dict[URI, int] = {p: j for j, p in enumerate(self.properties)}
        self.sig_index: Dict[Signature, int] = {s: i for i, s in enumerate(self.signatures)}


#: SignatureTable defines value equality without hashing, so the indexed
#: views are cached per table *identity* (weakref-guarded against id reuse).
_INDEXED_CACHE: IdentityWeakCache = IdentityWeakCache()


def _indexed_view(table: SignatureTable) -> _IndexedTable:
    return _INDEXED_CACHE.get_or_create(table, _IndexedTable)


#: An indexed rough assignment: variable -> (signature index, property index).
_IndexedAssignment = Dict[Var, Tuple[int, int]]


# --------------------------------------------------------------------------- #
# Rough satisfaction
# --------------------------------------------------------------------------- #
def _rough_satisfies(
    formula: Formula,
    tau: _IndexedAssignment,
    same_subject: Dict[frozenset, bool],
    ctx: _IndexedTable,
) -> bool:
    """Evaluate ``ϕ`` under an indexed rough assignment and a subject pattern.

    ``same_subject`` maps ``frozenset({a, b})`` to whether variables a and b
    are bound to the same subject.  Variables with different signatures can
    never share a subject, which the caller guarantees.
    """
    if isinstance(formula, ValIs):
        si, pj = tau[formula.var]
        return bool(ctx.support[si, pj]) == bool(formula.value)
    if isinstance(formula, PropIs):
        _si, pj = tau[formula.var]
        return ctx.prop_index.get(formula.uri, -1) == pj
    if isinstance(formula, SubjIs):
        raise EvaluationError(
            "rules mentioning subj(c) = <uri> cannot be evaluated at the signature level"
        )
    if isinstance(formula, VarEq):
        if formula.left == formula.right:
            return True
        same = same_subject[frozenset({formula.left, formula.right})]
        return same and tau[formula.left][1] == tau[formula.right][1]
    if isinstance(formula, SubjEq):
        if formula.left == formula.right:
            return True
        return same_subject[frozenset({formula.left, formula.right})]
    if isinstance(formula, PropEq):
        return tau[formula.left][1] == tau[formula.right][1]
    if isinstance(formula, ValEq):
        si_l, pj_l = tau[formula.left]
        si_r, pj_r = tau[formula.right]
        return bool(ctx.support[si_l, pj_l]) == bool(ctx.support[si_r, pj_r])
    if isinstance(formula, Not):
        return not _rough_satisfies(formula.operand, tau, same_subject, ctx)
    if isinstance(formula, And):
        return all(_rough_satisfies(op, tau, same_subject, ctx) for op in formula.operands)
    if isinstance(formula, Or):
        return any(_rough_satisfies(op, tau, same_subject, ctx) for op in formula.operands)
    raise EvaluationError(f"unsupported formula node: {type(formula).__name__}")


def _count_rough_indexed(formula: Formula, tau: _IndexedAssignment, ctx: _IndexedTable) -> int:
    """Index-level core of :func:`count_rough`."""
    variables = sorted(formula.variables())
    missing = [v for v in variables if v not in tau]
    if missing:
        names = ", ".join(v.name for v in missing)
        raise EvaluationError(f"rough assignment does not bind variables: {names}")

    # Group variables by signature: only variables with identical signatures
    # can possibly be bound to the same subject.
    groups: Dict[int, List[Var]] = {}
    for variable in variables:
        groups.setdefault(tau[variable][0], []).append(variable)

    # Pre-compute, for each signature group, its possible partitions into
    # co-referent blocks and the number of injective subject choices each
    # partition admits.  The partitions themselves are memoized per
    # variable group and the falling factorials per (size, blocks) pair,
    # so the per-assignment cost is assembling the weighted options list.
    group_options: List[List[Tuple[Tuple[Tuple[Var, ...], ...], int]]] = []
    for si, members in groups.items():
        size = ctx.counts[si]
        options: List[Tuple[Tuple[Tuple[Var, ...], ...], int]] = []
        for partition in _frozen_partitions(tuple(members)):
            ways = _falling_factorial_cached(size, len(partition))
            if ways > 0:
                options.append((partition, ways))
        if not options:
            return 0
        group_options.append(options)

    total = 0
    pair_keys = _variable_pair_keys(tuple(variables))

    def recurse(index: int, blocks: Tuple[Tuple[Var, ...], ...], weight: int) -> None:
        nonlocal total
        if index == len(group_options):
            same_subject = dict.fromkeys(pair_keys, False)
            for block in blocks:
                for i, a in enumerate(block):
                    for b in block[i + 1 :]:
                        same_subject[frozenset({a, b})] = True
            if _rough_satisfies(formula, tau, same_subject, ctx):
                total += weight
            return
        for partition, ways in group_options[index]:
            recurse(index + 1, blocks + partition, weight * ways)

    recurse(0, (), 1)
    return total


def count_rough(formula: Formula, tau: RoughAssignment, table: SignatureTable) -> int:
    """Return ``count(ϕ, τ, M)``: concrete assignments compatible with ``τ`` satisfying ``ϕ``.

    The rough assignment must bind every variable of the formula.  The
    assignment maps variables to ``(signature, property)`` pairs; internally
    the computation runs over the table's indexed (bitset) view.
    """
    variables = sorted(formula.variables())
    missing = [v for v in variables if v not in tau]
    if missing:
        names = ", ".join(v.name for v in missing)
        raise EvaluationError(f"rough assignment does not bind variables: {names}")
    ctx = _indexed_view(table)
    indexed: _IndexedAssignment = {}
    extra_props: List[URI] = []
    for variable in variables:
        signature, prop = tau[variable]
        sig = frozenset(signature)
        si = ctx.sig_index.get(sig)
        if si is None:
            # A signature set of size zero admits no concrete assignment.
            return 0
        pj = ctx.prop_index.get(prop)
        if pj is None:
            # Properties outside the table's universe belong to no signature;
            # give them fresh all-zero columns so membership tests are False.
            if prop not in extra_props:
                extra_props.append(prop)
            pj = len(ctx.properties) + extra_props.index(prop)
        indexed[variable] = (si, pj)
    if extra_props:
        extended = _IndexedTable.__new__(_IndexedTable)
        extended.signatures = ctx.signatures
        extended.properties = ctx.properties + tuple(extra_props)
        extended.support = np.hstack(
            [ctx.support, np.zeros((len(ctx.signatures), len(extra_props)), dtype=bool)]
        )
        extended.counts = ctx.counts
        extended.prop_index = {p: j for j, p in enumerate(extended.properties)}
        extended.sig_index = ctx.sig_index
        ctx = extended
    return _count_rough_indexed(formula, indexed, ctx)


# --------------------------------------------------------------------------- #
# Enumerating the relevant rough assignments of a rule
# --------------------------------------------------------------------------- #
def _prunable_conjuncts(formula: Formula) -> List[Formula]:
    """Antecedent conjuncts that depend only on (signature, property) pairs.

    These are exactly the conjuncts that can be used to prune partial rough
    assignments: atoms (or negated atoms) that do not compare subjects.
    """
    prunable: List[Formula] = []
    for conjunct in formula.conjuncts():
        atom = conjunct.operand if isinstance(conjunct, Not) else conjunct
        if isinstance(atom, (ValIs, PropIs, PropEq, ValEq)):
            prunable.append(conjunct)
    return prunable


def _matrix_eval(formula: Formula, ctx: _IndexedTable) -> np.ndarray:
    """Evaluate a single-variable formula over the whole (signature × property) grid.

    Returns a boolean matrix ``m`` with ``m[si, pj]`` the truth value of the
    formula under the rough assignment binding its one variable to
    ``(signature si, property pj)``.  Used by the vectorised fast path of
    :func:`enumerate_rough_assignments`; every atom a one-variable formula
    can contain maps onto a NumPy mask over the support bitset matrix.
    """
    shape = ctx.support.shape
    if isinstance(formula, ValIs):
        return ctx.support if formula.value else ~ctx.support
    if isinstance(formula, PropIs):
        j = ctx.prop_index.get(formula.uri, -1)
        mask = np.zeros(shape, dtype=bool)
        if j >= 0:
            mask[:, j] = True
        return mask
    if isinstance(formula, SubjIs):
        raise EvaluationError(
            "rules mentioning subj(c) = <uri> cannot be evaluated at the signature level"
        )
    if isinstance(formula, (VarEq, SubjEq, PropEq, ValEq)):
        # With a single variable both sides coincide: trivially true.
        return np.ones(shape, dtype=bool)
    if isinstance(formula, Not):
        return ~_matrix_eval(formula.operand, ctx)
    if isinstance(formula, And):
        result = np.ones(shape, dtype=bool)
        for operand in formula.operands:
            result &= _matrix_eval(operand, ctx)
        return result
    if isinstance(formula, Or):
        result = np.zeros(shape, dtype=bool)
        for operand in formula.operands:
            result |= _matrix_eval(operand, ctx)
        return result
    raise EvaluationError(f"unsupported formula node: {type(formula).__name__}")


def _enumerate_single_variable(
    rule: Rule,
    variable: Var,
    ctx: _IndexedTable,
    keep_zero_total: bool,
) -> Iterator[RoughCase]:
    """Vectorised enumeration for one-variable rules (Cov and its variants).

    The antecedent and the combined formula are evaluated for *all*
    (signature, property) pairs at once as boolean matrices; totals are the
    signature sizes wherever the antecedent holds.  Yield order matches the
    generic path (signatures outer, properties inner).
    """
    if ctx.support.size == 0:
        return
    antecedent = _matrix_eval(rule.antecedent, ctx)
    combined = _matrix_eval(rule.combined(), ctx)
    counts = np.asarray(ctx.counts, dtype=np.int64)[:, None]
    total_matrix = np.where(antecedent, counts, 0)
    favourable_matrix = np.where(antecedent & combined, counts, 0)
    if keep_zero_total:
        rows, cols = np.divmod(np.arange(antecedent.size), antecedent.shape[1])
    else:
        rows, cols = np.nonzero(total_matrix)
    signatures, properties = ctx.signatures, ctx.properties
    for si, pj in zip(rows.tolist(), cols.tolist()):
        tau = {variable: (signatures[si], properties[pj])}
        yield RoughCase(tau, int(total_matrix[si, pj]), int(favourable_matrix[si, pj]))


def enumerate_rough_assignments(
    rule: Rule,
    table: SignatureTable,
    keep_zero_total: bool = False,
) -> Iterator[RoughCase]:
    """Enumerate rough assignments ``τ`` with their total and favourable counts.

    Only assignments with ``count(ϕ1, τ, M) > 0`` are yielded unless
    ``keep_zero_total`` is set (the zero-total ones contribute nothing to
    either σ_r or the ILP constraints, which is also the T-variable pruning
    discussed in DESIGN.md).

    One-variable rules take a fully vectorised path over the support bitset
    matrix; rules with several variables run an indexed backtracking
    enumeration whose partial assignments are pruned by the antecedent
    conjuncts that only depend on (signature, property) pairs.
    """
    if rule.uses_subject_constants():
        raise EvaluationError(
            "rules with subj(c) = <uri> atoms are not supported at the signature level"
        )
    variables = sorted(rule.variables())
    if not variables:
        raise EvaluationError("cannot enumerate rough assignments of a variable-free rule")
    ctx = _indexed_view(table)
    if len(variables) == 1:
        yield from _enumerate_single_variable(rule, variables[0], ctx, keep_zero_total)
        return
    yield from _enumerate_multi_variable(rule, ctx, keep_zero_total)


def _enumerate_multi_variable(
    rule: Rule, ctx: _IndexedTable, keep_zero_total: bool
) -> Iterator[RoughCase]:
    """Backtracking enumeration for rules with several variables."""
    variables = sorted(rule.variables())
    prunable = _prunable_conjuncts(rule.antecedent)
    # Every (signature index, property index) pair of the table, in order.
    candidates = [
        (si, pj)
        for si in range(len(ctx.signatures))
        for pj in range(len(ctx.properties))
    ]
    combined = rule.combined()
    signatures, properties = ctx.signatures, ctx.properties

    def recurse(index: int, partial: _IndexedAssignment) -> Iterator[RoughCase]:
        if index == len(variables):
            total = _count_rough_indexed(rule.antecedent, partial, ctx)
            if total == 0 and not keep_zero_total:
                return
            favourable = _count_rough_indexed(combined, partial, ctx) if total > 0 else 0
            tau = {
                v: (signatures[si], properties[pj]) for v, (si, pj) in partial.items()
            }
            yield RoughCase(tau, total, favourable)
            return
        variable = variables[index]
        for pair in candidates:
            partial[variable] = pair
            if _partial_ok(prunable, partial):
                yield from recurse(index + 1, partial)
            del partial[variable]

    def _partial_ok(constraints: List[Formula], partial: _IndexedAssignment) -> bool:
        bound = set(partial)
        for constraint in constraints:
            if constraint.variables() <= bound:
                # Subject-identification is irrelevant for prunable conjuncts.
                if not _rough_satisfies(constraint, partial, _ALWAYS_DIFFERENT, ctx):
                    return False
        return True

    yield from recurse(0, {})


class _AlwaysDifferent(dict):
    """A mapping that answers ``False`` for any variable pair (no co-reference)."""

    def __missing__(self, key: object) -> bool:
        return False


_ALWAYS_DIFFERENT: Dict[frozenset, bool] = _AlwaysDifferent()


# --------------------------------------------------------------------------- #
# σ_r at the signature level
# --------------------------------------------------------------------------- #
def rule_counts(rule: Rule, table: SignatureTable) -> Tuple[int, int]:
    """``(total, favourable)`` concrete-assignment counts of ``rule``.

    These are the two integers behind ``σ_r = favourable / total`` — the
    sums of :class:`RoughCase` totals and favourables over every rough
    assignment.  One-variable rules are fully vectorised (two boolean
    matrix evaluations and two integer reductions, no per-case Python
    loop).  Multi-variable rules run the backtracking enumeration.
    """
    if rule.uses_subject_constants():
        raise EvaluationError(
            "rules with subj(c) = <uri> atoms are not supported at the signature level"
        )
    variables = sorted(rule.variables())
    if not variables:
        raise EvaluationError("cannot enumerate rough assignments of a variable-free rule")
    ctx = _indexed_view(table)
    if len(variables) == 1:
        if ctx.support.size == 0:
            return 0, 0
        antecedent = _matrix_eval(rule.antecedent, ctx)
        combined = _matrix_eval(rule.combined(), ctx)
        counts = np.asarray(ctx.counts, dtype=np.int64)[:, None]
        total = int(np.where(antecedent, counts, 0).sum())
        favourable = int(np.where(antecedent & combined, counts, 0).sum())
        return total, favourable

    total = 0
    favourable = 0
    for case in _enumerate_multi_variable(rule, ctx, False):
        total += case.total
        favourable += case.favourable
    return total, favourable


def sigma_by_signatures_fraction(rule: Rule, table: SignatureTable) -> Fraction:
    """Evaluate ``σ_r`` over a signature table, returning an exact fraction."""
    total, favourable = rule_counts(rule, table)
    if total == 0:
        return Fraction(1)
    return Fraction(favourable, total)


def sigma_by_signatures(rule: Rule, table: SignatureTable) -> float:
    """Evaluate ``σ_r`` over a signature table, returning a float."""
    return float(sigma_by_signatures_fraction(rule, table))
