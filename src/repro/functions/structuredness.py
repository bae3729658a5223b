"""Closed-form structuredness functions over signature tables.

Every structuredness function named in the paper has a closed form in terms
of a handful of signature-level aggregates:

* Cov(D)             = (# of 1-cells) / (|S(D)| · |P(D)|)
* Sim(D)             = Σ_p n_p (n_p − 1) / Σ_p n_p (N − 1)
* Dep[p1, p2](D)     = n_{p1 ∧ p2} / n_{p1}
* SymDep[p1, p2](D)  = n_{p1 ∧ p2} / n_{p1 ∨ p2}
* CondDep[p1, p2](D) = (N − n_{p1} + n_{p1 ∧ p2}) / N

where ``N`` is the number of subjects, ``n_p`` the number of subjects with
property ``p``, and ``n_{p1 ∧ p2}``, ``n_{p1 ∨ p2}`` the number of subjects
with both / at least one of the two properties.  Each ratio is defined as 1
when its denominator is 0, in keeping with the convention for σ_r (this is
what makes σSymDep trivially 1 on implicit sorts that drop a column, as
discussed in Section 7.1.1).

These closed forms are proved equivalent to the rule semantics by the test
suite (against both the naive semantics and the signature-level counting),
and they are what the experiment harness uses on large datasets.

The module also provides :class:`StructurednessFunction`, a tiny wrapper
that pairs a rule with an optional fast path and accepts graphs, matrices
or signature tables interchangeably.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional, Union

from repro.exceptions import EvaluationError
from repro.matrix.property_matrix import PropertyMatrix
from repro.matrix.signatures import SignatureTable
from repro.rdf.graph import RDFGraph
from repro.rdf.terms import coerce_uri
from repro.rules import library
from repro.rules.ast import Rule
from repro.rules.counting import sigma_by_signatures_fraction

__all__ = [
    "Dataset",
    "as_signature_table",
    "coverage",
    "similarity",
    "dependency",
    "symmetric_dependency",
    "conditional_dependency",
    "StructurednessFunction",
    "coverage_function",
    "similarity_function",
    "dependency_function",
    "symmetric_dependency_function",
    "function_from_rule",
]

#: The kinds of inputs every function in this module accepts.
Dataset = Union[RDFGraph, PropertyMatrix, SignatureTable]


def as_signature_table(dataset: Dataset) -> SignatureTable:
    """Normalise a graph / matrix / signature table to a signature table.

    Objects exposing a ``table`` attribute holding a signature table — the
    :class:`repro.api.Dataset` handle, :class:`~repro.datasets.MixedDataset`
    — are accepted too, so the free functions compose with the session API.
    """
    if isinstance(dataset, SignatureTable):
        return dataset
    if isinstance(dataset, PropertyMatrix):
        return SignatureTable.from_matrix(dataset)
    if isinstance(dataset, RDFGraph):
        return SignatureTable.from_graph(dataset)
    table = getattr(dataset, "table", None)
    if isinstance(table, SignatureTable):
        return table
    raise EvaluationError(
        f"expected an RDFGraph, PropertyMatrix or SignatureTable, got {type(dataset).__name__}"
    )


def _ratio(favourable: int, total: int) -> Fraction:
    if total == 0:
        return Fraction(1)
    return Fraction(favourable, total)


# --------------------------------------------------------------------------- #
# Closed forms
# --------------------------------------------------------------------------- #
def coverage(dataset: Dataset, exact: bool = False) -> Union[float, Fraction]:
    """σCov: the fraction of filled cells of the property-structure view."""
    table = as_signature_table(dataset)
    value = _ratio(table.n_ones(), table.n_cells())
    return value if exact else float(value)


def similarity(dataset: Dataset, exact: bool = False) -> Union[float, Fraction]:
    """σSim: probability that a property of one subject is shared by another.

    Total cases are triples ``(s, s', p)`` with ``s ≠ s'`` and ``s`` having
    ``p``; favourable cases additionally require ``s'`` to have ``p``.
    """
    table = as_signature_table(dataset)
    n_subjects = table.n_subjects
    n_p = table.property_count_vector()
    total = int(n_p.sum()) * (n_subjects - 1)
    favourable = int(n_p @ (n_p - 1))
    value = _ratio(favourable, total)
    return value if exact else float(value)


def dependency(
    dataset: Dataset, prop1: object, prop2: object, exact: bool = False
) -> Union[float, Fraction]:
    """σDep[p1, p2]: probability that a subject having ``p1`` also has ``p2``."""
    table = as_signature_table(dataset)
    p1, p2 = coerce_uri(prop1), coerce_uri(prop2)
    if p1 not in table.properties or p2 not in table.properties:
        # A missing column removes all total cases: σ = 1 by convention.
        value = Fraction(1)
    else:
        value = _ratio(table.both_count(p1, p2), table.property_count(p1))
    return value if exact else float(value)


def symmetric_dependency(
    dataset: Dataset, prop1: object, prop2: object, exact: bool = False
) -> Union[float, Fraction]:
    """σSymDep[p1, p2]: probability that a subject with ``p1`` or ``p2`` has both."""
    table = as_signature_table(dataset)
    p1, p2 = coerce_uri(prop1), coerce_uri(prop2)
    if p1 not in table.properties or p2 not in table.properties:
        # The antecedent requires both property columns to exist; a missing
        # column removes every total case and σ = 1 by convention (this is
        # the "trivially satisfied" situation discussed in Section 7.1.1).
        value = Fraction(1)
    else:
        value = _ratio(table.both_count(p1, p2), table.either_count(p1, p2))
    return value if exact else float(value)


def conditional_dependency(
    dataset: Dataset, prop1: object, prop2: object, exact: bool = False
) -> Union[float, Fraction]:
    """The disjunctive-consequent dependency: P(subject lacks p1 or has p2)."""
    table = as_signature_table(dataset)
    p1, p2 = coerce_uri(prop1), coerce_uri(prop2)
    n_subjects = table.n_subjects
    if p1 not in table.properties or p2 not in table.properties:
        value = Fraction(1)
    else:
        favourable = n_subjects - table.property_count(p1) + table.both_count(p1, p2)
        value = _ratio(favourable, n_subjects)
    return value if exact else float(value)


# --------------------------------------------------------------------------- #
# Function objects
# --------------------------------------------------------------------------- #
class StructurednessFunction:
    """A structuredness function: a rule plus an optional closed-form fast path.

    Calling the object with a graph, matrix or signature table returns the
    σ value in ``[0, 1]``.  When no fast path is available the rule is
    evaluated at the signature level, which is exact and scales with the
    number of signatures instead of the number of subjects.
    """

    def __init__(
        self,
        rule: Rule,
        fast_path: Optional[Callable[[SignatureTable], Fraction]] = None,
        name: Optional[str] = None,
    ):
        self.rule = rule
        self._fast_path = fast_path
        self.name = name or rule.name or rule.to_text()

    def evaluate_fraction(self, dataset: Dataset) -> Fraction:
        """Return σ(dataset) as an exact fraction."""
        table = as_signature_table(dataset)
        if self._fast_path is not None:
            return self._fast_path(table)
        return sigma_by_signatures_fraction(self.rule, table)

    def __call__(self, dataset: Dataset) -> float:
        return float(self.evaluate_fraction(dataset))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<StructurednessFunction {self.name}>"


def coverage_function() -> StructurednessFunction:
    """σCov as a :class:`StructurednessFunction` (rule + closed form)."""
    return StructurednessFunction(
        library.coverage(),
        fast_path=lambda table: coverage(table, exact=True),
        name="Cov",
    )


def similarity_function() -> StructurednessFunction:
    """σSim as a :class:`StructurednessFunction` (rule + closed form)."""
    return StructurednessFunction(
        library.similarity(),
        fast_path=lambda table: similarity(table, exact=True),
        name="Sim",
    )


def dependency_function(prop1: object, prop2: object) -> StructurednessFunction:
    """σDep[p1, p2] as a :class:`StructurednessFunction`."""
    p1, p2 = coerce_uri(prop1), coerce_uri(prop2)
    return StructurednessFunction(
        library.dependency(p1, p2),
        fast_path=lambda table: dependency(table, p1, p2, exact=True),
        name=f"Dep[{p1.local_name}, {p2.local_name}]",
    )


def symmetric_dependency_function(prop1: object, prop2: object) -> StructurednessFunction:
    """σSymDep[p1, p2] as a :class:`StructurednessFunction`."""
    p1, p2 = coerce_uri(prop1), coerce_uri(prop2)
    return StructurednessFunction(
        library.symmetric_dependency(p1, p2),
        fast_path=lambda table: symmetric_dependency(table, p1, p2, exact=True),
        name=f"SymDep[{p1.local_name}, {p2.local_name}]",
    )


def function_from_rule(rule: Rule, name: Optional[str] = None) -> StructurednessFunction:
    """Wrap an arbitrary rule as a :class:`StructurednessFunction`.

    The returned function is evaluated with signature-level counting; no
    closed form is attached.  Use :func:`best_function_for_rule` to attach a
    closed form automatically when the rule is recognised as one of the
    built-ins.
    """
    return StructurednessFunction(rule, fast_path=None, name=name)


def matching_fast_function(rule: Rule) -> Optional[StructurednessFunction]:
    """Recognise a rule as one of the built-in functions, if possible.

    The match is purely structural (the antecedent and consequent formulas
    must be exactly those produced by :mod:`repro.rules.library`); it covers
    Cov, Sim, Dep[p1, p2] and SymDep[p1, p2].  Returns ``None`` when the
    rule is not recognised.
    """
    from repro.rules.ast import PropIs

    def same_shape(candidate: Rule) -> bool:
        return (
            candidate.antecedent == rule.antecedent
            and candidate.consequent == rule.consequent
        )

    if same_shape(library.coverage()):
        return coverage_function()
    if same_shape(library.similarity()):
        return similarity_function()
    constants = [atom.uri for atom in rule.antecedent.atoms() if isinstance(atom, PropIs)]
    if len(constants) == 2:
        p1, p2 = constants
        if same_shape(library.dependency(p1, p2)):
            return dependency_function(p1, p2)
        if same_shape(library.symmetric_dependency(p1, p2)):
            return symmetric_dependency_function(p1, p2)
    return None


def best_function_for_rule(rule: Rule, name: Optional[str] = None) -> StructurednessFunction:
    """Return the fastest available :class:`StructurednessFunction` for a rule.

    Built-in rules get their closed forms; anything else falls back to
    signature-level evaluation of the rule itself.
    """
    recognised = matching_fast_function(rule)
    if recognised is not None:
        if name:
            recognised.name = name
        return recognised
    return function_from_rule(rule, name=name)
