"""Typed request objects for the session API.

Every :class:`~repro.api.session.StructurednessSession` method accepts
either loose keyword arguments or one of these frozen dataclasses; the
dataclass is the canonical form — keyword arguments are normalised into it
and validated in one place.  Because requests are hashable value objects,
the session also uses them as keys of its result cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional, Tuple, Union

from repro.exceptions import RDFError, RequestError
from repro.rdf.terms import Literal, Triple, URI
from repro.rules.ast import Rule

__all__ = [
    "RuleSpec",
    "ThetaSpec",
    "parse_theta",
    "parse_wire_term",
    "EvaluateRequest",
    "RefineRequest",
    "LowestKRequest",
    "SweepRequest",
    "MutationRequest",
]

#: What session methods accept as a rule: a built-in name ("Cov", "Sim"),
#: rule text in the concrete syntax, or a parsed :class:`Rule`.
RuleSpec = Union[str, Rule]

#: What session methods accept as a threshold: a float, an exact fraction,
#: or a string such as ``"0.9"`` or ``"3/4"``.
ThetaSpec = Union[float, Fraction, str]


def parse_theta(value: ThetaSpec) -> Fraction:
    """Parse a threshold and check it lies in ``[0, 1]``.

    Accepts floats, :class:`~fractions.Fraction` instances and strings in
    either decimal (``"0.9"``) or fraction (``"3/4"``) notation.  Raises
    :class:`~repro.exceptions.RequestError` with a readable message on
    malformed input or a value outside ``[0, 1]``.
    """
    try:
        if isinstance(value, bool):
            raise TypeError("bool")
        if isinstance(value, str):
            text = value.strip()
            # Fraction("3/-4") already fails to parse, but reject any
            # signed denominator explicitly with a readable message.
            if "/" in text and text.split("/", 1)[1].strip().startswith(("-", "+")):
                raise RequestError(
                    f"theta fractions must have an unsigned denominator, got {value!r}"
                )
            theta = Fraction(text)
        elif isinstance(value, (int, Fraction)):
            theta = Fraction(value)
        elif isinstance(value, float):
            if not math.isfinite(value):
                raise RequestError(f"theta must be a finite number, got {value!r}")
            # Same float semantics as repro.core.encoder.to_fraction: 0.9
            # means 9/10, not its binary approximation.
            theta = Fraction(value).limit_denominator(10_000)
        else:
            raise TypeError(type(value).__name__)
    except RequestError:
        raise
    except (ValueError, ZeroDivisionError, TypeError, OverflowError):
        raise RequestError(
            f"theta must be a number or a fraction string such as '0.9' or '3/4', got {value!r}"
        ) from None
    if not Fraction(0) <= theta <= Fraction(1):
        raise RequestError(f"theta must lie in [0, 1], got {value!r} = {float(theta):g}")
    return theta


def _check_positive_int(value: object, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise RequestError(f"{what} must be a positive integer, got {value!r}")
    return value


def parse_wire_term(value: object, allow_literal: bool = True) -> object:
    """Decode one triple term from its wire spelling.

    ``URI``/``Literal`` instances pass through.  Strings use an
    N-Triples-flavoured convention: ``"..."`` (quoted) becomes a
    :class:`Literal` (with ``\\n``/``\\"``-style escapes undone, the
    inverse of ``Literal.n3``), ``<...>`` an explicit :class:`URI`, and
    any other string a URI — matching how the rest of the library coerces
    plain strings.  Non-string scalars become literals.
    """
    if isinstance(value, (URI, Literal)):
        if isinstance(value, Literal) and not allow_literal:
            raise RequestError(f"expected a URI, got the literal {value!r}")
        return value
    if isinstance(value, str):
        if len(value) >= 2 and value[0] == '"' and value[-1] == '"':
            if not allow_literal:
                raise RequestError(f"expected a URI, got the literal {value!r}")
            from repro.rdf.ntriples import unescape_literal

            try:
                return Literal(unescape_literal(value[1:-1]))
            except ValueError as error:
                raise RequestError(str(error)) from None
        if len(value) >= 2 and value[0] == "<" and value[-1] == ">":
            value = value[1:-1]
        try:
            return URI(value)
        except RDFError as error:
            raise RequestError(str(error)) from None
    if (
        allow_literal
        and isinstance(value, (int, float))
        and not isinstance(value, bool)
    ):
        # Numeric scalars become literals of their decimal form; null and
        # booleans are client mistakes, not literals spelled 'None'/'True'.
        return Literal(value)
    raise RequestError(f"cannot use {value!r} as a triple term")


def _coerce_triples(entries: object, what: str) -> Tuple[Triple, ...]:
    """Normalise a wire/keyword triple collection into ``Triple`` objects."""
    if isinstance(entries, (str, bytes)) or not isinstance(entries, (list, tuple)):
        raise RequestError(
            f"'{what}' must be a list of (subject, predicate, object) triples, "
            f"got {entries!r}"
        )
    triples = []
    for entry in entries:
        # Triple instances are re-coerced rather than passed through: a
        # NamedTuple does not validate its fields, and an ill-typed term
        # (a literal predicate, a raw string) must be rejected *here* so
        # that applying a validated request can never fail half-way
        # through and leave a graph partially mutated.
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise RequestError(
                f"every '{what}' entry must be a 3-element (s, p, o) sequence, "
                f"got {entry!r}"
            )
        s, p, o = entry
        triples.append(
            Triple(
                parse_wire_term(s, allow_literal=False),
                parse_wire_term(p, allow_literal=False),
                parse_wire_term(o),
            )
        )
    return tuple(triples)


@dataclass(frozen=True)
class MutationRequest:
    """Mutate a dataset's RDF graph in place: removals first, then inserts.

    Triples may be :class:`~repro.rdf.terms.Triple` instances or
    ``(s, p, o)`` 3-sequences; string terms follow the wire convention of
    :func:`parse_wire_term` (``"..."`` literal, otherwise URI).  Removals
    are applied before insertions, so a triple named in both ends up
    present (a re-insert).  No-op entries (inserting a present triple,
    deleting an absent one) are allowed and simply do not contribute to
    the resulting delta.
    """

    add: Tuple[Triple, ...] = ()
    remove: Tuple[Triple, ...] = ()

    def validated(self) -> "MutationRequest":
        """Coerce every add/remove entry to a Triple up front (atomicity)."""
        return replace(
            self,
            add=_coerce_triples(self.add, "add"),
            remove=_coerce_triples(self.remove, "remove"),
        )


@dataclass(frozen=True)
class EvaluateRequest:
    """Evaluate σ_r of the whole dataset for one rule."""

    rule: RuleSpec = "Cov"
    #: Also report the exact value as a ``"numerator/denominator"`` string.
    exact: bool = False

    def validated(self) -> "EvaluateRequest":
        """Check the rule spec type."""
        if not isinstance(self.rule, (str, Rule)):
            raise RequestError(f"rule must be a name, rule text or Rule, got {self.rule!r}")
        return self


@dataclass(frozen=True)
class RefineRequest:
    """Highest-θ sort refinement for a fixed number of implicit sorts ``k``."""

    rule: RuleSpec = "Cov"
    k: int = 2
    step: ThetaSpec = Fraction(1, 100)
    initial_theta: Optional[ThetaSpec] = None
    max_probes: int = 200
    witness_skip: bool = True

    def validated(self) -> "RefineRequest":
        """Validate k/probe bounds and normalise θ fields to Fractions."""
        _check_positive_int(self.k, "k")
        _check_positive_int(self.max_probes, "max_probes")
        step = parse_theta(self.step)
        if step == 0:
            raise RequestError("the theta search step must be positive")
        initial = None if self.initial_theta is None else parse_theta(self.initial_theta)
        return replace(self, step=step, initial_theta=initial)


@dataclass(frozen=True)
class LowestKRequest:
    """Lowest ``k`` admitting a refinement with a fixed threshold θ."""

    rule: RuleSpec = "Cov"
    theta: ThetaSpec = Fraction(9, 10)
    direction: str = "auto"
    k_min: int = 1
    k_max: Optional[int] = None
    witness_skip: bool = True

    def validated(self) -> "LowestKRequest":
        """Validate the k range and direction; normalise θ to a Fraction."""
        theta = parse_theta(self.theta)
        if self.direction not in ("up", "down", "auto"):
            raise RequestError(
                f"direction must be 'up', 'down' or 'auto', got {self.direction!r}"
            )
        _check_positive_int(self.k_min, "k_min")
        if self.k_max is not None:
            _check_positive_int(self.k_max, "k_max")
            if self.k_max < self.k_min:
                raise RequestError(f"invalid k range [{self.k_min}, {self.k_max}]")
        return replace(self, theta=theta)


@dataclass(frozen=True)
class SweepRequest:
    """Highest-θ refinements for a whole range of ``k`` values.

    The session runs the ``k`` values through *one* shared encoder, so the
    per-sort constraint blocks and case coefficients are built once and the
    sweep state moves incrementally from one ``k`` to the next.
    """

    rule: RuleSpec = "Cov"
    k_values: Tuple[int, ...] = field(default=(2, 3, 4))
    step: ThetaSpec = Fraction(1, 100)
    max_probes: int = 200
    witness_skip: bool = True

    def validated(self) -> "SweepRequest":
        """Validate every k and the step; normalise θ fields to Fractions."""
        values = tuple(self.k_values)
        if not values:
            raise RequestError("k_values must name at least one k")
        for k in values:
            _check_positive_int(k, "every k in k_values")
        step = parse_theta(self.step)
        if step == 0:
            raise RequestError("the theta search step must be positive")
        _check_positive_int(self.max_probes, "max_probes")
        return replace(self, k_values=values, step=step)
