"""Rule predicates: conjunctions of per-field interval sets.

A predicate "defines a set of packets over the fields F1 through Fd
specified as ``F1 in S1 and ... and Fd in Sd``, where each Si is a
nonempty" subset of the field's domain (Section 3.1).  The paper's *simple*
rules restrict each ``S_i`` to a single interval; we store the general
interval-set form and expose :meth:`Predicate.is_simple` plus
:meth:`Predicate.split_simple` to move between the two.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.exceptions import PolicyError, SchemaError
from repro.fields.packet import Packet
from repro.fields.schema import FieldSchema
from repro.intervals.interval import Interval
from repro.intervals.intervalset import IntervalSet

__all__ = ["Predicate"]


class Predicate:
    """An immutable conjunction ``F1 in S1 and ... and Fd in Sd``.

    ``sets[i]`` is the (non-empty) :class:`IntervalSet` for the ``i``-th
    schema field.  Predicates are hashable and compare by value.
    """

    __slots__ = ("_schema", "_sets", "_hash")

    def __init__(self, schema: FieldSchema, sets: Sequence[IntervalSet]):
        sets = tuple(sets)
        if len(sets) != len(schema):
            raise SchemaError(
                f"predicate has {len(sets)} conjuncts, schema has {len(schema)} fields"
            )
        for values, field in zip(sets, schema):
            if values.is_empty():
                raise PolicyError(
                    f"predicate conjunct for field {field.name} is empty; "
                    "the paper requires each S_i to be nonempty"
                )
            if not values.issubset(field.domain_set):
                raise SchemaError(
                    f"conjunct {values} exceeds domain [0, {field.max_value}]"
                    f" of field {field.name}"
                )
        self._schema = schema
        self._sets = sets
        self._hash: int | None = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def match_all(cls, schema: FieldSchema) -> "Predicate":
        """The predicate every packet matches (each ``S_i = D(F_i)``)."""
        return cls(schema, tuple(f.domain_set for f in schema))

    @classmethod
    def from_fields(cls, schema: FieldSchema, **conjuncts: IntervalSet | Interval | int | str) -> "Predicate":
        """Build a predicate from keyword per-field constraints.

        Unnamed fields default to the whole domain.  Values may be an
        :class:`IntervalSet`, an :class:`Interval`, a ``(lo, hi)`` tuple,
        a plain integer, or a string parsed in the field's vocabulary:

        >>> from repro.fields import standard_schema
        >>> p = Predicate.from_fields(standard_schema(),
        ...                           dst_ip="192.168.0.1", dst_port="smtp")
        """
        sets: list[IntervalSet] = []
        remaining = dict(conjuncts)
        for field in schema:
            value = remaining.pop(field.name, None)
            if value is None:
                sets.append(field.domain_set)
            elif isinstance(value, IntervalSet):
                sets.append(value)
            elif isinstance(value, Interval):
                sets.append(IntervalSet([value]))
            elif isinstance(value, tuple):
                lo, hi = value
                sets.append(IntervalSet.span(lo, hi))
            elif isinstance(value, int):
                sets.append(IntervalSet.single(value))
            elif isinstance(value, str):
                sets.append(field.parse_value_set(value))
            else:
                raise SchemaError(
                    f"unsupported conjunct type {type(value).__name__} for {field.name}"
                )
        if remaining:
            raise SchemaError(f"unknown fields in predicate: {sorted(remaining)}")
        return cls(schema, tuple(sets))

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def schema(self) -> FieldSchema:
        """The field schema this predicate is defined over."""
        return self._schema

    @property
    def sets(self) -> tuple[IntervalSet, ...]:
        """The per-field interval sets, in schema order."""
        return self._sets

    def __getitem__(self, index: int) -> IntervalSet:
        return self._sets[index]

    def field_set(self, name: str) -> IntervalSet:
        """The conjunct for the field named ``name``."""
        return self._sets[self._schema.index_of(name)]

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------
    def matches(self, packet: Packet | Sequence[int]) -> bool:
        """Return ``True`` if the packet satisfies every conjunct."""
        return all(value in values for value, values in zip(packet, self._sets))

    def is_match_all(self) -> bool:
        """Return ``True`` if every conjunct is the whole field domain."""
        return all(
            values == field.domain_set for values, field in zip(self._sets, self._schema)
        )

    def is_simple(self) -> bool:
        """True if every conjunct is a single interval (paper's simple rule)."""
        return all(values.is_single_interval() for values in self._sets)

    def size(self) -> int:
        """Number of packets matching the predicate (product of cardinalities)."""
        total = 1
        for values in self._sets:
            total *= values.count()
        return total

    def intersect(self, other: "Predicate") -> "Predicate | None":
        """Conjunction of two predicates, or ``None`` when unsatisfiable."""
        if other._schema != self._schema:
            raise SchemaError("cannot intersect predicates over different schemas")
        sets = []
        for a, b in zip(self._sets, other._sets):
            common = a & b
            if common.is_empty():
                return None
            sets.append(common)
        return Predicate(self._schema, tuple(sets))

    def implies(self, other: "Predicate") -> bool:
        """True if every packet matching ``self`` also matches ``other``."""
        if other._schema != self._schema:
            raise SchemaError("cannot compare predicates over different schemas")
        return all(a.issubset(b) for a, b in zip(self._sets, other._sets))

    def overlaps(self, other: "Predicate") -> bool:
        """True if some packet matches both predicates."""
        if other._schema != self._schema:
            raise SchemaError("cannot compare predicates over different schemas")
        return all(not (a & b).is_empty() for a, b in zip(self._sets, other._sets))

    def split_simple(self) -> Iterator["Predicate"]:
        """Yield simple predicates whose disjoint union equals ``self``.

        Each conjunct's interval set is expanded into its component
        intervals; the cross product of the components enumerates the
        simple predicates.  Used to feed algorithms stated over simple
        rules (e.g. Theorem 1's bound).
        """

        def rec(index: int, chosen: tuple[IntervalSet, ...]) -> Iterator[Predicate]:
            if index == len(self._sets):
                yield Predicate(self._schema, chosen)
                return
            for iv in self._sets[index].intervals:
                yield from rec(index + 1, chosen + (IntervalSet([iv]),))

        yield from rec(0, ())

    # ------------------------------------------------------------------
    # Value semantics / presentation
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Predicate):
            return NotImplemented
        return self._schema == other._schema and self._sets == other._sets

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._schema, self._sets))
        return self._hash

    def describe(self, *, skip_all: bool = True, format_value=None) -> str:
        """Render in the field vocabulary, e.g. ``dst_ip=192.168.0.1, dst_port=25 (smtp)``.

        Whole-domain conjuncts are omitted when ``skip_all`` (the paper's
        convention: "we can ... remove the conjunct Fi in D(Fi) altogether").
        An all-domain predicate renders as ``any``.  ``format_value(index,
        values)``, when given, renders each conjunct in place of the
        field's :meth:`~repro.fields.Field.format_value_set` (a render's
        memo, see :func:`repro.analysis.discrepancy.label_formatter`).
        """
        parts = []
        for index, (values, field) in enumerate(zip(self._sets, self._schema)):
            if skip_all and values == field.domain_set:
                continue
            text = (
                field.format_value_set(values)
                if format_value is None
                else format_value(index, values)
            )
            parts.append(f"{field.name}={text}")
        return ", ".join(parts) if parts else "any"

    def __repr__(self) -> str:
        return f"Predicate({self.describe()})"

    def __str__(self) -> str:
        return self.describe()
