"""Encoding firewalls as BDDs over packet bits (Section 7.5 baseline).

Every packet field becomes its binary expansion (most significant bit
first, lower variable indices); a ``d``-field schema with bit widths
``w_1 .. w_d`` yields ``sum(w_i)`` BDD variables (104 for the standard
five-field schema).  A firewall maps to the characteristic function of
its *accept set* under first-match semantics:

    accept = OR_i [ decision_i permits ] . match_i AND NOT (match_1 OR ... OR match_{i-1})

Interval membership ``x in [lo, hi]`` is the conjunction of the classic
bit-serial ``x >= lo`` and ``x <= hi`` comparators.
"""

from __future__ import annotations

from repro.bdd.bdd import FALSE, TRUE, BDDManager
from repro.exceptions import BDDError
from repro.fields.schema import FieldSchema
from repro.intervals.intervalset import IntervalSet
from repro.policy.firewall import Firewall
from repro.policy.predicate import Predicate

__all__ = ["FirewallEncoder"]


def _bit_width(max_value: int) -> int:
    """Bits needed for values ``0..max_value`` (at least one)."""
    return max(1, max_value.bit_length())


class FirewallEncoder:
    """Encodes predicates and firewalls of one schema into one manager.

    >>> from repro.fields import toy_schema
    >>> from repro.policy import Firewall, Rule, ACCEPT, DISCARD
    >>> schema = toy_schema(7, 7)
    >>> enc = FirewallEncoder(schema)
    >>> fw = Firewall(schema, [Rule.build(schema, DISCARD, F1=(0, 3)),
    ...                        Rule.build(schema, ACCEPT)])
    >>> accept = enc.encode_accept_set(fw)
    >>> enc.manager.count_solutions(accept)  # F1 in [4,7] x F2 in [0,7]
    32
    """

    def __init__(self, schema: FieldSchema):
        self.schema = schema
        self.widths = [_bit_width(f.max_value) for f in schema]
        self.offsets: list[int] = []
        offset = 0
        for width in self.widths:
            self.offsets.append(offset)
            offset += width
        self.manager = BDDManager(offset)

    # ------------------------------------------------------------------
    # Field-level encodings
    # ------------------------------------------------------------------
    def _value_bits(self, field_index: int, value: int) -> list[int]:
        width = self.widths[field_index]
        if value >= (1 << width):
            raise BDDError(
                f"value {value} needs more than {width} bits (field {field_index})"
            )
        return [(value >> (width - 1 - bit)) & 1 for bit in range(width)]

    def encode_geq(self, field_index: int, lo: int) -> int:
        """BDD of ``field >= lo`` (bit-serial comparator, MSB first)."""
        manager = self.manager
        offset = self.offsets[field_index]
        bits = self._value_bits(field_index, lo)
        # Build from the least significant bit upward.
        result = TRUE
        for position in range(len(bits) - 1, -1, -1):
            variable = offset + position
            if bits[position]:
                # bound bit 1: need packet bit 1 and rest >= remainder.
                result = manager.ite(manager.var(variable), result, FALSE)
            else:
                # bound bit 0: packet bit 1 wins outright, else recurse.
                result = manager.ite(manager.var(variable), TRUE, result)
        return result

    def encode_leq(self, field_index: int, hi: int) -> int:
        """BDD of ``field <= hi``."""
        manager = self.manager
        offset = self.offsets[field_index]
        bits = self._value_bits(field_index, hi)
        result = TRUE
        for position in range(len(bits) - 1, -1, -1):
            variable = offset + position
            if bits[position]:
                result = manager.ite(manager.var(variable), result, TRUE)
            else:
                result = manager.ite(manager.var(variable), FALSE, result)
        return result

    def encode_interval_set(self, field_index: int, values: IntervalSet) -> int:
        """BDD of ``field in values``."""
        field = self.schema[field_index]
        if values == field.domain_set:
            # Careful: the bit universe may exceed the domain; constrain
            # to the domain rather than returning TRUE when they differ.
            if field.max_value + 1 == (1 << self.widths[field_index]):
                return TRUE
        result = FALSE
        for interval in values.intervals:
            piece = self.manager.and_(
                self.encode_geq(field_index, interval.lo),
                self.encode_leq(field_index, interval.hi),
            )
            result = self.manager.or_(result, piece)
        return result

    # ------------------------------------------------------------------
    # Predicate / firewall encodings
    # ------------------------------------------------------------------
    def encode_predicate(self, predicate: Predicate) -> int:
        """BDD of a rule predicate (conjunction over fields)."""
        result = TRUE
        for field_index, values in enumerate(predicate.sets):
            result = self.manager.and_(
                result, self.encode_interval_set(field_index, values)
            )
            if result == FALSE:
                break
        return result

    def encode_accept_set(self, firewall: Firewall) -> int:
        """BDD of the packets the firewall permits (first-match semantics)."""
        if firewall.schema != self.schema:
            raise BDDError("firewall schema does not match the encoder's schema")
        manager = self.manager
        accept = FALSE
        covered = FALSE
        for rule in firewall.rules:
            match = self.encode_predicate(rule.predicate)
            effective = manager.diff(match, covered)
            if rule.decision.permits:
                accept = manager.or_(accept, effective)
            covered = manager.or_(covered, match)
        return accept

    def domain_constraint(self) -> int:
        """BDD restricting every field to its (possibly non-power-of-two)
        domain; AND this into counts when domains don't fill their bits."""
        result = TRUE
        for field_index, field in enumerate(self.schema):
            result = self.manager.and_(
                result, self.encode_leq(field_index, field.max_value)
            )
        return result
