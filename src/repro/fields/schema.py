"""Packet-field schemas.

A *field* ``F_i`` is "a variable whose domain ... is a finite interval of
nonnegative integers" (Section 3.1).  A :class:`FieldSchema` is the ordered
tuple of fields a firewall examines; the order matters because the
construction algorithm produces *ordered* FDDs whose decision paths follow
the schema order (Definition 4.1).

Two standard schemas are provided:

* :func:`standard_schema` — the five fields real-life firewalls check
  (Section 7.1): source IP, destination IP, source port, destination
  port, protocol.
* :func:`interface_schema` — the paper's running-example schema
  (Section 2): interface, source IP, destination IP, destination port,
  protocol.

Each field knows its *kind*, which selects the parser/formatter used for
human-readable I/O (CIDR prefixes for IPs, service names for ports, IANA
names for protocols).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from enum import Enum
from typing import Iterator

from repro.addr.ipv4 import IPV4_MAX, ascii_digits
from repro.addr.ports import PORT_MAX, format_port_set, parse_port_range
from repro.addr.prefix import format_ip_set, parse_prefix
from repro.addr.protocol import PROTOCOL_MAX, format_protocol_set, parse_protocol
from repro.exceptions import AddressError, SchemaError
from repro.intervals.interval import Interval
from repro.intervals.intervalset import IntervalSet

__all__ = [
    "FieldKind",
    "Field",
    "FieldSchema",
    "standard_schema",
    "interface_schema",
    "toy_schema",
]


class FieldKind(Enum):
    """How a field's values are parsed and rendered."""

    #: IPv4 address: parses CIDR prefixes / dotted quads, renders prefixes.
    IP = "ip"
    #: 16-bit port: parses numbers, ranges, and service names.
    PORT = "port"
    #: 8-bit protocol: parses IANA names and numbers.
    PROTOCOL = "protocol"
    #: Small enumerated field (e.g. the running example's interface).
    INTERFACE = "interface"
    #: Plain integer field with no special vocabulary.
    GENERIC = "generic"


@dataclass(frozen=True, slots=True)
class Field:
    """One packet field: a name, a kind, and a domain ``[0, max_value]``."""

    name: str
    kind: FieldKind
    max_value: int
    #: Short symbol used in compact rule rendering (e.g. ``S`` for source IP).
    symbol: str = ""
    #: The domain as an interval set, built once (see :attr:`domain_set`).
    _domain_set: IntervalSet = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.max_value < 0:
            raise SchemaError(f"field {self.name!r} has negative domain max")
        if not self.symbol:
            object.__setattr__(self, "symbol", self.name[0].upper())
        object.__setattr__(self, "_domain_set", IntervalSet.span(0, self.max_value))

    @property
    def domain(self) -> Interval:
        """The field's domain as a single interval ``[0, max_value]``."""
        return Interval(0, self.max_value)

    @property
    def domain_set(self) -> IntervalSet:
        """The field's domain as an :class:`IntervalSet` (one shared,
        immutable instance per field)."""
        return self._domain_set

    def domain_size(self) -> int:
        """Number of values in the domain (``|D(F_i)|`` in the paper)."""
        return self.max_value + 1

    # ------------------------------------------------------------------
    # Human-readable I/O
    # ------------------------------------------------------------------
    def parse_value_set(self, text: str) -> IntervalSet:
        """Parse a textual value set for this field into an interval set.

        Accepts ``any``/``all``/``*``, comma-separated atoms, per-kind
        vocabulary (prefixes, service names, protocol names), plain
        integers, and ``lo-hi`` ranges.
        """
        text = text.strip()
        if text.lower() in ("any", "all", "*"):
            return self.domain_set
        lowered = text.lower()
        for negation in ("all except ", "not "):
            if lowered.startswith(negation):
                inner = self.parse_value_set(text[len(negation):])
                return self.domain_set - inner
        intervals: list[Interval] = []
        # '|' and ',' both separate alternatives ('|' is what the rule-line
        # format uses, since ',' separates whole conjuncts there).
        for atom in text.replace("|", ",").split(","):
            atom = atom.strip()
            if not atom:
                raise AddressError(f"empty atom in value set {text!r} for {self.name}")
            intervals.append(self._parse_atom(atom))
        values = IntervalSet(intervals)
        if not values.issubset(self.domain_set):
            raise SchemaError(
                f"value set {text!r} exceeds domain [0, {self.max_value}] of {self.name}"
            )
        return values

    def _parse_atom(self, atom: str) -> Interval:
        if self.kind is FieldKind.IP:
            if "-" in atom and "/" not in atom:
                lo_txt, _, hi_txt = atom.partition("-")
                from repro.addr.ipv4 import ip_to_int

                lo, hi = ip_to_int(lo_txt), ip_to_int(hi_txt)
                if lo > hi:
                    raise AddressError(f"IP range {atom!r} has lo > hi")
                return Interval(lo, hi)
            return parse_prefix(atom).to_interval()
        if self.kind is FieldKind.PORT:
            return parse_port_range(atom)
        if self.kind is FieldKind.PROTOCOL:
            return parse_protocol(atom)
        # INTERFACE and GENERIC: integers and lo-hi ranges.
        if "-" in atom:
            lo_txt, _, hi_txt = atom.partition("-")
            if ascii_digits(lo_txt.strip()) and ascii_digits(hi_txt.strip()):
                lo, hi = int(lo_txt), int(hi_txt)
                if lo > hi:
                    raise AddressError(f"range {atom!r} has lo > hi for field {self.name}")
                return Interval(lo, hi)
            raise AddressError(f"bad range {atom!r} for field {self.name}")
        if ascii_digits(atom):
            value = int(atom)
            return Interval(value, value)
        raise AddressError(f"bad value {atom!r} for field {self.name}")

    def format_value_set(self, values: IntervalSet) -> str:
        """Render an interval set in this field's vocabulary."""
        if values == self.domain_set:
            return "all"
        if self.kind is FieldKind.IP:
            return format_ip_set(values, self.max_value)
        if self.kind is FieldKind.PORT:
            return format_port_set(values)
        if self.kind is FieldKind.PROTOCOL:
            return format_protocol_set(values, self.max_value)
        if values.is_empty():
            return "none"
        return ", ".join(
            str(iv.lo) if iv.is_single() else f"{iv.lo}-{iv.hi}"
            for iv in values.intervals
        )


class FieldSchema:
    """An ordered, immutable tuple of :class:`Field` objects.

    The schema induces the total order over fields used by ordered FDDs
    (Definition 4.1) and defines the packet universe ``Sigma`` whose size
    is the product of the field domain sizes (Section 3.1).
    """

    __slots__ = ("_fields", "_index")

    def __init__(self, fields: tuple[Field, ...] | list[Field]):
        fields = tuple(fields)
        if not fields:
            raise SchemaError("a schema needs at least one field")
        names = [f.name for f in fields]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate field names in schema: {names}")
        self._fields = fields
        self._index = {f.name: i for i, f in enumerate(fields)}

    @property
    def fields(self) -> tuple[Field, ...]:
        """The ordered fields."""
        return self._fields

    def __len__(self) -> int:
        return len(self._fields)

    def __iter__(self) -> Iterator[Field]:
        return iter(self._fields)

    def __getitem__(self, index: int) -> Field:
        return self._fields[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldSchema):
            return NotImplemented
        return self._fields == other._fields

    def __hash__(self) -> int:
        return hash(self._fields)

    def index_of(self, name: str) -> int:
        """Position of the field named ``name``; raises if unknown."""
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(f"unknown field {name!r}; schema has {list(self._index)}")

    def field_named(self, name: str) -> Field:
        """The field named ``name``."""
        return self._fields[self.index_of(name)]

    def domain(self, index: int) -> IntervalSet:
        """Domain of the ``index``-th field as an interval set."""
        return self._fields[index].domain_set

    def universe_size(self) -> int:
        """``|Sigma|``: the number of distinct packets over this schema."""
        size = 1
        for f in self._fields:
            size *= f.domain_size()
        return size

    def reordered(self, names: list[str]) -> "FieldSchema":
        """Return a schema with the same fields in a different order.

        Used by the field-order ablation: ordered FDDs over different
        orders have different shapes but identical semantics.
        """
        if sorted(names) != sorted(self._index):
            raise SchemaError(
                f"reorder list {names} must be a permutation of {list(self._index)}"
            )
        return FieldSchema(tuple(self.field_named(n) for n in names))

    def __repr__(self) -> str:
        return f"FieldSchema({', '.join(f.name for f in self._fields)})"


def standard_schema() -> FieldSchema:
    """The five fields real-life firewalls check (Section 7.1).

    source IP, destination IP, source port, destination port, protocol.
    """
    return FieldSchema(
        (
            Field("src_ip", FieldKind.IP, IPV4_MAX, "S"),
            Field("dst_ip", FieldKind.IP, IPV4_MAX, "D"),
            Field("src_port", FieldKind.PORT, PORT_MAX, "T"),
            Field("dst_port", FieldKind.PORT, PORT_MAX, "N"),
            Field("protocol", FieldKind.PROTOCOL, PROTOCOL_MAX, "P"),
        )
    )


def interface_schema(num_interfaces: int = 2, protocol_max: int = 1) -> FieldSchema:
    """The paper's running-example schema (Section 2).

    interface I, source IP S, destination IP D, destination port N,
    protocol P.  The example fixes two interfaces and a binary protocol
    field (0 = TCP, 1 = UDP); both are configurable.
    """
    if num_interfaces < 1:
        raise SchemaError("need at least one interface")
    return FieldSchema(
        (
            Field("interface", FieldKind.INTERFACE, num_interfaces - 1, "I"),
            Field("src_ip", FieldKind.IP, IPV4_MAX, "S"),
            Field("dst_ip", FieldKind.IP, IPV4_MAX, "D"),
            Field("dst_port", FieldKind.PORT, PORT_MAX, "N"),
            Field("protocol", FieldKind.GENERIC, protocol_max, "P"),
        )
    )


def toy_schema(*domain_maxes: int) -> FieldSchema:
    """Tiny generic schema for tests and property-based exploration.

    ``toy_schema(9, 9)`` gives two fields ``F1``, ``F2`` with domains
    ``[0, 9]`` — small enough for brute-force packet enumeration against
    which the algorithms are verified.
    """
    if not domain_maxes:
        domain_maxes = (15, 15)
    return FieldSchema(
        tuple(
            Field(f"F{i + 1}", FieldKind.GENERIC, mx, f"F{i + 1}")
            for i, mx in enumerate(domain_maxes)
        )
    )
