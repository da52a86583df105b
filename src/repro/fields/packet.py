"""Packets: points in the field-schema universe.

A packet over fields ``F_1 ... F_d`` is a ``d``-tuple of integers, one per
field domain (Section 3.1).  :class:`Packet` wraps the tuple with schema
validation and pretty-printing; :class:`PacketSampler` draws random packets
for property tests and brute-force semantic checks.
"""

from __future__ import annotations

import random
from typing import Iterator, Sequence

from repro.exceptions import SchemaError
from repro.fields.schema import FieldSchema
from repro.intervals.intervalset import IntervalSet

__all__ = ["Packet", "PacketSampler", "enumerate_universe"]


class Packet(tuple):
    """An immutable packet: a tuple of field values plus its schema.

    Subclasses :class:`tuple` so packets index, hash, and compare like the
    bare tuples used throughout the algorithms, while still being able to
    render themselves with their schema's vocabulary.
    """

    __slots__ = ()

    _schema: FieldSchema | None = None

    def __new__(cls, values: Sequence[int], schema: FieldSchema | None = None):
        values = tuple(values)
        if schema is not None:
            if len(values) != len(schema):
                raise SchemaError(
                    f"packet has {len(values)} values but schema has {len(schema)} fields"
                )
            for value, field in zip(values, schema):
                if not 0 <= value <= field.max_value:
                    raise SchemaError(
                        f"value {value} out of domain [0, {field.max_value}]"
                        f" for field {field.name}"
                    )
        self = super().__new__(cls, values)
        return self

    def describe(self, schema: FieldSchema) -> str:
        """Render the packet using the schema's per-field vocabulary.

        >>> from repro.fields import toy_schema
        >>> Packet((1, 2)).describe(toy_schema(9, 9))
        'F1=1, F2=2'
        """
        parts = []
        for value, field in zip(self, schema):
            rendered = field.format_value_set(IntervalSet.single(value))
            parts.append(f"{field.name}={rendered}")
        return ", ".join(parts)


class PacketSampler:
    """Draws random packets from a schema's universe, optionally biased.

    Uniform sampling over e.g. the 2^104 universe of the standard schema
    almost never hits interesting rule boundaries, so the sampler can also
    draw packets *from* a given region (sequence of per-field interval
    sets) — property tests use this to probe each reported discrepancy.
    """

    def __init__(self, schema: FieldSchema, seed: int | None = None):
        self.schema = schema
        self._rng = random.Random(seed)

    def uniform(self) -> Packet:
        """One packet drawn uniformly from the whole universe."""
        return Packet(
            tuple(self._rng.randint(0, f.max_value) for f in self.schema)
        )

    def uniform_many(self, count: int) -> list[Packet]:
        """``count`` independent uniform packets."""
        return [self.uniform() for _ in range(count)]

    def from_region(self, region: Sequence[IntervalSet]) -> Packet:
        """One packet drawn uniformly from a per-field interval-set region."""
        if len(region) != len(self.schema):
            raise SchemaError(
                f"region has {len(region)} fields, schema has {len(self.schema)}"
            )
        return Packet(tuple(values.sample(self._rng) for values in region))

    def near_boundaries(self, boundary_values: Sequence[Sequence[int]]) -> Packet:
        """One packet whose fields are drawn from given boundary value pools.

        ``boundary_values[i]`` is a non-empty pool of interesting values
        for field ``i`` (typically rule-interval endpoints +/- 1).  This is
        the high-yield sampler for differential testing: decision changes
        happen at rule boundaries.
        """
        values = []
        for field, pool in zip(self.schema, boundary_values):
            pool = [v for v in pool if 0 <= v <= field.max_value]
            if not pool:
                values.append(self._rng.randint(0, field.max_value))
            else:
                values.append(self._rng.choice(pool))
        return Packet(tuple(values))


def enumerate_universe(schema: FieldSchema) -> Iterator[Packet]:
    """Yield every packet of a (small!) schema universe.

    Only usable with toy schemas; guards against accidental exponential
    blowups by refusing universes above one million packets.
    """
    size = schema.universe_size()
    if size > 1_000_000:
        raise SchemaError(
            f"refusing to enumerate a universe of {size} packets; use PacketSampler"
        )

    def rec(prefix: tuple[int, ...], index: int) -> Iterator[Packet]:
        if index == len(schema):
            yield Packet(prefix)
            return
        for value in range(schema[index].max_value + 1):
            yield from rec(prefix + (value,), index + 1)

    yield from rec((), 0)
