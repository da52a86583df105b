"""Functional discrepancies between two firewalls.

A discrepancy is a non-empty set of packets (a per-field interval-set
product) on which the two policies decide differently, together with both
decisions.  The comparison algorithm (Section 5) emits one discrepancy per
pair of companion rules with different decisions; the aggregation pass
(:mod:`repro.analysis.aggregate`) merges adjacent ones into the coarse,
human-readable regions the paper's Table 3 shows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

from repro.fields.packet import Packet
from repro.fields.schema import FieldSchema
from repro.intervals.intervalset import IntervalSet
from repro.policy.decision import Decision
from repro.policy.predicate import Predicate
from repro.policy.rule import Rule

__all__ = [
    "Discrepancy",
    "ComparisonReport",
    "format_discrepancy_table",
    "label_formatter",
]


@dataclass(frozen=True)
class Discrepancy:
    """Packets where firewall *a* and firewall *b* disagree.

    ``sets[i]`` constrains the ``i``-th schema field; every packet in the
    product region gets ``decision_a`` from the first firewall and
    ``decision_b`` from the second.
    """

    schema: FieldSchema
    sets: tuple[IntervalSet, ...]
    decision_a: Decision
    decision_b: Decision

    def __post_init__(self) -> None:
        assert self.decision_a != self.decision_b, (
            "a discrepancy must carry two different decisions"
        )

    @cached_property
    def predicate(self) -> Predicate:
        """The disputed packet region as a predicate (built once)."""
        return Predicate(self.schema, self.sets)

    def rule_a(self) -> Rule:
        """The companion rule as firewall *a* decides it."""
        return Rule(self.predicate, self.decision_a)

    def rule_b(self) -> Rule:
        """The companion rule as firewall *b* decides it."""
        return Rule(self.predicate, self.decision_b)

    def size(self) -> int:
        """Number of disputed packets."""
        return self.predicate.size()

    def contains(self, packet: Packet | Sequence[int]) -> bool:
        """True if ``packet`` lies in the disputed region."""
        return all(value in values for value, values in zip(packet, self.sets))

    def describe(self) -> str:
        """One-line human-readable rendering, e.g.::

            src_ip=224.168.0.0/16, dst_ip=192.168.0.1, dst_port=25 (smtp):
                a says accept, b says discard
        """
        return (
            f"{self.predicate.describe()}: a says {self.decision_a},"
            f" b says {self.decision_b}"
        )

    def __str__(self) -> str:
        return self.describe()


@dataclass(frozen=True)
class ComparisonReport:
    """The sampled result of :func:`repro.analysis.approximate.approximate_compare`.

    The degraded mode a budget-exhausted comparison falls back to: every
    cell is a real single-packet disagreement, but the sample covers only
    ``coverage`` of the packet universe, so an empty report proves
    nothing (docs/robustness.md).
    """

    #: The disagreeing packets found, one single-packet cell each.
    discrepancies: tuple[Discrepancy, ...]
    #: Fraction of the packet universe the sample covers (usually tiny).
    coverage: float
    #: Distinct packets evaluated by the sampler.
    sampled_packets: int


def label_formatter(schema: FieldSchema) -> Callable[[int, IntervalSet], str]:
    """``fmt(index, values)``: ``schema[index].format_value_set(values)``,
    rendering each distinct ``(index, values)`` once.

    Aggregated regions share most of their labels, and an IP label's
    prefix cover is the costly part of a render.  The memo lives only as
    long as the returned function, one table or report render, so a
    long-lived process keeps no label cache.
    """
    fields = schema.fields
    memo: dict[tuple[int, IntervalSet], str] = {}

    def fmt(index: int, values: IntervalSet) -> str:
        key = (index, values)
        text = memo.get(key)
        if text is None:
            text = memo[key] = fields[index].format_value_set(values)
        return text

    return fmt


def format_discrepancy_table(
    discrepancies: Sequence[Discrepancy],
    *,
    name_a: str = "A",
    name_b: str = "B",
    title: str | None = None,
) -> str:
    """Fixed-width table in the style of the paper's Table 3.

    One column per field plus one decision column per firewall.
    """
    if not discrepancies:
        return "(no functional discrepancies)"
    schema = discrepancies[0].schema
    headers = ["#"] + [f.symbol for f in schema] + [name_a, name_b]
    fmt = label_formatter(schema)
    rows: list[list[str]] = []
    for i, disc in enumerate(discrepancies, start=1):
        cells = [str(i)]
        for index, values in enumerate(disc.sets):
            cells.append(fmt(index, values))
        cells.append(str(disc.decision_a))
        cells.append(str(disc.decision_b))
        rows.append(cells)
    widths = [
        max(len(headers[c]), *(len(row[c]) for row in rows))
        for c in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)
