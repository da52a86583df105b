"""Firewall queries (extension; Firewall Queries [20], cited in Section 9).

A query asks: *within a region of interest, which packets does the policy
map to a given decision?*  Examples: "which hosts can reach the mail
server on port 25?", "does any packet from the malicious domain get
accepted?".  Queries are answered exactly by intersecting the region with
the policy's FDD — no packet enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.exceptions import QueryError
from repro.fdd.fast import construct_fdd_fast
from repro.fdd.fdd import FDD
from repro.fdd.node import InternalNode, Node, TerminalNode
from repro.intervals import IntervalSet
from repro.policy.decision import Decision
from repro.policy.firewall import Firewall
from repro.policy.predicate import Predicate

__all__ = ["QueryResult", "query", "any_packet", "decisions_in_region"]


@dataclass(frozen=True)
class QueryResult:
    """The exact answer region of a query, as disjoint predicate boxes."""

    regions: tuple[Predicate, ...]

    def is_empty(self) -> bool:
        """True when no packet in the queried region gets the decision."""
        return not self.regions

    def packet_count(self) -> int:
        """Exact number of matching packets."""
        return sum(region.size() for region in self.regions)

    def describe(self) -> str:
        """One region per line, in rule-like human-readable form."""
        if not self.regions:
            return "(no packets)"
        return "\n".join(region.describe() for region in self.regions)


def _collect(
    node: Node,
    sets: tuple[IntervalSet, ...],
    wanted: Decision | None,
    out: list[tuple[tuple[IntervalSet, ...], Decision]],
) -> None:
    if isinstance(node, TerminalNode):
        if wanted is None or node.decision == wanted:
            out.append((sets, node.decision))
        return
    assert isinstance(node, InternalNode)
    for edge in node.edges:
        overlap = edge.label & sets[node.field_index]
        if overlap.is_empty():
            continue
        new_sets = sets[: node.field_index] + (overlap,) + sets[node.field_index + 1:]
        _collect(edge.target, new_sets, wanted, out)


def _boxes(
    firewall: Firewall | FDD, region: Predicate, wanted: Decision | None
) -> list[tuple[tuple[IntervalSet, ...], Decision]]:
    """The policy's decided boxes inside ``region`` (``wanted`` only, if set)."""
    fdd = firewall if isinstance(firewall, FDD) else construct_fdd_fast(firewall)
    if region.schema != fdd.schema:
        raise QueryError("query region must use the firewall's field schema")
    out: list[tuple[tuple[IntervalSet, ...], Decision]] = []
    _collect(fdd.root, region.sets, wanted, out)
    return out


def query(
    firewall: Firewall | FDD,
    region: Predicate,
    decision: Decision,
) -> QueryResult:
    """Packets inside ``region`` that the policy maps to ``decision``.

    Accepts a :class:`Firewall` (its FDD is constructed on the fly) or a
    pre-built :class:`FDD` (reuse across many queries is much cheaper).

    >>> from repro.fields import toy_schema
    >>> from repro.policy import Firewall, Rule, ACCEPT, DISCARD, Predicate
    >>> schema = toy_schema(9)
    >>> fw = Firewall(schema, [Rule.build(schema, DISCARD, F1=(0, 4)),
    ...                        Rule.build(schema, ACCEPT)])
    >>> query(fw, Predicate.match_all(schema), ACCEPT).packet_count()
    5
    """
    out = _boxes(firewall, region, decision)
    return QueryResult(tuple(Predicate(region.schema, sets) for sets, _ in out))


def any_packet(
    firewall: Firewall | FDD, region: Predicate, decision: Decision
) -> Predicate | None:
    """A witness packet region for the decision inside ``region``, or None.

    The "does any packet from the malicious domain get accepted?" form of
    query; returns one (non-empty) sub-region as evidence.
    """
    result = query(firewall, region, decision)
    return result.regions[0] if result.regions else None


def decisions_in_region(
    firewall: Firewall | FDD, region: Predicate
) -> dict[Decision, int]:
    """Exact per-decision packet counts inside ``region``."""
    counts: dict[Decision, int] = {}
    for sets, decision in _boxes(firewall, region, None):
        size = 1
        for values in sets:
            size *= values.count()
        counts[decision] = counts.get(decision, 0) + size
    return counts
