"""Policy slicing: the part of a firewall that concerns a region.

Large policies are reviewed piecewise — "what does the firewall say
about the mail server?"  A *slice* is a small firewall that agrees with
the original on every packet inside the region of interest (outside the
region its behaviour is unspecified; the slice simply discards).  Built
from the FDD, the slice is exact and typically far smaller than the
original rule list filtered textually — textual filtering misses rules
that affect the region only through first-match shadowing.
"""

from __future__ import annotations

from repro.fdd.fdd import FDD
from repro.fdd.generation import generate_firewall
from repro.fdd.node import Node, TerminalNode
from repro.fdd.store import NodeStore
from repro.exceptions import QueryError
from repro.intervals.intervalset import IntervalSet
from repro.policy.decision import DISCARD, Decision
from repro.policy.firewall import Firewall
from repro.policy.predicate import Predicate

__all__ = ["slice_firewall", "relevant_rules"]


def slice_firewall(
    firewall: Firewall | FDD,
    region: Predicate,
    *,
    outside: Decision = DISCARD,
    name: str = "",
) -> Firewall:
    """A compact firewall agreeing with the input on ``region``.

    Packets outside the region map to ``outside`` (default: discard;
    slices are usually review artifacts, not deployables).

    >>> from repro.fields import toy_schema
    >>> from repro.policy import Firewall, Rule, ACCEPT, DISCARD, Predicate
    >>> schema = toy_schema(9, 9)
    >>> fw = Firewall(schema, [Rule.build(schema, ACCEPT, F1="0-4"),
    ...                        Rule.build(schema, DISCARD)])
    >>> narrow = slice_firewall(fw, Predicate.from_fields(schema, F2="3"))
    >>> narrow((2, 3)) == fw((2, 3))
    True
    """
    store = NodeStore()
    fdd = firewall if isinstance(firewall, FDD) else store.construct(firewall)
    if region.schema != fdd.schema:
        raise QueryError("slice region must use the firewall's field schema")
    outside_terminal = store.terminal(outside)
    memo: dict[int, Node] = {}

    def restrict(node: Node) -> Node:
        found = memo.get(id(node))
        if found is not None:
            return found
        if isinstance(node, TerminalNode):
            made: Node = store.terminal(node.decision)
        else:
            wanted = region.sets[node.field_index]
            edges: list[tuple[IntervalSet, Node]] = []
            for edge in node.edges:
                keep = edge.label & wanted
                drop = edge.label - wanted
                if not keep.is_empty():
                    edges.append((keep, restrict(edge.target)))
                if not drop.is_empty():
                    edges.append((drop, outside_terminal))
            made = store.internal(node.field_index, edges)
        memo[id(node)] = made
        return made

    sliced = FDD(fdd.schema, restrict(fdd.root))
    label = name or (
        f"{getattr(firewall, 'name', '') or 'policy'}[{region.describe()}]"
    )
    return generate_firewall(sliced, name=label, store=store)


def relevant_rules(firewall: Firewall, region: Predicate) -> list[int]:
    """Indices of rules that *decide* some packet in the region.

    A rule is relevant iff some region packet's first match is that rule
    — computed symbolically via residuals, so shadowed rules are
    correctly excluded even when their predicates overlap the region.
    """
    if region.schema != firewall.schema:
        raise QueryError("region must use the firewall's field schema")
    from repro.analysis.redundancy import _subtract_box

    relevant: list[int] = []
    earlier: list[tuple[IntervalSet, ...]] = []
    for index, rule in enumerate(firewall.rules):
        overlap = tuple(
            a & b for a, b in zip(rule.predicate.sets, region.sets)
        )
        if all(not values.is_empty() for values in overlap):
            residual = [overlap]
            for covered in earlier:
                residual = _subtract_box(residual, covered)
                if not residual:
                    break
            if residual:
                relevant.append(index)
        earlier.append(rule.predicate.sets)
    return relevant
