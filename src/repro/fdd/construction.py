"""The FDD construction algorithm (Section 3, Fig. 7).

Builds an ordered FDD equivalent to a rule sequence by appending rules one
at a time to a *partial* FDD (an FDD lacking only the completeness
property).  For each node reached with the remainder of a rule:

1. The part of the rule's value set not covered by any existing outgoing
   edge gets a new edge pointing at a fresh decision path built from the
   rest of the rule (those packets match no earlier rule).
2. For each existing edge, the overlap with the rule's value set is pushed
   down into the edge's subgraph; when an edge is only partially
   overlapped it is first split in two with the subgraph replicated, so
   earlier rules' semantics are untouched.

Terminal nodes absorb nothing: a packet that reaches a terminal already
matched an earlier (higher-priority) rule, and first-match wins.

The construction is performed over the firewall's schema order, so the
result is an *ordered* FDD (Definition 4.1) ready for the shaping
algorithm.  Theorem 1 bounds the number of paths by ``(2n - 1)^d`` for
``n`` simple rules over ``d`` fields.
"""

from __future__ import annotations

from typing import Sequence

from repro.exceptions import PolicyError
from repro.fields.schema import FieldSchema
from repro.guard.context import GuardContext
from repro.intervals.intervalset import IntervalSet
from repro.policy.decision import Decision
from repro.policy.firewall import Firewall
from repro.policy.rule import Rule
from repro.fdd.fdd import FDD
from repro.fdd.node import Edge, InternalNode, Node, TerminalNode

__all__ = ["construct_fdd", "append_rule", "build_decision_path"]


def build_decision_path(
    schema: FieldSchema,
    sets: Sequence[IntervalSet],
    decision: Decision,
    start: int,
) -> Node:
    """Build the one-path partial FDD for fields ``start .. d-1``.

    This is the paper's "partial FDD constructed from a single rule": a
    chain of internal nodes, one per remaining field, ending in a terminal
    labelled ``decision``.
    """
    node: Node = TerminalNode(decision)
    for index in range(len(schema) - 1, start - 1, -1):
        internal = InternalNode(index)
        internal.add_edge(sets[index], node)
        node = internal
    return node


def _append(
    node: Node,
    schema: FieldSchema,
    sets: Sequence[IntervalSet],
    decision: Decision,
    index: int,
    guard: GuardContext | None = None,
) -> bool:
    """Append the rule suffix ``F_index in S_index and ...`` at ``node``.

    Mirrors Fig. 7's APPEND: ``node`` is an internal node labelled with
    field ``index`` (construction keeps all fields on every path, so the
    node's label always equals ``index`` here).

    Returns ``True`` when appending created at least one new decision path
    — i.e. some packet matching the rule suffix falls outside every
    existing edge somewhere below ``node``.  Because a packet only reaches
    a terminal of the partial FDD when an earlier (higher-priority) rule
    matched it, a ``False`` return means every packet of the suffix was
    already decided by earlier rules: the rule is *ineffective* here.
    """
    if guard is not None:
        guard.tick_nodes()
    if isinstance(node, TerminalNode):
        # Packets reaching a terminal matched an earlier rule; first-match
        # resolution means the new rule contributes nothing here.
        return False
    assert node.field_index == index, (
        f"construction invariant broken: node labelled {node.field_index},"
        f" expected {index}"
    )
    rule_set = sets[index]
    added = False

    # Step 1 (Fig. 7 lines 1-4): value-set slice covered by no existing
    # edge gets a fresh edge to a new decision path for the rule's suffix.
    existing_edges = list(node.edges)
    uncovered = rule_set - node.covered()
    if not uncovered.is_empty():
        if index + 1 == len(schema):
            target: Node = TerminalNode(decision)
        else:
            target = build_decision_path(schema, sets, decision, index + 1)
        node.add_edge(uncovered, target)
        added = True

    # Step 2 (Fig. 7 lines 5-13): distribute the overlap over existing
    # edges, splitting partially-overlapped edges and replicating their
    # subgraphs so earlier rules keep their own copies.
    new_edges: list[Edge] = []
    for edge in existing_edges:
        overlap = edge.label & rule_set
        if overlap.is_empty():
            continue  # case (i): S1 and I(e) disjoint -> skip the edge
        if overlap == edge.label:
            # case (ii): edge fully inside the rule's set -> push down.
            added |= _append(edge.target, schema, sets, decision, index + 1, guard)
        else:
            # case (iii): split e into e' (outside) and e'' (overlap), with
            # a replicated subgraph for e''; then push the rule into e''.
            if guard is not None:
                guard.tick_splits()
            outside = edge.label - overlap
            copy: Node = edge.target.clone()
            edge.label = outside
            overlap_edge = Edge(overlap, copy)
            new_edges.append(overlap_edge)
            added |= _append(copy, schema, sets, decision, index + 1, guard)
    node.edges.extend(new_edges)
    return added


def append_rule(fdd: FDD, rule: Rule, *, guard: GuardContext | None = None) -> bool:
    """Append one rule to a partial FDD in place (Fig. 7's outer loop).

    Returns ``True`` iff the rule is *effective* against the rules already
    appended: at least one packet matching it reaches no terminal of the
    current partial diagram, so the append created a new decision path.
    The flag is what :mod:`repro.analysis.effective` uses for FDD-exact
    dead-rule and cumulative-shadowing detection.

    In-place and therefore *not* atomic under budget exhaustion: a
    :class:`~repro.exceptions.BudgetExceededError` mid-append can leave
    ``fdd`` partially updated.  Guarded callers should prefer
    :func:`construct_fdd`, which builds into a private diagram and either
    returns it whole or raises without exposing it.
    """
    return _append(fdd.root, fdd.schema, rule.predicate.sets, rule.decision, 0, guard)


def construct_fdd(firewall: Firewall, *, guard: GuardContext | None = None) -> FDD:
    """Construct an ordered FDD equivalent to ``firewall`` (Section 3.2).

    The firewall must be comprehensive (the paper's standing assumption);
    the returned diagram satisfies both consistency and completeness and
    maps every packet to ``firewall(packet)``.

    ``guard`` bounds the construction (node expansions, edge splits, the
    deadline); on exhaustion the partial diagram is discarded and a
    :class:`~repro.exceptions.BudgetExceededError` propagates — the
    function either returns a complete FDD or nothing.

    >>> from repro.fields import toy_schema
    >>> from repro.policy import Firewall, Rule, ACCEPT, DISCARD
    >>> schema = toy_schema(9, 9)
    >>> fw = Firewall(schema, [
    ...     Rule.build(schema, ACCEPT, F1=(3, 5)),
    ...     Rule.build(schema, DISCARD),
    ... ])
    >>> fdd = construct_fdd(fw)
    >>> fdd.evaluate((4, 0)).name, fdd.evaluate((6, 0)).name
    ('accept', 'discard')
    """
    rules = firewall.rules
    if not rules:
        raise PolicyError("cannot construct an FDD from an empty firewall")
    first = rules[0]
    root = build_decision_path(
        firewall.schema, first.predicate.sets, first.decision, 0
    )
    fdd = FDD(firewall.schema, root)
    for rule in rules[1:]:
        if guard is not None:
            guard.checkpoint("construction.rule")
        append_rule(fdd, rule, guard=guard)
    return fdd
