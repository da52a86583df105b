"""Firewall generation from an FDD (Structured Firewall Design [12]).

Turns an FDD back into an equivalent first-match rule sequence — the last
step of resolution Method 1 ("most existing firewall devices take a
sequence of rules as their configuration", Section 6.1).

Generation is a DFS that, at each internal node, emits the rule families
of the *unmarked* outgoing edges first (their labels become predicate
conjuncts) and the marked edge's family last with the conjunct widened to
the field's whole domain.  Disjointness of sibling edge labels makes the
order among unmarked families irrelevant; first-match makes the widened
marked family correct.  The result always ends in a catch-all rule, hence
is comprehensive.

``compact=True`` additionally drops redundant rules using
:func:`repro.analysis.redundancy.remove_redundant_rules` — the paper's
firewall compaction step [19].
"""

from __future__ import annotations

from repro.fields.schema import FieldSchema
from repro.guard.context import GuardContext
from repro.intervals.intervalset import IntervalSet
from repro.policy.decision import Decision
from repro.policy.firewall import Firewall
from repro.policy.predicate import Predicate
from repro.policy.rule import Rule
from repro.fdd.fdd import FDD
from repro.fdd.marking import Marking, mark_fdd
from repro.fdd.node import InternalNode, Node, TerminalNode
from repro.fdd.reduce import reduce_fdd
from repro.fdd.store import NodeStore

__all__ = ["generate_firewall", "generate_rules"]


def generate_rules(
    fdd: FDD,
    marking: Marking | None = None,
    *,
    guard: GuardContext | None = None,
) -> list[Rule]:
    """Generate an ordered rule list equivalent to ``fdd``.

    ``marking`` defaults to the load-minimizing marking of
    :func:`repro.fdd.marking.mark_fdd`.  ``guard`` ticks one node per
    visit (the rule count equals the path count, so the node budget also
    bounds output size); the traversal is read-only.
    """
    if marking is None:
        marking = mark_fdd(fdd) if isinstance(fdd.root, InternalNode) else {}
    schema: FieldSchema = fdd.schema
    domains = tuple(f.domain_set for f in schema)

    def rec(node: Node, sets: tuple[IntervalSet, ...]) -> list[tuple[tuple[IntervalSet, ...], Decision]]:
        if guard is not None:
            guard.tick_nodes()
            if guard.fault is not None:
                guard.fault.fire("generation.visit")
        if isinstance(node, TerminalNode):
            return [(sets, node.decision)]
        chosen = marking.get(id(node))
        if chosen is None:
            chosen = node.edges[-1]
        ordered = [e for e in node.edges if e is not chosen] + [chosen]
        out: list[tuple[tuple[IntervalSet, ...], Decision]] = []
        for edge in ordered:
            label = domains[node.field_index] if edge is chosen else edge.label
            new_sets = (
                sets[: node.field_index] + (label,) + sets[node.field_index + 1:]
            )
            out.extend(rec(edge.target, new_sets))
        return out

    return [
        Rule(Predicate(schema, sets), decision)
        for sets, decision in rec(fdd.root, domains)
    ]


def generate_firewall(
    fdd: FDD,
    *,
    name: str = "",
    reduce: bool = True,
    compact: bool = True,
    guard: GuardContext | None = None,
    store: "NodeStore | None" = None,
) -> Firewall:
    """Generate a compact firewall equivalent to ``fdd`` (Method 1, step 2).

    ``reduce`` first merges isomorphic subgraphs (fewer, wider paths =>
    fewer generated rules); ``compact`` removes redundant rules from the
    generated sequence.  ``store`` routes the reduction into an existing
    :class:`~repro.fdd.store.NodeStore` (store-backed inputs reduce in
    O(1) — interning is idempotent).

    >>> from repro.fields import toy_schema
    >>> from repro.policy import Firewall, Rule, ACCEPT, DISCARD
    >>> from repro.fdd.construction import construct_fdd
    >>> schema = toy_schema(9, 9)
    >>> fw = Firewall(schema, [Rule.build(schema, DISCARD, F1=(2, 4)),
    ...                        Rule.build(schema, ACCEPT)])
    >>> regenerated = generate_firewall(construct_fdd(fw))
    >>> all(regenerated(p) == fw(p) for p in [(0, 0), (3, 9), (9, 9)])
    True
    """
    if guard is not None:
        guard.checkpoint("generation.start")
    if reduce:
        fdd = reduce_fdd(fdd, store=store)
    rules = generate_rules(fdd, guard=guard)
    firewall = Firewall(fdd.schema, rules, name=name)
    if compact:
        # Local import: repro.analysis sits above this module in the
        # layering.
        from repro.analysis.redundancy import remove_redundant_rules

        firewall = remove_redundant_rules(firewall, guard=guard)
    return firewall
