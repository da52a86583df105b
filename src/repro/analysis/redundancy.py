"""Redundant-rule detection and removal (Complete Redundancy Detection in
Firewalls [19]; needed by Section 6's resolution Method 2, step 2).

"A rule is redundant if and only if removing the rule does not change the
semantics of the firewall."  Two complementary detectors:

* :func:`find_upward_redundant` — rules no packet can reach because the
  rules above them already cover their whole predicate.  Detected
  symbolically with box subtraction (cheap, sound, not complete).
* :func:`find_redundant_rules` / :func:`remove_redundant_rules` — the
  complete semantic criterion, decided without building any candidate
  policy.  As in [19], the work splits into an upward part computed going
  forward and a downward part computed going backward, all in one
  hash-consed :class:`~repro.fdd.store.NodeStore`:

  - the prefix diagrams ``Pre_<i`` (rules above ``i``) come from
    :meth:`~repro.fdd.store.NodeStore.append`;
  - the suffix diagrams ``S_>i`` (rules below ``i``) come from
    :meth:`~repro.fdd.store.NodeStore.prepend`;
  - rule ``i`` is redundant iff every packet in its box that ``Pre_<i``
    leaves undecided gets ``d_i`` from ``S_>i``.  One memoized walk over
    the node pair ``(Pre_<i, S_>i)``, restricted to the box, decides it.
    A packet ``S_>i`` leaves undecided too would make the policy
    non-comprehensive without the rule, so it fails the test.

``remove_redundant_rules`` applies the complete criterion greedily from
the top of the policy, re-checking against the current (already slimmed)
policy so the result is minimal with respect to single-rule removals.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.fdd.node import InternalNode, Node, TerminalNode
from repro.fdd.passes import fold
from repro.fdd.store import NodeStore
from repro.fields.schema import FieldSchema
from repro.guard.context import GuardContext
from repro.intervals.intervalset import IntervalSet
from repro.policy.firewall import Firewall
from repro.policy.rule import Rule

__all__ = [
    "find_upward_redundant",
    "find_redundant_rules",
    "remove_redundant_rules",
]


def find_upward_redundant(firewall: Firewall) -> list[int]:
    """Indices of rules that no packet reaches.

    Maintains the part of each rule's predicate not covered by earlier
    rules as a set of boxes (per-field interval-set products); a rule
    whose residual is empty is upward redundant.  Purely symbolic, no
    enumeration; exact for this redundancy class.
    """
    redundant: list[int] = []
    earlier: list[tuple[IntervalSet, ...]] = []
    for index, rule in enumerate(firewall.rules):
        residual: list[tuple[IntervalSet, ...]] = [rule.predicate.sets]
        for covered in earlier:
            residual = _subtract_box(residual, covered)
            if not residual:
                break
        if not residual:
            redundant.append(index)
        earlier.append(rule.predicate.sets)
    return redundant


def _subtract_box(
    regions: list[tuple[IntervalSet, ...]], box: tuple[IntervalSet, ...]
) -> list[tuple[IntervalSet, ...]]:
    """Subtract one box from a list of boxes (standard peeling)."""
    out: list[tuple[IntervalSet, ...]] = []
    for region in regions:
        overlap = tuple(a & b for a, b in zip(region, box))
        if any(o.is_empty() for o in overlap):
            out.append(region)
            continue
        remainder = list(region)
        for i in range(len(remainder)):
            outside = remainder[i] - box[i]
            if not outside.is_empty():
                piece = tuple(
                    overlap[j] if j < i else (outside if j == i else remainder[j])
                    for j in range(len(remainder))
                )
                out.append(piece)
            remainder[i] = overlap[i]
    return out


def _suffix_roots(
    rules: Sequence[Rule], store: NodeStore, guard: GuardContext | None
) -> tuple[list[Node | None], Node]:
    """``S_>i`` for every ``i`` (``None`` below the last rule), plus the
    whole policy's root, built by prepending from the last rule up."""
    suffixes: list[Node | None] = [None] * len(rules)
    root: Node | None = None
    for index in range(len(rules) - 1, -1, -1):
        suffixes[index] = root
        root = _put(store, root, rules[index], guard, backward=True)
    assert root is not None
    return suffixes, root


def _put(
    store: NodeStore,
    node: Node | None,
    rule: Rule,
    guard: GuardContext | None,
    *,
    backward: bool = False,
) -> Node:
    """``node`` with ``rule`` appended (or prepended when ``backward``);
    the rule's own chain when ``node`` is the empty diagram."""
    sets = rule.predicate.sets
    if node is None:
        return store.chain(tuple(store.intern_set(s) for s in sets), rule.decision)
    put = store.prepend if backward else store.append
    return put(node, sets, rule.decision, guard=guard)


def _decides_everything(root: Node, schema: FieldSchema, store: NodeStore) -> bool:
    """True when the diagram decides every packet (a comprehensive policy)."""

    def internal(node: InternalNode, below: tuple[bool, ...]) -> bool:
        covered = IntervalSet.empty()
        for edge in node.edges:
            covered = store.union(covered, edge.label)
        return all(below) and covered == schema.domain(node.field_index)

    return fold(root, terminal=lambda node: True, internal=internal)


def _removable(
    prefix: Node | None,
    suffix: Node | None,
    rule: Rule,
    store: NodeStore,
    guard: GuardContext | None,
) -> bool:
    """Whether ``rule`` between ``prefix`` and ``suffix`` can go.

    True iff every packet in the rule's box that ``prefix`` leaves
    undecided gets the rule's decision from ``suffix``.  The walk descends
    the node pair level by level, splitting the box's values over both
    sides' edges; ``None`` is the empty diagram (everything undecided).
    Memoized on node pairs for this rule; ``guard`` ticks once per visit,
    before the memo lookup.
    """
    box = tuple(store.intern_set(s) for s in rule.predicate.sets)
    decision = rule.decision
    num_fields = len(box)
    memo: dict[tuple[int, int], bool] = {}

    def split(
        node: Node | None, values: IntervalSet
    ) -> Iterator[tuple[IntervalSet, Node | None]]:
        # ``node``'s edges are disjoint, so peeling each overlap off
        # ``values`` leaves exactly the part no edge covers.
        if node is not None:
            for edge in node.edges:  # type: ignore[union-attr]
                common = store.intersect(edge.label, values)
                if common.is_empty():
                    continue
                yield common, edge.target
                values = store.subtract(values, common)
                if values.is_empty():
                    return
        if not values.is_empty():
            yield values, None

    def rec(pre: Node | None, suf: Node | None, level: int) -> bool:
        if guard is not None:
            guard.tick_nodes()
            if guard.fault is not None:
                guard.fault.fire("redundancy.walk")
        if isinstance(pre, TerminalNode):
            return True  # an earlier rule decides: the rule is never seen
        if suf is None and pre is None:
            return False  # nothing below decides: removal leaves a hole
        if level == num_fields:
            return suf.decision == decision  # type: ignore[union-attr]
        key = (id(pre), id(suf))
        found = memo.get(key)
        if found is not None:
            return found
        result = all(
            rec(pre_child, suf_child, level + 1)
            for pre_values, pre_child in split(pre, box[level])
            for _, suf_child in split(suf, pre_values)
        )
        memo[key] = result
        return result

    return rec(prefix, suffix, 0)


def find_redundant_rules(
    firewall: Firewall,
    *,
    guard: GuardContext | None = None,
    store: NodeStore | None = None,
) -> list[int]:
    """Indices of rules that are individually redundant (complete criterion).

    Each index ``i`` satisfies: the firewall without rule ``i`` is
    semantically equivalent to the original.  Note removals interact — two
    individually-redundant rules may not both be removable; use
    :func:`remove_redundant_rules` to actually slim a policy.

    One backward pass prepends the suffix diagrams ``S_>i``, one forward
    pass appends the prefix diagrams ``Pre_<i``, and each rule costs one
    box-restricted walk over ``(Pre_<i, S_>i)``; no candidate policy is
    ever built.  Pass the ``store`` that already holds the policy (the
    lint engine's, after its effectiveness analysis) and the forward
    appends are memo hits.

    ``guard`` bounds the work across all rules (one shared budget, per
    the guard's accumulation semantics), with a ``redundancy.candidate``
    checkpoint before each rule's walk.
    """
    if store is None:
        store = NodeStore()
    rules = firewall.rules
    suffixes, root = _suffix_roots(rules, store, guard)
    if not _decides_everything(root, firewall.schema, store):
        return []  # every removal would leave the policy non-comprehensive
    redundant: list[int] = []
    prefix: Node | None = None
    for index, rule in enumerate(rules):
        if guard is not None:
            guard.checkpoint("redundancy.candidate")
        if _removable(prefix, suffixes[index], rule, store, guard):
            redundant.append(index)
        prefix = _put(store, prefix, rule, guard)
    return redundant


def remove_redundant_rules(
    firewall: Firewall, *, guard: GuardContext | None = None
) -> Firewall:
    """Greedily drop redundant rules, top-down, until none remain.

    Preserves semantics exactly (each removal is verified with the
    complete criterion of :func:`find_redundant_rules`) and keeps the
    policy comprehensive.

    Each sweep prepends the sweep's starting policy once, then walks
    forward over it: rule ``i`` is tested between the diagram of the
    rules kept so far and ``S_>i`` — exactly the policy the sweep would
    leave by dropping it.  Removing one rule can make another
    (previously load-bearing) rule redundant, so sweeps repeat until one
    removes nothing.

    >>> from repro.fields import toy_schema
    >>> from repro.policy import Firewall, Rule, ACCEPT, DISCARD
    >>> schema = toy_schema(9)
    >>> fw = Firewall(schema, [Rule.build(schema, ACCEPT, F1=(0, 3)),
    ...                        Rule.build(schema, ACCEPT, F1=(2, 3)),
    ...                        Rule.build(schema, DISCARD)])
    >>> len(remove_redundant_rules(fw))
    2
    """
    store = NodeStore()
    current = firewall.rules
    suffixes, root = _suffix_roots(current, store, guard)
    if not _decides_everything(root, firewall.schema, store):
        return firewall  # every removal would leave the policy non-comprehensive
    while True:
        kept: list[Rule] = []
        prefix: Node | None = None
        for index, rule in enumerate(current):
            if guard is not None:
                guard.checkpoint("redundancy.candidate")
            if not _removable(prefix, suffixes[index], rule, store, guard):
                kept.append(rule)
                prefix = _put(store, prefix, rule, guard)
        if len(kept) == len(current):
            break
        current = tuple(kept)
        suffixes, _ = _suffix_roots(current, store, guard)
    if len(current) == len(firewall):
        return firewall
    # Comprehensive by construction: every removal passed the walk.
    return Firewall(
        firewall.schema, current, name=firewall.name, require_comprehensive=False
    )
