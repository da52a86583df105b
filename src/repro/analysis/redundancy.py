"""Redundant-rule detection and removal (Complete Redundancy Detection in
Firewalls [19]; needed by Section 6's resolution Method 2, step 2).

"A rule is redundant if and only if removing the rule does not change the
semantics of the firewall."  Two complementary detectors:

* :func:`find_upward_redundant` — rules no packet can reach because the
  rules above them already cover their whole predicate.  Detected
  symbolically with box subtraction (cheap, sound, not complete).
* :func:`find_redundant_rules` / :func:`remove_redundant_rules` — the
  complete semantic criterion, decided exactly by building the firewall
  with and without the candidate rule in one hash-consed
  :class:`~repro.fdd.store.NodeStore` and comparing the two roots.

``remove_redundant_rules`` applies the complete criterion greedily from
the top of the policy, re-checking against the current (already slimmed)
policy so the result is minimal with respect to single-rule removals.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.exceptions import NotComprehensiveError
from repro.guard import GuardContext
from repro.intervals import IntervalSet
from repro.policy.firewall import Firewall

if TYPE_CHECKING:
    from repro.fdd.fdd import FDD
    from repro.fdd.node import Node
    from repro.fdd.store import NodeStore

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


def _without_if_redundant(
    firewall: Firewall,
    index: int,
    root: "Node",
    store: "NodeStore",
    guard: GuardContext | None,
) -> Firewall | None:
    """``firewall`` without rule ``index`` if that keeps its semantics.

    ``root`` is the policy's diagram in ``store``.  The candidate is built
    in the same store, which interns each canonical reduced diagram
    exactly once, so it is equivalent iff its root *is* ``root``.
    """
    if guard is not None:
        guard.checkpoint("redundancy.candidate")
    try:
        candidate = firewall.remove(index)
    except NotComprehensiveError:
        return None
    if store.construct(candidate, guard=guard).root is root:
        return candidate
    return None


def find_redundant_rules(
    firewall: Firewall,
    *,
    guard: GuardContext | None = None,
    fdd: "FDD | None" = None,
    store: "NodeStore | None" = None,
) -> list[int]:
    """Indices of rules that are individually redundant (complete criterion).

    Each index ``i`` satisfies: the firewall without rule ``i`` is
    semantically equivalent to the original.  Note removals interact — two
    individually-redundant rules may not both be removable; use
    :func:`remove_redundant_rules` to actually slim a policy.

    ``guard`` bounds the work across *all* candidate removals (one shared
    budget, per the guard's accumulation semantics), with a checkpoint
    before each candidate.

    The original policy's reduced FDD is built **once** (or adopted from
    ``fdd``/``store``, e.g. the lint engine's shared diagram); each
    candidate removal then costs only its own construction in the same
    :class:`~repro.fdd.store.NodeStore`, where the rules before the
    removed one hit the append memo.
    """
    from repro.fdd.store import NodeStore

    if len(firewall) == 1:
        return []
    if store is None:
        store = NodeStore()
    if fdd is None:
        root = store.construct(firewall, guard=guard).root
    else:
        root = store.intern(fdd.root)
    return [
        index
        for index in range(len(firewall))
        if _without_if_redundant(firewall, index, root, store, guard) is not None
    ]


def remove_redundant_rules(
    firewall: Firewall, *, guard: GuardContext | None = None
) -> Firewall:
    """Greedily drop redundant rules, top-down, until none remain.

    Preserves semantics exactly (each removal is verified with the
    complete criterion of :func:`find_redundant_rules`) and keeps the
    policy comprehensive.

    >>> from repro.fields import toy_schema
    >>> from repro.policy import Firewall, Rule, ACCEPT, DISCARD
    >>> schema = toy_schema(9)
    >>> fw = Firewall(schema, [Rule.build(schema, ACCEPT, F1=(0, 3)),
    ...                        Rule.build(schema, ACCEPT, F1=(2, 3)),
    ...                        Rule.build(schema, DISCARD)])
    >>> len(remove_redundant_rules(fw))
    2
    """
    from repro.fdd.store import NodeStore

    store = NodeStore()
    # Every accepted removal keeps the semantics, so this root stays the
    # diagram of ``current`` throughout.
    root = store.construct(firewall, guard=guard).root
    current = firewall
    changed = True
    while changed:
        # Removing one rule can make another (previously load-bearing)
        # rule redundant, so sweep until a full pass removes nothing.
        changed = False
        index = 0
        while index < len(current) and len(current) > 1:
            candidate = _without_if_redundant(current, index, root, store, guard)
            if candidate is None:
                index += 1
            else:
                # Stay at the same index: the next rule shifted into it.
                current = candidate
                changed = True
    return current
