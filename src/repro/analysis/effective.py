"""FDD-exact effective-rule analysis: which rules can ever take effect?

The pairwise anomaly taxonomy (:mod:`repro.analysis.anomaly`) only sees
two rules at a time, so it provably misses *cumulative* shadowing — a rule
fully covered by the **union** of several earlier rules, none of which
contains it alone.  This module decides effectiveness exactly, using the
paper's own FDD construction (Section 3, Fig. 7): rules are appended one
at a time to a partial FDD, and a rule is *effective* iff its append
creates at least one new decision path (some packet matching the rule
reaches no terminal of the partial diagram, i.e. matches no earlier rule).

For each ineffective (dead) rule the analysis also decides, exactly,
whether the rule is *shadowed*: some packet matching it receives a
different decision from the earlier rules than the rule itself specifies.
A dead rule whose whole predicate is decided identically by earlier rules
is merely redundant dead weight; a shadowed rule is a silently overridden
intent and therefore an error-severity finding in :mod:`repro.lint`.

Attribution uses the first-match decomposition of the rule's predicate:
walking earlier rules in priority order while peeling the residual
(box subtraction, as in :func:`repro.analysis.redundancy
.find_upward_redundant`) yields, for every earlier rule, the exact region
it first-matches inside the dead rule's predicate — so the conflicting
contributors and a concrete witness packet come out of the same sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fdd.fdd import FDD
from repro.fdd.node import TerminalNode, iter_nodes
from repro.fdd.store import NodeStore
from repro.guard.context import GuardContext
from repro.intervals.intervalset import IntervalSet
from repro.policy.decision import Decision
from repro.policy.firewall import Firewall
from repro.analysis.redundancy import _subtract_box

__all__ = ["EffectiveRule", "EffectiveAnalysis", "effective_rules"]


@dataclass(frozen=True)
class EffectiveRule:
    """Exact effectiveness facts for one rule.

    ``conflicting`` lists the earlier rule indices that first-match part
    of this rule's predicate *with a different decision* (empty unless the
    rule is dead — effective rules are analysed for reachability only).
    ``witness`` is a packet proving the shadowing: it matches this rule
    but first-matches ``conflicting[0]``.
    """

    index: int
    #: True when some packet first-matches this rule.
    effective: bool
    #: True when the rule is dead *and* earlier rules decide part of its
    #: predicate differently (cumulative shadowing; exact).
    shadowed: bool
    #: Earlier rule indices first-matching part of the predicate with a
    #: different decision, in priority order.
    conflicting: tuple[int, ...]
    #: A packet matched by this rule but decided differently by the
    #: policy, or ``None`` when the rule is not shadowed.
    witness: tuple[int, ...] | None


@dataclass(frozen=True)
class EffectiveAnalysis:
    """Whole-policy effectiveness: per-rule facts plus taken decisions."""

    firewall: Firewall
    rules: tuple[EffectiveRule, ...]
    #: The decisions the policy actually assigns to at least one packet.
    decisions_taken: frozenset[Decision]
    #: The complete policy's FDD, a free by-product of the incremental
    #: construction: the final append root *is* the canonical reduced
    #: ordered FDD.
    fdd: FDD
    #: The :class:`~repro.fdd.store.NodeStore` holding ``fdd`` —
    #: reusable for further products over the same policy.
    store: NodeStore

    def dead_indices(self) -> list[int]:
        """Indices of rules no packet can ever first-match."""
        return [r.index for r in self.rules if not r.effective]

    def shadowed_indices(self) -> list[int]:
        """Indices of cumulatively shadowed rules (dead + conflict)."""
        return [r.index for r in self.rules if r.shadowed]

    def decisions_never_taken(self) -> list[Decision]:
        """Decisions named by some rule but assigned to no packet, in
        first-appearance order."""
        out: list[Decision] = []
        for rule in self.firewall.rules:
            if rule.decision not in self.decisions_taken and rule.decision not in out:
                out.append(rule.decision)
        return out


def _conflict_sweep(
    firewall: Firewall, index: int
) -> tuple[tuple[int, ...], tuple[int, ...] | None]:
    """First-match decomposition of rule ``index``'s predicate.

    Peels the predicate against earlier rules in priority order; every
    earlier rule whose overlap with the remaining residual is non-empty
    first-matches exactly that region.  Returns the conflicting
    contributor indices and a witness packet from the first conflict.
    """
    rule = firewall[index]
    residual: list[tuple[IntervalSet, ...]] = [rule.predicate.sets]
    conflicting: list[int] = []
    witness: tuple[int, ...] | None = None
    for earlier_index in range(index):
        if not residual:
            break
        earlier = firewall[earlier_index]
        box = earlier.predicate.sets
        overlap_box: tuple[IntervalSet, ...] | None = None
        for region in residual:
            overlap = tuple(a & b for a, b in zip(region, box))
            if not any(o.is_empty() for o in overlap):
                overlap_box = overlap
                break
        if overlap_box is None:
            continue
        if earlier.decision != rule.decision:
            conflicting.append(earlier_index)
            if witness is None:
                witness = tuple(values.min() for values in overlap_box)
        residual = _subtract_box(residual, box)
    return tuple(conflicting), witness


def effective_rules(
    firewall: Firewall,
    *,
    guard: GuardContext | None = None,
    engine: str = "fast",
    store: NodeStore | None = None,
) -> EffectiveAnalysis:
    """Decide, exactly, which rules take effect and which are shadowed.

    Effectiveness comes from incremental FDD construction (a rule is dead
    iff appending it to the partial FDD of the earlier rules adds no
    decision path); shadowing of dead rules from the exact first-match
    decomposition of their predicates.  ``guard`` bounds the construction
    exactly as in :func:`repro.fdd.construct_fdd`.

    The partial FDD lives in a :class:`~repro.fdd.store.NodeStore` and
    appending is *functional*: interning makes structural equality
    identity, so a rule is dead iff :meth:`NodeStore.append
    <repro.fdd.store.NodeStore.append>` returns the root unchanged
    (``new_root is root``) — no path counting needed, and shared
    subtrees are appended to once instead of once per path.  The tests
    cross-validate the facts against the paper-literal mutable-tree
    append.

    ``store`` supplies the :class:`NodeStore` the partial diagrams are
    interned in; callers that run further products over the same policy
    — the lint engine, the audit pipeline — pass their own store so the
    final diagram (returned on the analysis as ``fdd``) shares labels and
    memo tables with that later work.

    ``engine`` accepts only ``"fast"``: it remains so callers written
    against the former two-engine signature keep working.

    >>> from repro.fields import toy_schema
    >>> from repro.policy import Firewall, Rule, ACCEPT, DISCARD
    >>> schema = toy_schema(9)
    >>> fw = Firewall(schema, [Rule.build(schema, ACCEPT, F1=(0, 3)),
    ...                        Rule.build(schema, ACCEPT, F1=(4, 7)),
    ...                        Rule.build(schema, DISCARD, F1=(1, 6)),
    ...                        Rule.build(schema, DISCARD)])
    >>> analysis = effective_rules(fw)
    >>> analysis.shadowed_indices()  # r3 covered by r1 | r2, decisions differ
    [2]
    >>> analysis.rules[2].conflicting
    (0, 1)
    """
    if engine != "fast":
        raise ValueError(f"unknown engine {engine!r}; only 'fast' remains")
    rules = firewall.rules
    first = rules[0]
    effective = [True]  # the first rule always first-matches its predicate
    store = store if store is not None else NodeStore()
    root = store.chain(
        tuple(store.intern_set(s) for s in first.predicate.sets),
        first.decision,
    )
    for rule in rules[1:]:
        if guard is not None:
            guard.checkpoint("effective.rule")
        new_root = store.append(root, rule.predicate.sets, rule.decision, guard=guard)
        effective.append(new_root is not root)
        root = new_root

    facts: list[EffectiveRule] = []
    for index, is_effective in enumerate(effective):
        if is_effective:
            facts.append(
                EffectiveRule(
                    index=index,
                    effective=True,
                    shadowed=False,
                    conflicting=(),
                    witness=None,
                )
            )
            continue
        conflicting, witness = _conflict_sweep(firewall, index)
        facts.append(
            EffectiveRule(
                index=index,
                effective=False,
                shadowed=bool(conflicting),
                conflicting=conflicting,
                witness=witness,
            )
        )

    taken = frozenset(
        node.decision
        for node in iter_nodes(root)
        if isinstance(node, TerminalNode)
    )
    return EffectiveAnalysis(
        firewall=firewall,
        rules=tuple(facts),
        decisions_taken=taken,
        fdd=FDD(firewall.schema, root),
        store=store,
    )
