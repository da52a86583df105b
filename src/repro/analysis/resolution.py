"""Discrepancy resolution (Section 6 of the paper).

After the teams decide the correct decision for every functional
discrepancy, the final firewall must reflect those decisions.  The paper
gives two methods, both implemented here, and they provably agree
(property-tested):

* **Method 1 — generate rules from the corrected FDD** (Section 6.1):
  take either shaped FDD, overwrite the terminal of every disputed
  decision path with the resolved decision, then generate a compact rule
  sequence from the corrected diagram with the structured-design
  algorithms (reduction, marking, generation, compaction).

* **Method 2 — combine corrections with an original firewall**
  (Section 6.2): pick one team's firewall, prepend a rule for every
  resolved discrepancy on which that team was wrong, then remove
  redundant rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.analysis.discrepancy import Discrepancy
from repro.exceptions import ResolutionError
from repro.fdd.construction import construct_fdd
from repro.fdd.fdd import FDD
from repro.fdd.generation import generate_firewall
from repro.fdd.node import InternalNode, Node, TerminalNode
from repro.fdd.shaping import make_semi_isomorphic
from repro.intervals import IntervalSet
from repro.policy.decision import Decision
from repro.policy.firewall import Firewall
from repro.policy.rule import Rule

__all__ = [
    "ResolvedDiscrepancy",
    "resolve_with",
    "prefer_team",
    "aggregate_resolutions",
    "corrected_fdd",
    "resolve_by_corrected_fdd",
    "resolve_by_patching",
]


@dataclass(frozen=True)
class ResolvedDiscrepancy:
    """One discrepancy together with the decision the teams agreed on."""

    discrepancy: Discrepancy
    decision: Decision

    def correcting_rule(self) -> Rule:
        """The rule enforcing the agreed decision over the disputed region."""
        return Rule(self.discrepancy.predicate, self.decision)

    def describe(self) -> str:
        """Human-readable rendering including both original positions."""
        d = self.discrepancy
        return (
            f"{d.predicate.describe()}: a said {d.decision_a}, b said"
            f" {d.decision_b}; resolved to {self.decision}"
        )


def resolve_with(
    discrepancies: Sequence[Discrepancy],
    chooser: Callable[[Discrepancy], Decision],
) -> list[ResolvedDiscrepancy]:
    """Resolve every discrepancy with a decision function.

    ``chooser`` embodies the teams' discussion: it receives each
    discrepancy and returns the agreed decision.
    """
    return [ResolvedDiscrepancy(disc, chooser(disc)) for disc in discrepancies]


def prefer_team(
    discrepancies: Sequence[Discrepancy], team: str
) -> list[ResolvedDiscrepancy]:
    """Resolve every discrepancy in favour of team ``"a"`` or ``"b"``.

    A convenience (and test fixture): with all discrepancies resolved
    toward one team, both resolution methods must reproduce that team's
    semantics exactly.
    """
    if team not in ("a", "b"):
        raise ResolutionError(f"team must be 'a' or 'b', got {team!r}")
    return [
        ResolvedDiscrepancy(
            disc, disc.decision_a if team == "a" else disc.decision_b
        )
        for disc in discrepancies
    ]


def aggregate_resolutions(
    resolutions: Sequence[ResolvedDiscrepancy],
) -> list[ResolvedDiscrepancy]:
    """Merge resolved slivers that share decisions *and* the agreed fix.

    Resolution must run on fine-grained discrepancies — a merged region
    can straddle packets the teams would resolve differently (e.g. the
    paper resolves malicious-source e-mail to discard but other e-mail to
    accept, and those cells merge along the source field).  For *display*
    (the paper's Table 4), slivers with identical ``(decision_a,
    decision_b, resolved)`` triples merge safely.
    """
    from collections import defaultdict

    from repro.analysis.aggregate import _merge_boxes

    if not resolutions:
        return []
    groups: dict[tuple, list[ResolvedDiscrepancy]] = defaultdict(list)
    for resolution in resolutions:
        disc = resolution.discrepancy
        groups[(disc.decision_a, disc.decision_b, resolution.decision)].append(
            resolution
        )
    merged: list[ResolvedDiscrepancy] = []
    for (dec_a, dec_b, resolved), members in groups.items():
        schema = members[0].discrepancy.schema
        boxes = _merge_boxes(
            [member.discrepancy.sets for member in members], len(schema)
        )
        for sets in boxes:
            merged.append(
                ResolvedDiscrepancy(Discrepancy(schema, sets, dec_a, dec_b), resolved)
            )
    merged.sort(
        key=lambda r: (
            r.decision.name,
            tuple(values.min() for values in r.discrepancy.sets),
        )
    )
    return merged


def _resolution_for(
    sets: tuple[IntervalSet, ...],
    resolutions: Sequence[ResolvedDiscrepancy],
) -> ResolvedDiscrepancy | None:
    """The unique resolution whose region contains the box ``sets``.

    Regions of distinct resolutions are disjoint, so containment of the
    box's every field set decides membership.
    """
    for resolution in resolutions:
        region = resolution.discrepancy.sets
        if all(a.issubset(b) for a, b in zip(sets, region)):
            return resolution
    return None


def corrected_fdd(
    fw_a: Firewall,
    fw_b: Firewall,
    resolutions: Sequence[ResolvedDiscrepancy],
) -> FDD:
    """Method 1, step 1: a shaped FDD with all disputed terminals fixed.

    Shapes the two firewalls' FDDs semi-isomorphic, walks the companion
    paths, and overwrites the terminal of every path lying inside a
    resolved region.  Raises :class:`ResolutionError` if some disputed
    path is not covered by any resolution (the teams forgot one) — the
    final firewall must be *unanimously agreed*, so partial resolutions
    are rejected.
    """
    shaped_a, shaped_b = make_semi_isomorphic(
        construct_fdd(fw_a), construct_fdd(fw_b)
    )
    schema = shaped_a.schema
    domains = tuple(f.domain_set for f in schema)

    def rec(na: Node, nb: Node, sets: tuple[IntervalSet, ...]) -> None:
        if isinstance(na, TerminalNode):
            assert isinstance(nb, TerminalNode)
            resolution = _resolution_for(sets, resolutions)
            if resolution is not None:
                na.decision = resolution.decision
            elif na.decision != nb.decision:
                raise ResolutionError(
                    "unresolved discrepancy at "
                    + ", ".join(str(s) for s in sets)
                    + f": a says {na.decision}, b says {nb.decision};"
                    " every discrepancy must be resolved before generation"
                )
            return
        assert isinstance(na, InternalNode) and isinstance(nb, InternalNode)
        ea = sorted(na.edges, key=lambda e: e.label.min())
        eb = sorted(nb.edges, key=lambda e: e.label.min())
        for edge_a, edge_b in zip(ea, eb):
            new_sets = (
                sets[: na.field_index]
                + (edge_a.label,)
                + sets[na.field_index + 1:]
            )
            rec(edge_a.target, edge_b.target, new_sets)

    rec(shaped_a.root, shaped_b.root, domains)
    return shaped_a


def resolve_by_corrected_fdd(
    fw_a: Firewall,
    fw_b: Firewall,
    resolutions: Sequence[ResolvedDiscrepancy],
    *,
    name: str = "resolved",
) -> Firewall:
    """Method 1 (Section 6.1): correct an FDD, then generate rules from it.

    >>> from repro.fdd import compare_firewalls
    >>> from repro.fields import toy_schema
    >>> from repro.policy import Firewall, Rule, ACCEPT, DISCARD
    >>> schema = toy_schema(9)
    >>> fa = Firewall(schema, [Rule.build(schema, ACCEPT)])
    >>> fb = Firewall(schema, [Rule.build(schema, DISCARD, F1=(0, 4)),
    ...                        Rule.build(schema, ACCEPT)])
    >>> discs = compare_firewalls(fa, fb)
    >>> final = resolve_by_corrected_fdd(fa, fb, prefer_team(discs, "b"))
    >>> final((2,)) == DISCARD and final((7,)) == ACCEPT
    True
    """
    fixed = corrected_fdd(fw_a, fw_b, resolutions)
    return generate_firewall(fixed, name=name)


def resolve_by_patching(
    base: Firewall,
    resolutions: Iterable[ResolvedDiscrepancy],
    *,
    base_is: str = "a",
    name: str = "resolved",
) -> Firewall:
    """Method 2 (Section 6.2): prepend fixes to an original firewall.

    ``base`` is one team's original firewall and ``base_is`` says which
    side of each discrepancy that team took (``"a"`` or ``"b"``).  Rules
    are prepended only for discrepancies where the base team's decision
    differs from the agreed one; redundant rules are then removed, as
    the method prescribes.
    """
    if base_is not in ("a", "b"):
        raise ResolutionError(f"base_is must be 'a' or 'b', got {base_is!r}")
    fixes: list[Rule] = []
    for resolution in resolutions:
        disc = resolution.discrepancy
        base_decision = disc.decision_a if base_is == "a" else disc.decision_b
        if base_decision != resolution.decision:
            fixes.append(resolution.correcting_rule())
    from repro.analysis.redundancy import remove_redundant_rules

    patched = base.prepend(*fixes) if fixes else base
    return remove_redundant_rules(patched).with_name(name)
