"""Discrepancy resolution (Section 6 of the paper).

After the teams decide the correct decision for every functional
discrepancy, the final firewall must reflect those decisions.  The paper
gives two methods, both implemented here, and they provably agree
(property-tested):

* **Method 1 — generate rules from the corrected FDD** (Section 6.1):
  take one team's FDD, overwrite its decisions inside every disputed
  region with the resolved decision, then generate a compact rule
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
from repro.analysis.redundancy import _subtract_box, remove_redundant_rules
from repro.exceptions import ResolutionError
from repro.fdd.fast import build_difference
from repro.fdd.fdd import FDD
from repro.fdd.generation import generate_firewall
from repro.fdd.store import NodeStore
from repro.intervals.intervalset import IntervalSet
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


def _uncovered(
    sets: tuple[IntervalSet, ...], regions: Iterable[tuple[IntervalSet, ...]]
) -> list[tuple[IntervalSet, ...]]:
    """The parts of the box ``sets`` that no box in ``regions`` covers."""
    leftover = [sets]
    for region in regions:
        leftover = _subtract_box(leftover, region)
        if not leftover:
            break
    return leftover


def corrected_fdd(
    fw_a: Firewall,
    fw_b: Firewall,
    resolutions: Sequence[ResolvedDiscrepancy],
) -> FDD:
    """Method 1, step 1: ``fw_a``'s FDD with every disputed region fixed.

    Builds both firewalls in one :class:`~repro.fdd.store.NodeStore` and
    checks that the resolution regions cover every cell of their
    difference diagram; if one is left uncovered (the teams forgot it),
    raises :class:`ResolutionError` — the final firewall must be
    *unanimously agreed*, so partial resolutions are rejected.  Then each
    resolution's region and decision is put above ``fw_a``'s diagram with
    :meth:`~repro.fdd.store.NodeStore.prepend`, which overwrites the
    terminals inside the region.  Regions of distinct resolutions are
    disjoint, so the order of the prepends does not matter.
    """
    store = NodeStore()
    fdd_a = store.construct(fw_a)
    difference = build_difference(fdd_a, store.construct(fw_b), store=store)
    regions = [resolution.discrepancy.sets for resolution in resolutions]
    for cell in difference.discrepancies():
        leftover = _uncovered(cell.sets, regions)
        if leftover:
            raise ResolutionError(
                "unresolved discrepancy at "
                + ", ".join(str(s) for s in leftover[0])
                + f": a says {cell.decision_a}, b says {cell.decision_b};"
                " every discrepancy must be resolved before generation"
            )
    root = fdd_a.root
    for resolution in resolutions:
        root = store.prepend(root, resolution.discrepancy.sets, resolution.decision)
    return FDD(fw_a.schema, root)


def resolve_by_corrected_fdd(
    fw_a: Firewall,
    fw_b: Firewall,
    resolutions: Sequence[ResolvedDiscrepancy],
    *,
    name: str = "resolved",
) -> Firewall:
    """Method 1 (Section 6.1): correct an FDD, then generate rules from it.

    >>> from repro.fdd import compare_fast
    >>> from repro.fields import toy_schema
    >>> from repro.policy import Firewall, Rule, ACCEPT, DISCARD
    >>> schema = toy_schema(9)
    >>> fa = Firewall(schema, [Rule.build(schema, ACCEPT)])
    >>> fb = Firewall(schema, [Rule.build(schema, DISCARD, F1=(0, 4)),
    ...                        Rule.build(schema, ACCEPT)])
    >>> discs = compare_fast(fa, fb).discrepancies()
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
    patched = base.prepend(*fixes) if fixes else base
    return remove_redundant_rules(patched).with_name(name)
