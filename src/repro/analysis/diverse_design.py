"""The three-phase diverse firewall design workflow (Sections 2, 6, 7.3).

* **Design phase** — each team independently produces a firewall from the
  same requirement specification (outside the library's scope; teams may
  use any of the design aids cited in the paper).
* **Comparison phase** — all functional discrepancies among the versions
  are computed.  For two teams this is one product walk
  (:func:`repro.fdd.fast.compare_fast`); for ``N > 2`` teams Section 7.3 offers *cross comparison* (every pair) and
  *direct comparison* (walk all N diagrams together, splitting on
  every version's edges); both are implemented here.
* **Resolution phase** — every discrepancy is resolved and a final,
  unanimously-agreed firewall is generated
  (:mod:`repro.analysis.resolution`).

:class:`DiverseDesignSession` packages the workflow; the module-level
functions are usable piecemeal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.analysis.aggregate import aggregate_discrepancies
from repro.analysis.discrepancy import Discrepancy
from repro.analysis.resolution import (
    ResolvedDiscrepancy,
    _uncovered,
    resolve_by_corrected_fdd,
    resolve_by_patching,
    resolve_with,
)
from repro.exceptions import ResolutionError, SchemaError
from repro.fdd.fast import compare_fast
from repro.fdd.node import Node, TerminalNode
from repro.fdd.store import NodeStore
from repro.intervals.intervalset import IntervalSet
from repro.policy.decision import Decision
from repro.policy.firewall import Firewall

__all__ = [
    "MultiDiscrepancy",
    "cross_compare",
    "direct_compare",
    "DiverseDesignSession",
]


@dataclass(frozen=True)
class MultiDiscrepancy:
    """A packet region on which ``N`` firewalls do not all agree.

    ``decisions[i]`` is firewall ``i``'s decision over the region.
    """

    sets: tuple[IntervalSet, ...]
    decisions: tuple[Decision, ...]

    def __post_init__(self) -> None:
        assert len(set(self.decisions)) > 1, (
            "a multi-way discrepancy needs at least two distinct decisions"
        )

    def describe(self, schema) -> str:
        """Human-readable rendering with per-team decisions."""
        region = ", ".join(
            f"{field.name}={field.format_value_set(values)}"
            for values, field in zip(self.sets, schema)
            if values != field.domain_set
        ) or "any"
        votes = ", ".join(
            f"team {i + 1}: {decision}" for i, decision in enumerate(self.decisions)
        )
        return f"{region}: {votes}"


def cross_compare(
    firewalls: Sequence[Firewall],
) -> dict[tuple[int, int], list[Discrepancy]]:
    """Cross comparison (Section 7.3): one result per ordered pair index.

    Returns ``{(i, j): discrepancies}`` for all ``i < j`` (the paper's
    ``N * (N - 1)`` ordered pairs carry the same information twice; we
    keep one direction).
    """
    results: dict[tuple[int, int], list[Discrepancy]] = {}
    for i in range(len(firewalls)):
        for j in range(i + 1, len(firewalls)):
            results[(i, j)] = compare_fast(firewalls[i], firewalls[j]).discrepancies()
    return results


def direct_compare(firewalls: Sequence[Firewall]) -> list[MultiDiscrepancy]:
    """Direct comparison (Section 7.3): N-way functional discrepancies.

    Builds all N FDDs in one :class:`~repro.fdd.store.NodeStore` and
    walks them together.  Every store path tests every field, so the N
    nodes reached at one level sit on the same field; intersecting their
    edge labels across all N cuts boxes on which every version's decision
    is fixed, as the paper's mutually semi-isomorphic shaping does (with
    edges to one shared child left merged).  Where all N nodes are the
    same shared node the versions agree on everything below it, so the
    walk stops there.
    """
    if len(firewalls) < 2:
        raise SchemaError("direct comparison needs at least two firewalls")
    schema = firewalls[0].schema
    if any(fw.schema != schema for fw in firewalls):
        raise SchemaError("all firewalls must share one field schema")
    store = NodeStore()
    roots = tuple(store.construct(fw).root for fw in firewalls)
    out: list[MultiDiscrepancy] = []

    def rec(nodes: tuple[Node, ...], sets: tuple[IntervalSet, ...]) -> None:
        first = nodes[0]
        if all(node is first for node in nodes):
            return
        if isinstance(first, TerminalNode):
            decisions = tuple(node.decision for node in nodes)  # type: ignore[union-attr]
            out.append(MultiDiscrepancy(sets, decisions))
            return
        index = first.field_index
        parts: list[tuple[IntervalSet, tuple[Node, ...]]] = [(sets[index], ())]
        for node in nodes:
            parts = [
                (common, children + (edge.target,))
                for label, children in parts
                for edge in node.edges  # type: ignore[union-attr]
                if not (common := store.intersect(label, edge.label)).is_empty()
            ]
        for label, children in parts:
            rec(children, sets[:index] + (label,) + sets[index + 1:])

    rec(roots, tuple(f.domain_set for f in schema))
    return out


class DiverseDesignSession:
    """End-to-end driver for the diverse design method.

    >>> from repro.fields import toy_schema
    >>> from repro.policy import Firewall, Rule, ACCEPT, DISCARD
    >>> schema = toy_schema(9)
    >>> team_a = Firewall(schema, [Rule.build(schema, ACCEPT)], name="A")
    >>> team_b = Firewall(schema, [Rule.build(schema, DISCARD, F1=(0, 2)),
    ...                            Rule.build(schema, ACCEPT)], name="B")
    >>> session = DiverseDesignSession([team_a, team_b])
    >>> len(session.discrepancies())
    1
    >>> final = session.resolve(lambda d: d.decision_b)
    >>> final((1,)) == DISCARD
    True
    """

    def __init__(self, firewalls: Sequence[Firewall]):
        if len(firewalls) < 2:
            raise SchemaError("diverse design needs at least two versions")
        schema = firewalls[0].schema
        for fw in firewalls:
            if fw.schema != schema:
                raise SchemaError("all versions must share one field schema")
        self.firewalls = list(firewalls)
        self._pairwise: dict[tuple[int, int], list[Discrepancy]] | None = None

    # -- comparison phase ------------------------------------------------
    def discrepancies(self, a: int = 0, b: int = 1, *, aggregate: bool = True) -> list[Discrepancy]:
        """Functional discrepancies between versions ``a`` and ``b``."""
        raw = compare_fast(self.firewalls[a], self.firewalls[b]).discrepancies()
        return aggregate_discrepancies(raw) if aggregate else raw

    def all_pairwise(self) -> dict[tuple[int, int], list[Discrepancy]]:
        """Cross comparison over every pair of versions (cached)."""
        if self._pairwise is None:
            self._pairwise = cross_compare(self.firewalls)
        return self._pairwise

    def multi_discrepancies(self) -> list[MultiDiscrepancy]:
        """Direct N-way comparison (Section 7.3)."""
        return direct_compare(self.firewalls)

    def unanimous(self) -> bool:
        """True when every pair of versions is already equivalent."""
        return all(not discs for discs in self.all_pairwise().values())

    # -- resolution phase ------------------------------------------------
    def resolve(
        self,
        chooser: Callable[[Discrepancy], Decision],
        *,
        method: str = "fdd",
        a: int = 0,
        b: int = 1,
    ) -> Firewall:
        """Resolve all a-vs-b discrepancies and build the final firewall.

        ``method`` selects Section 6's Method 1 (``"fdd"``) or Method 2
        (``"patch"``, patching version ``a``).  The result is verified to
        agree with both teams outside the disputed regions: it must carry
        no unresolved discrepancy against either input.

        The chooser is applied to the *raw* (unaggregated) discrepancy
        cells: merged regions can straddle packets the teams would
        resolve differently, so resolution always happens at cell
        granularity (display-level merging is
        :func:`repro.analysis.resolution.aggregate_resolutions`).
        """
        discs = self.discrepancies(a, b, aggregate=False)
        resolutions = resolve_with(discs, chooser)
        final = self._build(resolutions, method, a, b)
        self._verify(final, resolutions, a, b)
        return final

    def _build(
        self,
        resolutions: list[ResolvedDiscrepancy],
        method: str,
        a: int,
        b: int,
    ) -> Firewall:
        if method == "fdd":
            return resolve_by_corrected_fdd(
                self.firewalls[a], self.firewalls[b], resolutions
            )
        if method == "patch":
            return resolve_by_patching(self.firewalls[a], resolutions, base_is="a")
        raise ResolutionError(f"unknown resolution method {method!r}")

    def _verify(
        self,
        final: Firewall,
        resolutions: list[ResolvedDiscrepancy],
        a: int,
        b: int,
    ) -> None:
        """The final firewall must differ from each input only inside the
        disputed regions, and there only toward the agreed decisions.

        A deviation cell of final-vs-team may straddle several resolution
        cells (the two comparisons partition the space differently), so
        the check is coverage-based: every deviation cell must be fully
        covered by resolution regions whose agreed decision matches the
        final firewall's decision on the cell.
        """
        for team_index in (a, b):
            deviations = compare_fast(final, self.firewalls[team_index])
            for disc in deviations.discrepancies():
                agreed = [
                    resolution.discrepancy.sets
                    for resolution in resolutions
                    if resolution.decision == disc.decision_a
                ]
                if _uncovered(disc.sets, agreed):
                    raise ResolutionError(
                        "resolution produced a firewall that deviates from "
                        f"version {team_index} outside the agreed regions: "
                        + disc.describe()
                    )

    def quorum_decision(self, multi: MultiDiscrepancy) -> Decision:
        """Majority vote over a multi-way discrepancy (ties favour the
        lowest-index team, i.e. seniority order)."""
        counts: dict[Decision, int] = {}
        for decision in multi.decisions:
            counts[decision] = counts.get(decision, 0) + 1
        best = max(counts.values())
        for decision in multi.decisions:
            if counts[decision] == best:
                return decision
        raise AssertionError("unreachable: some decision must hold the max")
