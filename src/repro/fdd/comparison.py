"""The FDD comparison algorithm (Section 5) and a fused variant.

Given two **semi-isomorphic** FDDs, every decision path of one has a
companion path in the other with identical labels; companion rules either
agree or differ only in their decision.  The set of companion pairs with
different decisions is exactly ``fa.rules - fb.rules`` and
``fb.rules - fa.rules`` — all functional discrepancies between the two
original firewalls.

:func:`compare_shaped` implements the paper's lockstep walk.
:func:`compare_firewalls` runs the full three-algorithm pipeline
(construction -> shaping -> comparison).  :func:`compare_direct` is an
optimized fused traversal that intersects edge labels on the fly and never
materializes the semi-isomorphic trees — used by the ablation benchmarks
to quantify the cost of the staged design; it produces the same set of
disputed packets (possibly partitioned differently).
"""

from __future__ import annotations

from repro.analysis.discrepancy import Discrepancy
from repro.exceptions import NotSemiIsomorphicError, SchemaError
from repro.fields.schema import FieldSchema
from repro.guard.context import GuardContext
from repro.intervals.intervalset import IntervalSet
from repro.policy.firewall import Firewall
from repro.fdd.construction import construct_fdd
from repro.fdd.fdd import FDD
from repro.fdd.node import InternalNode, Node, TerminalNode
from repro.fdd.shaping import make_semi_isomorphic

__all__ = ["compare_shaped", "compare_fdds", "compare_firewalls", "compare_direct"]


def compare_shaped(
    fa: FDD, fb: FDD, *, guard: GuardContext | None = None
) -> list[Discrepancy]:
    """Compare two semi-isomorphic FDDs (Section 5).

    Walks companion decision paths in lockstep and returns one
    :class:`Discrepancy` per companion pair whose decisions differ.

    ``guard`` ticks one node per visited pair and one discrepancy per
    emitted cell; the walk is read-only, so a budget trip leaves both
    inputs untouched.
    """
    if fa.schema != fb.schema:
        raise SchemaError("cannot compare FDDs over different field schemas")
    schema = fa.schema
    domains = tuple(f.domain_set for f in schema)
    out: list[Discrepancy] = []

    def rec(na: Node, nb: Node, sets: tuple[IntervalSet, ...]) -> None:
        if guard is not None:
            guard.tick_nodes()
            if guard.fault is not None:
                guard.fault.fire("comparison.visit")
        if isinstance(na, TerminalNode):
            if not isinstance(nb, TerminalNode):
                raise NotSemiIsomorphicError(
                    "terminal paired with nonterminal; run the shaping algorithm first"
                )
            if na.decision != nb.decision:
                if guard is not None:
                    guard.tick_discrepancies()
                out.append(Discrepancy(schema, sets, na.decision, nb.decision))
            return
        if isinstance(nb, TerminalNode) or na.field_index != nb.field_index:
            raise NotSemiIsomorphicError(
                "node labels disagree; run the shaping algorithm first"
            )
        ea = sorted(na.edges, key=lambda e: e.label.min())
        eb = sorted(nb.edges, key=lambda e: e.label.min())
        if len(ea) != len(eb):
            raise NotSemiIsomorphicError(
                "outgoing degrees disagree; run the shaping algorithm first"
            )
        for edge_a, edge_b in zip(ea, eb):
            if edge_a.label != edge_b.label:
                raise NotSemiIsomorphicError(
                    f"edge labels disagree ({edge_a.label} vs {edge_b.label});"
                    " run the shaping algorithm first"
                )
            new_sets = (
                sets[: na.field_index]
                + (edge_a.label,)
                + sets[na.field_index + 1:]
            )
            rec(edge_a.target, edge_b.target, new_sets)

    rec(fa.root, fb.root, domains)
    return out


def compare_fdds(
    fa: FDD, fb: FDD, *, guard: GuardContext | None = None
) -> list[Discrepancy]:
    """Shape two ordered FDDs, then compare them (algorithms 2 + 3)."""
    shaped_a, shaped_b = make_semi_isomorphic(fa, fb, guard=guard)
    return compare_shaped(shaped_a, shaped_b, guard=guard)


def compare_firewalls(
    fw_a: Firewall, fw_b: Firewall, *, guard: GuardContext | None = None
) -> list[Discrepancy]:
    """All functional discrepancies between two firewalls (Sections 3-5).

    The full pipeline: construct an ordered FDD from each rule sequence,
    shape the two FDDs semi-isomorphic, compare.  An empty result means
    the two firewalls are semantically equivalent.

    ``guard`` bounds the whole pipeline with one shared budget; on
    exhaustion a :class:`~repro.exceptions.BudgetExceededError` with
    ``resource``/``spent``/``limit`` attributes propagates (see
    :func:`repro.analysis.approximate.approximate_compare` for the
    degraded mode that samples instead of crashing).

    >>> from repro.fields import toy_schema
    >>> from repro.policy import Firewall, Rule, ACCEPT, DISCARD
    >>> schema = toy_schema(9)
    >>> one = Firewall(schema, [Rule.build(schema, ACCEPT)])
    >>> two = Firewall(schema, [Rule.build(schema, DISCARD, F1=(0, 3)),
    ...                         Rule.build(schema, ACCEPT)])
    >>> [str(d) for d in compare_firewalls(one, two)]
    ['F1=0-3: a says accept, b says discard']
    """
    if fw_a.schema != fw_b.schema:
        raise SchemaError("cannot compare firewalls over different field schemas")
    return compare_fdds(
        construct_fdd(fw_a, guard=guard),
        construct_fdd(fw_b, guard=guard),
        guard=guard,
    )


def compare_direct(
    fw_a: Firewall, fw_b: Firewall, *, guard: GuardContext | None = None
) -> list[Discrepancy]:
    """Fused comparison: one simultaneous traversal, no shaping phase.

    Recursively intersects the outgoing edge labels of the two (ordered)
    constructed FDDs, descending into the overlap of every edge pair.
    Produces discrepancies covering exactly the same packets as
    :func:`compare_firewalls`, though the region partition may differ.
    """
    if fw_a.schema != fw_b.schema:
        raise SchemaError("cannot compare firewalls over different field schemas")
    fa = construct_fdd(fw_a, guard=guard)
    fb = construct_fdd(fw_b, guard=guard)
    schema: FieldSchema = fa.schema
    domains = tuple(f.domain_set for f in schema)
    out: list[Discrepancy] = []

    def rec(na: Node, nb: Node, sets: tuple[IntervalSet, ...]) -> None:
        if guard is not None:
            guard.tick_nodes()
        if isinstance(na, TerminalNode) and isinstance(nb, TerminalNode):
            if na.decision != nb.decision:
                if guard is not None:
                    guard.tick_discrepancies()
                out.append(Discrepancy(schema, sets, na.decision, nb.decision))
            return
        # Descend along the smaller field label; a terminal acts as a node
        # whose answer is constant over all remaining fields.
        la = len(schema) if isinstance(na, TerminalNode) else na.field_index
        lb = len(schema) if isinstance(nb, TerminalNode) else nb.field_index
        field = min(la, lb)
        if la == field and lb == field:
            assert isinstance(na, InternalNode) and isinstance(nb, InternalNode)
            for edge_a in na.edges:
                for edge_b in nb.edges:
                    common = edge_a.label & edge_b.label
                    if common.is_empty():
                        continue
                    new_sets = sets[:field] + (common,) + sets[field + 1:]
                    rec(edge_a.target, edge_b.target, new_sets)
        elif la == field:
            assert isinstance(na, InternalNode)
            for edge_a in na.edges:
                new_sets = sets[:field] + (edge_a.label,) + sets[field + 1:]
                rec(edge_a.target, nb, new_sets)
        else:
            assert isinstance(nb, InternalNode)
            for edge_b in nb.edges:
                new_sets = sets[:field] + (edge_b.label,) + sets[field + 1:]
                rec(na, edge_b.target, new_sets)

    rec(fa.root, fb.root, domains)
    return out
