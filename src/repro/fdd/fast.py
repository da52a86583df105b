"""The scalable FDD engine: hash-consed DAGs with memoized algorithms.

:mod:`repro.fdd.construction`, :mod:`~repro.fdd.shaping`, and
:mod:`~repro.fdd.comparison` implement the paper's pseudocode literally —
trees, subgraph replication by copying — which is the right reference
semantics but carries Python-object constants the authors' Java
implementation did not.  This module provides an equivalent engine that
scales to the paper's largest workloads (two independent 3,000-rule
firewalls, Fig. 13):

* **Hash-consed construction** (:func:`construct_fdd_fast`): nodes are
  interned by structural signature in a :class:`~repro.fdd.store.NodeStore`,
  so the "subgraph replication" of the construction algorithm becomes
  sharing.  The diagram is built top-down by partition construction
  (:mod:`repro.fdd.partition`), one subproblem per (field, live rules),
  instead of appending the rules one at a time.
* **Product comparison** (:func:`compare_fast`): instead of materializing
  two semi-isomorphic trees, the two DAGs are walked simultaneously with
  memoization on node pairs (:func:`repro.fdd.passes.product_fold`),
  producing a *difference FDD* whose terminals are decision pairs.
  Semi-isomorphic shaping computes exactly this product partition — the
  difference FDD contains the same information (every companion-path pair
  and its two decisions) in compressed form.  Disputed-packet counts come
  from a weighted model count; the explicit discrepancy cells of the
  reference pipeline can still be enumerated on demand.

The interning machinery itself lives in :mod:`repro.fdd.store` and the
traversal shapes in :mod:`repro.fdd.passes`; this module wires them into
the two entry points the rest of the library uses.  Every function here
is cross-validated against the reference pipeline in the test suite; the
large-size benchmarks report both engines where the reference is feasible
and the fast engine beyond.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.discrepancy import Discrepancy
from repro.exceptions import SchemaError
from repro.fields.schema import FieldSchema
from repro.guard.context import GuardContext
from repro.intervals.intervalset import IntervalSet
from repro.policy.decision import Decision
from repro.policy.firewall import Firewall
from repro.fdd.fdd import FDD
from repro.fdd.node import Node, TerminalNode
from repro.fdd.passes import product_fold
from repro.fdd.store import NodeStore, PAIRWISE_MEMO_LIMIT

__all__ = [
    "NodeStore",
    "PAIRWISE_MEMO_LIMIT",
    "construct_fdd_fast",
    "DifferenceFDD",
    "build_difference",
    "compare_fast",
]


def construct_fdd_fast(
    firewall: Firewall,
    store: NodeStore | None = None,
    *,
    guard: GuardContext | None = None,
) -> FDD:
    """Equivalent of :func:`repro.fdd.construction.construct_fdd`, shared.

    Builds the diagram by partition construction
    (:meth:`~repro.fdd.store.NodeStore.build`): each field's domain is
    cut at the boundaries of the rules still live on the path, so no
    per-rule intermediate diagram is allocated.  The result is a
    maximally-shared ordered FDD that the rest of the library
    (evaluation, validation, reduction, generation, the reference
    shaping) accepts unchanged.  Because every node is interned, the
    output is already *reduced*: it is the canonical reduced ordered FDD
    of the policy (see :mod:`repro.fdd.canonical`), the very diagram the
    rule-by-rule fold (:meth:`~repro.fdd.store.NodeStore.construct`)
    builds.
    """
    return (store or NodeStore()).build(firewall, guard=guard)


@dataclass
class DifferenceFDD:
    """The comparison of two firewalls as one diagram.

    A maximally-shared ordered FDD whose "terminals" are *pairs* of
    decisions: packet ``p`` maps to ``(fw_a(p), fw_b(p))``.  This is the
    information content of the paper's semi-isomorphic pair (every
    companion decision path with both terminal labels) in shared form.
    """

    schema: FieldSchema
    root: object  # _PairNode | tuple[Decision, Decision]

    def evaluate(self, packet) -> tuple[Decision, Decision]:
        """Both firewalls' decisions for ``packet``."""
        node = self.root
        while isinstance(node, _PairNode):
            value = packet[node.field_index]
            for label, child in node.edges:
                if value in label:
                    node = child
                    break
            else:
                raise SchemaError("difference FDD is incomplete (internal error)")
        return node  # type: ignore[return-value]

    def has_discrepancy(self) -> bool:
        """True iff the two compared firewalls disagree on any packet.

        A short-circuiting reachability walk to an unequal decision pair
        — no counting, no cell enumeration — which makes it the cheapest
        equivalence test (:func:`repro.analysis.equivalence.equivalent`
        is built on it).
        """
        seen: set[int] = set()
        stack = [self.root]
        while stack:
            node = stack.pop()
            if not isinstance(node, _PairNode):
                dec_a, dec_b = node  # type: ignore[misc]
                if dec_a != dec_b:
                    return True
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            for _, child in node.edges:
                stack.append(child)
        return False

    def disputed_packet_count(self) -> int:
        """Exact number of packets on which the two firewalls disagree."""
        domains = [f.domain_size() for f in self.schema]
        num_fields = len(domains)
        suffix = [1] * (num_fields + 1)
        for i in range(num_fields - 1, -1, -1):
            suffix[i] = suffix[i + 1] * domains[i]
        memo: dict[int, int] = {}

        def level_of(node) -> int:
            return node.field_index if isinstance(node, _PairNode) else num_fields

        def count(node) -> int:
            # Disputed packets over fields level_of(node)..d-1.
            if not isinstance(node, _PairNode):
                dec_a, dec_b = node
                return 1 if dec_a != dec_b else 0
            found = memo.get(id(node))
            if found is not None:
                return found
            total = 0
            for label, child in node.edges:
                partial = count(child)
                if partial:
                    gap = suffix[node.field_index + 1] // suffix[level_of(child)]
                    total += label.count() * partial * gap
            memo[id(node)] = total
            return total

        root_level = level_of(self.root)
        return count(self.root) * (suffix[0] // suffix[root_level])

    def disputed_by_decisions(self) -> dict[tuple[Decision, Decision], int]:
        """Exact disputed-packet volume per ``(decision_a, decision_b)``.

        The values sum to :meth:`disputed_packet_count`.  Because the
        breakdown is a pure function of the two policies' semantics (not
        of diagram structure), it merges exactly across the shards of the
        parallel engine — per-pair volumes just add — which makes it the
        canonical comparison summary (:mod:`repro.parallel`).
        """
        domains = [f.domain_size() for f in self.schema]
        num_fields = len(domains)
        suffix = [1] * (num_fields + 1)
        for i in range(num_fields - 1, -1, -1):
            suffix[i] = suffix[i + 1] * domains[i]
        memo: dict[int, dict] = {}

        def level_of(node) -> int:
            return node.field_index if isinstance(node, _PairNode) else num_fields

        def count(node) -> dict[tuple[Decision, Decision], int]:
            if not isinstance(node, _PairNode):
                dec_a, dec_b = node
                return {(dec_a, dec_b): 1} if dec_a != dec_b else {}
            found = memo.get(id(node))
            if found is not None:
                return found
            total: dict[tuple[Decision, Decision], int] = {}
            for label, child in node.edges:
                partial = count(child)
                if partial:
                    gap = suffix[node.field_index + 1] // suffix[level_of(child)]
                    weight = label.count() * gap
                    for pair, volume in partial.items():
                        total[pair] = total.get(pair, 0) + volume * weight
            memo[id(node)] = total
            return total

        multiplier = suffix[0] // suffix[level_of(self.root)]
        return {
            pair: volume * multiplier
            for pair, volume in count(self.root).items()
        }

    def discrepancies(
        self, limit: int | None = None, *, guard: GuardContext | None = None
    ) -> list[Discrepancy]:
        """Enumerate explicit discrepancy cells (the reference pipeline's
        output form).  ``limit`` caps the enumeration for huge diffs;
        ``guard`` additionally enforces its discrepancy/deadline budget."""
        domains = tuple(f.domain_set for f in self.schema)
        out: list[Discrepancy] = []

        def rec(node, sets) -> bool:
            if limit is not None and len(out) >= limit:
                return False
            if guard is not None:
                guard.tick_nodes()
            if not isinstance(node, _PairNode):
                dec_a, dec_b = node
                if dec_a != dec_b:
                    if guard is not None:
                        guard.tick_discrepancies()
                    out.append(Discrepancy(self.schema, sets, dec_a, dec_b))
                return True
            for label, child in node.edges:
                new_sets = (
                    sets[: node.field_index]
                    + (label,)
                    + sets[node.field_index + 1:]
                )
                if not rec(child, new_sets):
                    return False
            return True

        rec(self.root, domains)
        return out

    def path_count(self) -> int:
        """Number of decision paths (= companion-path pairs of the shaped
        reference diagrams, after maximal sharing)."""
        memo: dict[int, int] = {}

        def rec(node) -> int:
            if not isinstance(node, _PairNode):
                return 1
            found = memo.get(id(node))
            if found is not None:
                return found
            total = sum(rec(child) for _, child in node.edges)
            memo[id(node)] = total
            return total

        return rec(self.root)

    def node_count(self) -> int:
        """Number of distinct internal nodes in the difference diagram."""
        seen: set[int] = set()
        stack = [self.root]
        while stack:
            node = stack.pop()
            if not isinstance(node, _PairNode) or id(node) in seen:
                continue
            seen.add(id(node))
            for _, child in node.edges:
                stack.append(child)
        return len(seen)


class _PairNode:
    """Internal node of a :class:`DifferenceFDD` (interned)."""

    __slots__ = ("field_index", "edges")

    def __init__(self, field_index: int, edges: tuple):
        self.field_index = field_index
        self.edges = edges


def compare_fast(
    fw_a: Firewall,
    fw_b: Firewall,
    *,
    guard: GuardContext | None = None,
    build_guard: GuardContext | None = None,
) -> DifferenceFDD:
    """Build the difference FDD of two firewalls (scalable comparison).

    Constructs both hash-consed FDDs, then intersects them with a product
    walk memoized on node pairs (:func:`build_difference`).  Where the
    reference pipeline's shaping phase replicates subtrees to align the
    two diagrams, the product walk computes the same aligned partition
    lazily and shares every repeated sub-product.  ``build_guard``, when
    given, guards the two constructions in place of ``guard`` (the
    ``jobs > 1`` route of :func:`repro.analysis.impact.analyze_change`
    builds under a probe that forwards to ``guard``).

    >>> from repro.fields import toy_schema
    >>> from repro.policy import Firewall, Rule, ACCEPT, DISCARD
    >>> schema = toy_schema(9)
    >>> fa = Firewall(schema, [Rule.build(schema, ACCEPT)])
    >>> fb = Firewall(schema, [Rule.build(schema, DISCARD, F1=(2, 4)),
    ...                        Rule.build(schema, ACCEPT)])
    >>> compare_fast(fa, fb).disputed_packet_count()
    3
    """
    if fw_a.schema != fw_b.schema:
        raise SchemaError("cannot compare firewalls over different field schemas")
    store = NodeStore()
    if build_guard is None:
        build_guard = guard
    return build_difference(
        construct_fdd_fast(fw_a, store, guard=build_guard),
        construct_fdd_fast(fw_b, store, guard=build_guard),
        guard=guard,
        store=store,
    )


def build_difference(
    fdd_a: FDD,
    fdd_b: FDD,
    *,
    guard: GuardContext | None = None,
    store: NodeStore | None = None,
) -> DifferenceFDD:
    """Product-walk two ordered FDDs into a :class:`DifferenceFDD`.

    ``store`` supplies the interval kernel (interned labels + memoized
    pairwise algebra) *and* the product caches: its ``pair_table`` /
    ``pair_memo`` persist across calls, so several products over diagrams
    of one store — the shards of :mod:`repro.parallel`, successive
    impact analyses — share every repeated sub-product.  Passing the
    store both FDDs were constructed with maximizes memo hits (their
    labels are already pointer-stable), but any store (or none: a private
    one is made) is correct.
    """
    if fdd_a.schema != fdd_b.schema:
        raise SchemaError("cannot compare FDDs over different field schemas")
    schema = fdd_a.schema
    num_fields = len(schema)
    kernel = store if store is not None else NodeStore()

    pair_table: dict[tuple, _PairNode] = kernel.pair_table

    def intern_pair(field_index: int, edges: list[tuple[IntervalSet, object]]):
        merged: dict[int, list] = {}
        order: list[int] = []
        for label, child in edges:
            key = id(child)
            if key in merged:
                merged[key][0] = kernel.union(merged[key][0], label)
            else:
                merged[key] = [label, child]
                order.append(key)
        if len(order) == 1:
            return merged[order[0]][1]
        parts = sorted(
            ((merged[key][0], merged[key][1]) for key in order),
            key=lambda item: item[0].min(),
        )
        signature = (field_index, tuple((label, id(child)) for label, child in parts))
        found = pair_table.get(signature)
        if found is None:
            found = _PairNode(field_index, tuple(parts))
            pair_table[signature] = found
        return found

    def visit(na: Node, nb: Node) -> None:
        if guard is not None:
            guard.tick_nodes()
            if guard.fault is not None:
                guard.fault.fire("fast.product")

    def leaf(na: TerminalNode, nb: TerminalNode) -> object:
        return (na.decision, nb.decision)

    root = product_fold(
        fdd_a.root,
        fdd_b.root,
        num_fields,
        intersect=kernel.intersect,
        leaf=leaf,
        node=intern_pair,
        visit=visit if guard is not None else None,
        memo=kernel.pair_memo,
    )
    return DifferenceFDD(schema, root)
