"""The FDD wrapper: validation, semantics, paths, and statistics.

Wraps a node graph with its :class:`~repro.fields.schema.FieldSchema` and
provides:

* ``evaluate`` — the many-to-one mapping from packets to decisions that an
  FDD defines (Section 2);
* ``paths`` / ``rules`` — the decision paths and the rules they define
  (``f.rules`` in the paper);
* ``validate`` — checks every defining property of an FDD: single root,
  label well-formedness, no repeated field along a path, edge-label
  domains, *consistency*, and *completeness*;
* structural predicates (``is_ordered``, ``is_simple``) matching
  Definitions 4.1 and 4.3, and size statistics used by the complexity
  experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from repro.exceptions import FDDError, NotOrderedError, NotSimpleError
from repro.fields.packet import Packet
from repro.fields.schema import FieldSchema
from repro.intervals.intervalset import IntervalSet
from repro.policy.decision import Decision
from repro.policy.predicate import Predicate
from repro.policy.rule import Rule
from repro.fdd.node import InternalNode, Node, TerminalNode, count_nodes_edges, iter_nodes

__all__ = ["FDD", "DecisionPath", "FDDStats"]


@dataclass(frozen=True)
class DecisionPath:
    """One root-to-terminal path: per-field value sets plus the decision.

    ``sets[i]`` is the label of the path's edge at the node labelled with
    field ``i``, or the field's whole domain when no node on the path is
    labelled with field ``i`` (the paper's rule-from-path definition).
    """

    sets: tuple[IntervalSet, ...]
    decision: Decision

    def to_rule(self, schema: FieldSchema) -> Rule:
        """The rule this decision path defines."""
        return Rule(Predicate(schema, self.sets), self.decision)


@dataclass(frozen=True)
class FDDStats:
    """Size statistics of an FDD (used by the Section 7.4 experiments)."""

    nodes: int
    edges: int
    paths: int
    depth: int


class FDD:
    """A Firewall Decision Diagram over a field schema."""

    __slots__ = ("schema", "root")

    def __init__(self, schema: FieldSchema, root: Node):
        self.schema = schema
        self.root = root

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------
    def evaluate(self, packet: Packet | Sequence[int]) -> Decision:
        """Follow the unique decision path the packet matches."""
        node = self.root
        while isinstance(node, InternalNode):
            node = node.child_for(packet[node.field_index])
        return node.decision

    def __call__(self, packet: Packet | Sequence[int]) -> Decision:
        return self.evaluate(packet)

    # ------------------------------------------------------------------
    # Paths and rules
    # ------------------------------------------------------------------
    def paths(self) -> Iterator[DecisionPath]:
        """Yield every decision path (root to terminal)."""
        domains = tuple(f.domain_set for f in self.schema)

        def rec(node: Node, sets: tuple[IntervalSet, ...]) -> Iterator[DecisionPath]:
            if isinstance(node, TerminalNode):
                yield DecisionPath(sets, node.decision)
                return
            for edge in node.edges:
                new_sets = (
                    sets[: node.field_index]
                    + (edge.label,)
                    + sets[node.field_index + 1:]
                )
                yield from rec(edge.target, new_sets)

        yield from rec(self.root, domains)

    def rules(self) -> list[Rule]:
        """``f.rules``: the set of rules defined by all decision paths."""
        return [path.to_rule(self.schema) for path in self.paths()]

    def to_firewall(self, name: str = ""):
        """The (unordered, conflict-free) firewall listing ``f.rules``.

        Because of consistency/completeness any order is equivalent.
        Import is local to avoid a cycle with :mod:`repro.policy`.
        """
        from repro.policy.firewall import Firewall

        return Firewall(self.schema, self.rules(), name=name)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def stats(self) -> FDDStats:
        """Node/edge/path/depth counts of the diagram."""
        nodes, edges = count_nodes_edges(self.root)
        paths = self.count_paths()
        depth = self._depth()
        return FDDStats(nodes=nodes, edges=edges, paths=paths, depth=depth)

    def count_paths(self) -> int:
        """Number of decision paths (with memoization over shared nodes)."""
        memo: dict[int, int] = {}

        def rec(node: Node) -> int:
            if isinstance(node, TerminalNode):
                return 1
            found = memo.get(id(node))
            if found is not None:
                return found
            total = sum(rec(edge.target) for edge in node.edges)
            memo[id(node)] = total
            return total

        return rec(self.root)

    def _depth(self) -> int:
        memo: dict[int, int] = {}

        def rec(node: Node) -> int:
            if isinstance(node, TerminalNode):
                return 0
            found = memo.get(id(node))
            if found is not None:
                return found
            value = 1 + max(rec(edge.target) for edge in node.edges)
            memo[id(node)] = value
            return value

        return rec(self.root)

    def is_ordered(self) -> bool:
        """Definition 4.1: field indices strictly increase along every path."""
        try:
            self._check_ordered()
        except NotOrderedError:
            return False
        return True

    def _check_ordered(self) -> None:
        def rec(node: Node, last_index: int) -> None:
            if isinstance(node, TerminalNode):
                return
            if node.field_index <= last_index:
                raise NotOrderedError(
                    f"field {node.field_index} appears at or after field {last_index}"
                    " along a decision path"
                )
            for edge in node.edges:
                rec(edge.target, node.field_index)

        rec(self.root, -1)

    def is_simple(self) -> bool:
        """Definition 4.3: single-interval edge labels, one parent per node."""
        try:
            self.check_simple()
        except NotSimpleError:
            return False
        return True

    def check_simple(self) -> None:
        """Raise :class:`NotSimpleError` if the FDD is not simple."""
        incoming: dict[int, int] = {}
        for node in iter_nodes(self.root):
            if isinstance(node, TerminalNode):
                continue
            for edge in node.edges:
                if not edge.label.is_single_interval():
                    raise NotSimpleError(
                        f"edge label {edge.label} is not a single interval"
                    )
                incoming[id(edge.target)] = incoming.get(id(edge.target), 0) + 1
                if incoming[id(edge.target)] > 1:
                    raise NotSimpleError("a node has more than one incoming edge")

    def validate(self) -> None:
        """Check every defining property of an FDD (Section 2).

        Raises :class:`FDDError` with a specific message on the first
        violation; returns ``None`` when the diagram is a well-formed FDD.
        """
        if isinstance(self.root, TerminalNode):
            return  # a bare decision is a degenerate but legal FDD
        for node in iter_nodes(self.root):
            if isinstance(node, TerminalNode):
                continue
            if not 0 <= node.field_index < len(self.schema):
                raise FDDError(f"node labelled with unknown field {node.field_index}")
            domain = self.schema.domain(node.field_index)
            if not node.edges:
                raise FDDError("internal node with no outgoing edges")
            union = IntervalSet.empty()
            covered_count = 0
            for edge in node.edges:
                if edge.label.is_empty():
                    raise FDDError("empty edge label")
                if not edge.label.issubset(domain):
                    raise FDDError(
                        f"edge label {edge.label} exceeds domain {domain} of field"
                        f" {self.schema[node.field_index].name}"
                    )
                covered_count += edge.label.count()
                union = union | edge.label
            # Consistency: labels pairwise disjoint <=> cardinalities add up.
            if union.count() != covered_count:
                raise FDDError(
                    "consistency violated: outgoing edge labels overlap at a node"
                    f" labelled {self.schema[node.field_index].name}"
                )
            # Completeness: union covers the whole domain.
            if union != domain:
                raise FDDError(
                    "completeness violated: outgoing edges of a node labelled"
                    f" {self.schema[node.field_index].name} cover {union},"
                    f" not the domain {domain}"
                )
        self._check_no_repeated_fields()

    def _check_no_repeated_fields(self) -> None:
        def rec(node: Node, seen: frozenset[int]) -> None:
            if isinstance(node, TerminalNode):
                return
            if node.field_index in seen:
                raise FDDError(
                    f"field {self.schema[node.field_index].name} repeated along a path"
                )
            child_seen = seen | {node.field_index}
            for edge in node.edges:
                rec(edge.target, child_seen)

        rec(self.root, frozenset())

    # ------------------------------------------------------------------
    # Transformation helpers
    # ------------------------------------------------------------------
    def clone(self) -> "FDD":
        """A structurally independent deep copy."""
        if isinstance(self.root, TerminalNode):
            return FDD(self.schema, self.root.clone())
        return FDD(self.schema, self.root.clone())

    def map_terminals(self, fn: Callable[[Decision], Decision]) -> "FDD":
        """A copy with every terminal decision rewritten by ``fn``.

        Used by resolution Method 1 to apply discrepancy corrections to a
        shaped FDD's terminals.
        """
        copy = self.clone()
        for node in iter_nodes(copy.root):
            if isinstance(node, TerminalNode):
                node.decision = fn(node.decision)
        return copy

    def __repr__(self) -> str:
        nodes, edges = count_nodes_edges(self.root)
        return f"<FDD over {self.schema!r}: {nodes} nodes, {edges} edges>"
