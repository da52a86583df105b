"""FDD nodes and edges (Section 2 of the paper).

An FDD is a rooted acyclic graph whose nonterminal nodes are labelled with
packet fields, whose terminal nodes are labelled with decisions, and whose
edges are labelled with non-empty value sets satisfying *consistency*
(outgoing edge labels of a node are pairwise disjoint) and *completeness*
(their union is the field's whole domain).

The construction and shaping algorithms mutate diagrams in place, so nodes
here are mutable; the :class:`~repro.fdd.fdd.FDD` wrapper validates the
invariants on demand.  ``clone`` implements the paper's *subgraph
replication* primitive.
"""

from __future__ import annotations

from typing import Iterator, Union

from repro.exceptions import FDDError
from repro.intervals.intervalset import IntervalSet
from repro.policy.decision import Decision

__all__ = ["TerminalNode", "InternalNode", "Edge", "Node"]


class TerminalNode:
    """A terminal node labelled with a decision."""

    __slots__ = ("decision",)

    def __init__(self, decision: Decision):
        self.decision = decision

    def clone(self) -> "TerminalNode":
        """A fresh terminal with the same decision."""
        return TerminalNode(self.decision)

    def is_terminal(self) -> bool:
        return True

    def __repr__(self) -> str:
        return f"TerminalNode({self.decision})"


class Edge:
    """A directed edge: a non-empty :class:`IntervalSet` label and a target.

    ``target`` is the node the edge points to (``e.t`` in the paper's
    pseudocode).
    """

    __slots__ = ("label", "target")

    def __init__(self, label: IntervalSet, target: "Node"):
        if label.is_empty():
            raise FDDError("FDD edge labels must be non-empty")
        self.label = label
        self.target = target

    def __repr__(self) -> str:
        return f"Edge({self.label} -> {self.target!r})"


class InternalNode:
    """A nonterminal node labelled with a field (by schema index)."""

    __slots__ = ("field_index", "edges")

    def __init__(self, field_index: int, edges: list[Edge] | None = None):
        self.field_index = field_index
        self.edges: list[Edge] = edges if edges is not None else []

    def is_terminal(self) -> bool:
        return False

    def add_edge(self, label: IntervalSet, target: "Node") -> Edge:
        """Append a new outgoing edge and return it."""
        edge = Edge(label, target)
        self.edges.append(edge)
        return edge

    def covered(self) -> IntervalSet:
        """Union of all outgoing edge labels (``I(e1) | ... | I(ek)``).

        One k-way merge over all labels rather than k binary unions —
        linear in total interval count instead of quadratic for wide
        nodes.
        """
        return IntervalSet.union_all(edge.label for edge in self.edges)

    def child_for(self, value: int) -> "Node":
        """Target of the unique edge whose label contains ``value``."""
        for edge in self.edges:
            if value in edge.label:
                return edge.target
        raise FDDError(
            f"no outgoing edge of field-{self.field_index} node covers value {value};"
            " FDD violates completeness"
        )

    def sort_edges(self) -> None:
        """Sort outgoing edges by their smallest label value.

        The node-shaping algorithm walks both nodes' edges in increasing
        label order; sorting here keeps that walk linear.
        """
        self.edges.sort(key=lambda e: e.label.min())

    def clone(self) -> "InternalNode":
        """Deep-copy the subgraph rooted here (subgraph replication).

        Shared subgraphs below this node are copied once and re-shared in
        the clone (the copy map preserves the DAG shape).  Iterative to
        survive deep diagrams.
        """
        copies: dict[int, Node] = {}

        def copy_of(node: Node) -> Node:
            found = copies.get(id(node))
            if found is not None:
                return found
            if isinstance(node, TerminalNode):
                made: Node = TerminalNode(node.decision)
            else:
                made = InternalNode(node.field_index)
            copies[id(node)] = made
            return made

        root_copy = copy_of(self)
        stack: list[InternalNode] = [self]
        done: set[int] = set()
        while stack:
            node = stack.pop()
            if id(node) in done:
                continue
            done.add(id(node))
            node_copy = copies[id(node)]
            assert isinstance(node_copy, InternalNode)
            if node_copy.edges:
                continue  # already wired (shared subgraph)
            for edge in node.edges:
                target_seen = id(edge.target) in copies
                target_copy = copy_of(edge.target)
                node_copy.edges.append(Edge(edge.label, target_copy))
                if isinstance(edge.target, InternalNode) and not target_seen:
                    stack.append(edge.target)
        assert isinstance(root_copy, InternalNode)
        return root_copy

    def __repr__(self) -> str:
        return f"InternalNode(field={self.field_index}, degree={len(self.edges)})"


Node = Union[TerminalNode, InternalNode]


def iter_nodes(root: Node) -> Iterator[Node]:
    """Yield every node reachable from ``root`` exactly once (pre-order)."""
    seen: set[int] = set()
    stack: list[Node] = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node
        if isinstance(node, InternalNode):
            for edge in node.edges:
                stack.append(edge.target)


def count_nodes_edges(root: Node) -> tuple[int, int]:
    """Return ``(node_count, edge_count)`` of the reachable subgraph."""
    nodes = 0
    edges = 0
    for node in iter_nodes(root):
        nodes += 1
        if isinstance(node, InternalNode):
            edges += len(node.edges)
    return nodes, edges
