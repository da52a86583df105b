"""Transformation to *simple* FDDs (Definition 4.3).

A simple FDD has (1) at most one incoming edge per node and (2) a single
interval on every edge label.  The shaping algorithm (Section 4) requires
both inputs to be simple; this module applies the two semantics-preserving
operations the paper names — *edge splitting* and *subgraph replication* —
exhaustively:

* every edge whose label has ``k`` component intervals becomes ``k``
  edges, each with one interval, targeting ``k`` replicas of the subgraph;
* every node with multiple parents is replicated per parent, turning the
  DAG into an outgoing directed tree.
"""

from __future__ import annotations

from repro.fdd.fdd import FDD
from repro.fdd.node import Edge, InternalNode, Node, TerminalNode
from repro.intervals.intervalset import IntervalSet

__all__ = ["make_simple"]


def _simple_copy(node: Node) -> Node:
    """Return a fresh simple tree equivalent to the subgraph at ``node``.

    Every recursive call creates brand-new nodes, so shared subgraphs are
    replicated and the result has one parent per node by construction.
    Edges are emitted sorted by interval low endpoint, which the shaping
    algorithm's linear edge walk relies on.
    """
    if isinstance(node, TerminalNode):
        return TerminalNode(node.decision)
    fresh = InternalNode(node.field_index)
    pieces: list[tuple[int, IntervalSet, Node]] = []
    for edge in node.edges:
        for interval in edge.label.intervals:
            pieces.append((interval.lo, IntervalSet([interval]), edge.target))
    pieces.sort(key=lambda item: item[0])
    for _, label, target in pieces:
        fresh.edges.append(Edge(label, _simple_copy(target)))
    return fresh


def make_simple(fdd: FDD) -> FDD:
    """Return a new simple FDD equivalent to ``fdd``.

    The input is not modified.  The output is an outgoing directed tree
    whose every edge carries a single interval, with edges sorted by low
    endpoint at every node.

    >>> # doctest smoke: a terminal-only FDD is trivially simple
    >>> from repro.fields import toy_schema
    >>> from repro.policy import ACCEPT
    >>> from repro.fdd.node import TerminalNode
    >>> make_simple(FDD(toy_schema(3), TerminalNode(ACCEPT))).is_simple()
    True
    """
    return FDD(fdd.schema, _simple_copy(fdd.root))
