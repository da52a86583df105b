"""The FDD shaping algorithm (Section 4, Figs. 10 and 11).

Transforms two ordered FDDs into two *semi-isomorphic* FDDs — identical
graphs except for terminal labels (Definition 4.2) — without changing
either diagram's semantics, using only the three semantics-preserving
operations of Section 4:

* **node insertion** — when the two shapable nodes carry different labels,
  a node labelled with the smaller field is inserted above the other node,
  with a single full-domain edge;
* **edge splitting** — when corresponding outgoing intervals disagree on
  their high endpoint, the longer edge is split at the shorter's endpoint;
* **subgraph replication** — a split edge's subtree is replicated so each
  half owns its own copy.

Both inputs are first made *simple* (Definition 4.3) via
:func:`repro.fdd.simplify.make_simple`; the algorithm then processes a
queue of shapable node pairs exactly as in Fig. 11, seeding it with the
two roots.
"""

from __future__ import annotations

from collections import deque

from repro.exceptions import NotOrderedError, SchemaError
from repro.fields.schema import FieldSchema
from repro.guard.context import GuardContext
from repro.intervals.intervalset import IntervalSet
from repro.fdd.fdd import FDD
from repro.fdd.node import Edge, InternalNode, Node, TerminalNode
from repro.fdd.simplify import make_simple

__all__ = ["make_semi_isomorphic", "are_semi_isomorphic", "shape_node_pair"]

#: Pseudo-label ordering terminal nodes after every field (a terminal can
#: only gain fields *above* it, never below).
_TERMINAL_LABEL = float("inf")


class _Slot:
    """Write-back handle for "the place a node hangs from".

    Node insertion must redirect either the node's unique incoming edge
    (simple FDDs have exactly one) or, for a root, the FDD's root pointer.
    """

    __slots__ = ("_fdd", "_edge")

    def __init__(self, fdd: FDD | None = None, edge: Edge | None = None):
        assert (fdd is None) != (edge is None), "slot needs exactly one anchor"
        self._fdd = fdd
        self._edge = edge

    def get(self) -> Node:
        if self._edge is not None:
            return self._edge.target
        assert self._fdd is not None
        return self._fdd.root

    def set(self, node: Node) -> None:
        if self._edge is not None:
            self._edge.target = node
        else:
            assert self._fdd is not None
            self._fdd.root = node


def _label(node: Node) -> float | int:
    return _TERMINAL_LABEL if isinstance(node, TerminalNode) else node.field_index


def _insert_above(slot: _Slot, field_index: int, schema: FieldSchema) -> InternalNode:
    """Node insertion: hang a full-domain node labelled ``field_index`` above."""
    below = slot.get()
    inserted = InternalNode(field_index)
    inserted.add_edge(schema.domain(field_index), below)
    slot.set(inserted)
    return inserted


def shape_node_pair(
    slot_a: _Slot,
    slot_b: _Slot,
    schema: FieldSchema,
    guard: GuardContext | None = None,
) -> list[tuple[Edge, Edge]]:
    """Make two shapable nodes semi-isomorphic (Fig. 10's Node_Shaping).

    Returns the list of shapable child pairs (as their incoming edges) to
    be enqueued by the caller.
    """
    va, vb = slot_a.get(), slot_b.get()

    # Step 1: equalize labels by node insertion (skipped when labels match
    # or both nodes are terminal).
    la, lb = _label(va), _label(vb)
    if la != lb:
        if la < lb:
            vb = _insert_above(slot_b, int(la), schema)
        else:
            va = _insert_above(slot_a, int(lb), schema)
    if isinstance(va, TerminalNode):
        assert isinstance(vb, TerminalNode)
        return []
    assert isinstance(vb, InternalNode)
    assert va.field_index == vb.field_index

    # Step 2: align the two sorted single-interval edge lists, splitting
    # the longer edge (and replicating its subgraph) on every mismatch.
    va.sort_edges()
    vb.sort_edges()
    pairs: list[tuple[Edge, Edge]] = []
    i = j = 0
    while i < len(va.edges) and j < len(vb.edges):
        edge_a, edge_b = va.edges[i], vb.edges[j]
        ia = edge_a.label.intervals[0]
        ib = edge_b.label.intervals[0]
        assert ia.lo == ib.lo, (
            "node-shaping invariant broken: compared intervals must share"
            f" their low endpoint, got {ia} vs {ib}"
        )
        if ia.hi == ib.hi:
            pairs.append((edge_a, edge_b))
            i += 1
            j += 1
        elif ia.hi < ib.hi:
            if guard is not None:
                guard.tick_splits()
            _split_edge(vb, j, ia.hi)
            pairs.append((edge_a, vb.edges[j]))
            i += 1
            j += 1
        else:
            if guard is not None:
                guard.tick_splits()
            _split_edge(va, i, ib.hi)
            pairs.append((va.edges[i], edge_b))
            i += 1
            j += 1
    assert i == len(va.edges) and j == len(vb.edges), (
        "node-shaping invariant broken: edge lists must end together"
        " (completeness guarantees both cover the same domain)"
    )
    return pairs


def _split_edge(node: InternalNode, index: int, split_hi: int) -> None:
    """Split ``node.edges[index]`` at ``split_hi`` (edge splitting).

    The low half keeps the original subgraph; the high half gets a
    replicated copy, inserted right after so the edge list stays sorted.
    """
    edge = node.edges[index]
    low, high = edge.label.intervals[0].split_at(split_hi)
    target = edge.target
    replica: Node = target.clone()
    edge.label = IntervalSet([low])
    node.edges.insert(index + 1, Edge(IntervalSet([high]), replica))


def make_semi_isomorphic(
    fa: FDD, fb: FDD, *, guard: GuardContext | None = None
) -> tuple[FDD, FDD]:
    """Shape two ordered FDDs into semi-isomorphic form (Fig. 11).

    Inputs are left untouched; the returned pair consists of fresh simple
    FDDs, semantically equivalent to their respective inputs, that are
    semi-isomorphic to each other.

    ``guard`` bounds the work (one node tick per shaped pair, one split
    tick per edge split).  Shaping mutates only the fresh copies, so a
    budget trip mid-queue discards them and leaves the inputs intact.
    """
    if fa.schema != fb.schema:
        raise SchemaError("cannot shape FDDs over different field schemas")
    if not fa.is_ordered() or not fb.is_ordered():
        raise NotOrderedError("shaping requires ordered FDDs (Definition 4.1)")
    if guard is not None:
        guard.checkpoint("shaping.start")
    fa = make_simple(fa)
    fb = make_simple(fb)
    queue: deque[tuple[_Slot, _Slot]] = deque()
    queue.append((_Slot(fdd=fa), _Slot(fdd=fb)))
    while queue:
        slot_a, slot_b = queue.popleft()
        if guard is not None:
            guard.tick_nodes()
            if guard.fault is not None:
                guard.fault.fire("shaping.pair")
        for edge_a, edge_b in shape_node_pair(slot_a, slot_b, fa.schema, guard):
            queue.append((_Slot(edge=edge_a), _Slot(edge=edge_b)))
    return fa, fb


def are_semi_isomorphic(fa: FDD, fb: FDD) -> bool:
    """Check Definition 4.2 structurally (labels, edges; terminals free)."""
    if fa.schema != fb.schema:
        return False

    def rec(na: Node, nb: Node) -> bool:
        if isinstance(na, TerminalNode) or isinstance(nb, TerminalNode):
            return isinstance(na, TerminalNode) and isinstance(nb, TerminalNode)
        if na.field_index != nb.field_index:
            return False
        if len(na.edges) != len(nb.edges):
            return False
        ea = sorted(na.edges, key=lambda e: e.label.min())
        eb = sorted(nb.edges, key=lambda e: e.label.min())
        for edge_a, edge_b in zip(ea, eb):
            if edge_a.label != edge_b.label:
                return False
            if not rec(edge_a.target, edge_b.target):
                return False
        return True

    return rec(fa.root, fb.root)
