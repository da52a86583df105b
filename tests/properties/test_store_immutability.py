"""Invariant 2 of ``docs/architecture.md``, executable: nothing reached
from a store root is mutated.

One :class:`~repro.fdd.store.NodeStore` runs a hypothesis-drawn script
of ``construct``, ``build``, ``prepend`` and ``build_difference`` calls
over policies on a toy schema.  Every root an operation returns is
snapshotted: for each node reachable from it, its field, and per edge
the label's identity and intervals and the child's identity.  After each
later operation every earlier root must still match its snapshot, and
every interval set the store has interned must still hold its value and
still be the canonical instance for it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fdd.fast import build_difference
from repro.fdd.fdd import FDD
from repro.fdd.node import InternalNode, TerminalNode
from repro.fdd.store import NodeStore
from repro.fields import toy_schema

from tests.conftest import firewalls, rules

SCHEMAS = (toy_schema(19, 9), toy_schema(9, 9, 9), toy_schema(5, 3, 9, 3))


def snapshot(root) -> dict[int, tuple]:
    """``id(node) -> (field, edges)`` for every node reachable from ``root``.

    Covers store nodes and difference nodes (whose edges are
    ``(label, child)`` pairs and whose leaves are decision pairs).
    """
    seen: dict[int, tuple] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        if isinstance(node, TerminalNode):
            seen[id(node)] = ("terminal", node.decision)
            continue
        if isinstance(node, tuple):  # a difference leaf: (decision, decision)
            seen[id(node)] = ("pair", node)
            continue
        pairs = (
            [(edge.label, edge.target) for edge in node.edges]
            if isinstance(node, InternalNode)
            else list(node.edges)
        )
        seen[id(node)] = (
            node.field_index,
            tuple((id(label), label.intervals, id(child)) for label, child in pairs),
        )
        stack.extend(child for _, child in pairs)
    return seen


@st.composite
def scripts(draw):
    """A schema and a list of store operations over it.

    ``prepend`` and ``difference`` name earlier diagram roots by index.
    """
    schema = draw(st.sampled_from(SCHEMAS))
    ops: list[tuple] = []
    diagrams = 0
    for _ in range(draw(st.integers(min_value=2, max_value=7))):
        kinds = ["construct", "build"] + (["prepend", "difference"] if diagrams else [])
        kind = draw(st.sampled_from(kinds))
        index = st.integers(min_value=0, max_value=max(diagrams - 1, 0))
        if kind in ("construct", "build"):
            ops.append((kind, draw(firewalls(schema, max_rules=5, include_log=True))))
            diagrams += 1
        elif kind == "prepend":
            ops.append((kind, draw(index), draw(rules(schema, include_log=True))))
            diagrams += 1
        else:
            ops.append((kind, draw(index), draw(index)))
    return schema, ops


@settings(max_examples=100, deadline=None)
@given(scripts())
def test_nothing_reached_from_a_root_is_mutated(script):
    schema, ops = script
    store = NodeStore()
    diagrams: list[FDD] = []
    roots: list[tuple[object, dict]] = []
    interned: dict[int, tuple] = {}

    for op in ops:
        kind = op[0]
        if kind == "construct":
            diagrams.append(store.construct(op[1]))
            root = diagrams[-1].root
        elif kind == "build":
            diagrams.append(store.build(op[1]))
            root = diagrams[-1].root
        elif kind == "prepend":
            _, index, rule = op
            node = store.prepend(diagrams[index].root, rule.predicate.sets, rule.decision)
            diagrams.append(FDD(schema, node))
            root = node
        else:
            _, i, j = op
            root = build_difference(diagrams[i], diagrams[j], store=store).root

        for earlier, taken in roots:
            assert snapshot(earlier) == taken
        for label, intervals in interned.values():
            assert label.intervals == intervals
            assert store._sets.get(label) is label
        roots.append((root, snapshot(root)))
        for label in store._sets:
            interned.setdefault(id(label), (label, label.intervals))
