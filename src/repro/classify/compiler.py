"""Lowering FDDs into :class:`~repro.classify.matcher.CompiledMatcher`.

The compiler is a single deterministic DFS over the diagram:

* children are compiled before parents (post-order), so a node's jump
  table can be emitted in one pass;
* shared subgraphs (the store engine's DAGs) are compiled once — node
  identity, not structure, keys the memo — so artifact size is linear
  in *shared* nodes exactly like the diagrams themselves;
* per node, every edge label's intervals are flattened into
  ``(lo, hi, jump)`` segments and sorted by ``lo``; consistency and
  completeness are *verified* while packing (the segments must tile the
  field's domain exactly), so a malformed input raises
  :class:`~repro.exceptions.FDDError` instead of compiling into a
  matcher with undefined lookups;
* recursion depth is bounded by the schema's field count (every path
  tests each field at most once), so plain recursion is safe even for
  diagrams with millions of nodes.

Compilation is budgeted: ``guard`` ticks one node per compiled node —
the same budget currency as construction — so a serving layer can bound
compile cost per policy (:class:`repro.serve.PolicyServer` threads its
budget through here).
"""

from __future__ import annotations

from array import array

from repro.exceptions import FDDError
from repro.fdd.fdd import FDD
from repro.fdd.node import Node, TerminalNode
from repro.guard.context import GuardContext
from repro.policy.decision import Decision
from repro.policy.firewall import Firewall
from repro.classify.matcher import CompiledMatcher

__all__ = ["compile_fdd", "compile_firewall"]


def compile_fdd(fdd: FDD, *, guard: GuardContext | None = None) -> CompiledMatcher:
    """Compile a (reduced) FDD into a flat-array matcher.

    Accepts diagrams from either engine — the store engine's interned
    DAGs and the reference pipeline's trees alike; any diagram whose
    nodes satisfy consistency and completeness compiles, and the result
    decides every packet exactly as ``fdd.evaluate`` does.

    ``guard`` ticks one node per compiled node (shared subgraphs tick
    once), enforcing ``max_nodes``/deadline budgets during compilation.

    >>> from repro.fields import toy_schema
    >>> from repro.policy import Firewall, Rule, ACCEPT, DISCARD
    >>> from repro.fdd.fast import construct_fdd_fast
    >>> schema = toy_schema(9, 9)
    >>> fw = Firewall(schema, [Rule.build(schema, DISCARD, F1=(2, 4)),
    ...                        Rule.build(schema, ACCEPT)])
    >>> matcher = compile_fdd(construct_fdd_fast(fw))
    >>> str(matcher.classify((3, 0))), str(matcher.classify((5, 0)))
    ('discard', 'accept')
    """
    schema = fdd.schema
    decisions: list[Decision] = []
    decision_codes: dict[Decision, int] = {}

    def terminal_code(decision: Decision) -> int:
        code = decision_codes.get(decision)
        if code is None:
            code = -1 - len(decisions)
            decision_codes[decision] = code
            decisions.append(decision)
        return code

    #: id(node) -> compiled node id, for shared (DAG) subgraphs.
    compiled: dict[int, int] = {}
    #: Per compiled node id: (field_index, [(lo, jump), ...]) with the
    #: segment list sorted by lo and verified to tile the domain.
    rows: list[tuple[int, list[tuple[int, int]]]] = []

    def visit(node: Node) -> int:
        if isinstance(node, TerminalNode):
            return terminal_code(node.decision)
        found = compiled.get(id(node))
        if found is not None:
            return found
        if guard is not None:
            guard.tick_nodes()
        field_index = node.field_index
        if not 0 <= field_index < len(schema):
            raise FDDError(
                f"cannot compile: node labelled with unknown field {field_index}"
            )
        segments: list[tuple[int, int, int]] = []
        for edge in node.edges:
            jump = visit(edge.target)
            for interval in edge.label.intervals:
                segments.append((interval.lo, interval.hi, jump))
        segments.sort()
        # Consistency + completeness = the segments tile [0, max_value]
        # exactly; anything else would leave lookups undefined.
        expected_lo = 0
        max_value = schema[field_index].max_value
        for lo, hi, _ in segments:
            if lo != expected_lo:
                raise FDDError(
                    "cannot compile: outgoing labels of a node labelled"
                    f" {schema[field_index].name} skip or overlap at value"
                    f" {min(lo, expected_lo)}"
                )
            expected_lo = hi + 1
        if expected_lo != max_value + 1:
            raise FDDError(
                "cannot compile: outgoing labels of a node labelled"
                f" {schema[field_index].name} stop at {expected_lo - 1},"
                f" domain ends at {max_value}"
            )
        node_id = len(rows)
        rows.append((field_index, [(lo, jump) for lo, _, jump in segments]))
        compiled[id(node)] = node_id
        return node_id

    root = visit(fdd.root)

    node_field = array("h", (field_index for field_index, _ in rows))
    node_off = array("q", [0] * (len(rows) + 1))
    total = 0
    for i, (_, segments) in enumerate(rows):
        node_off[i] = total
        total += len(segments)
    node_off[len(rows)] = total
    bounds = array("q", [0]) * 0
    targets = array("q", [0]) * 0
    for _, segments in rows:
        bounds.extend(lo for lo, _ in segments)
        targets.extend(jump for _, jump in segments)
    return CompiledMatcher(
        schema, root, tuple(decisions), node_field, node_off, bounds, targets
    )


def compile_firewall(
    firewall: Firewall,
    *,
    guard: GuardContext | None = None,
    store=None,
) -> CompiledMatcher:
    """Construct a policy's reduced FDD (store engine) and compile it.

    The one-call path from rule list to serving artifact: hash-consed
    construction (already reduced, so the artifact is minimal) followed
    by :func:`compile_fdd`, both under the same ``guard``.  ``store``
    optionally reuses an existing :class:`~repro.fdd.store.NodeStore`
    (its interned labels make repeated compiles of policy variants
    cheaper); construction state never leaks into the artifact.
    """
    from repro.fdd.fast import construct_fdd_fast

    return compile_fdd(
        construct_fdd_fast(firewall, store, guard=guard), guard=guard
    )
