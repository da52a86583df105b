"""The shared hash-consed node store: one core for both FDD engines.

Every scalable algorithm in the library (fast construction, reduction,
canonicalization, the product comparison, the sharded parallel engine)
rests on the same two ideas:

* **Interning** — nodes are unique per structural signature (decision for
  terminals; ``(field, ((label, child), ...))`` for internals), so equal
  subgraphs are the *same object* and structural equality is an ``id``
  comparison;
* **Memoization keyed by identity** — with interning in place, per-store
  memo tables over node ids make appending a rule, taking a product, or
  relabelling terminals linear in *shared* nodes instead of paths.

:class:`NodeStore` owns both: the interval-label kernel (interned
:class:`~repro.intervals.IntervalSet` labels plus a bounded pairwise
algebra memo), the node tables, and the algorithm memo tables (append,
product, terminal relabelling, per-node coverage).  The store keeps
every interned object alive, so ``id``-based memo keys can never be
silently reused while the store exists.

Nodes handed out by a store are *shared and immutable by convention*:
mutating them corrupts the signature tables.  The mutable-tree reference
pipeline (:mod:`repro.fdd.construction` and friends) copies before
mutating, so store-backed diagrams can flow into it safely.

The store also carries guard-integrated accounting: ``nodes_created`` /
``edges_created`` count real allocations (interning hits are free), and
an optional store-level :class:`~repro.guard.GuardContext` ticks one node
per allocation — used by interning workloads such as
:func:`repro.fdd.reduce.reduce_fdd` that have no per-visit guard of their
own.  Traversal-heavy algorithms (construction, product walks) instead
tick their per-call guards once per *visit*, which is the budget currency
the rest of the library uses.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import chain
from typing import Sequence

from repro.guard.context import GuardContext
from repro.intervals.intervalset import IntervalSet
from repro.policy.decision import Decision
from repro.policy.firewall import Firewall
from repro.fdd.fdd import FDD
from repro.fdd.node import Edge, InternalNode, Node, TerminalNode

__all__ = ["NodeStore", "PAIRWISE_MEMO_LIMIT", "APPEND_MEMO_LIMIT"]


#: Default bound on the pairwise interval-operation memo (entries).  Past
#: it, each insert evicts the oldest entry (first in, first out; hits do
#: not reorder), so the memo's size is the number of distinct op keys
#: seen, capped here.  Keys are ``(op, id, id)`` triples over *interned*
#: sets, so each entry is three machine words plus the interned result
#: reference.
PAIRWISE_MEMO_LIMIT = 1 << 16

#: Bound on the per-store append memo.  Entries accumulate across rules
#: (that is what makes re-appending an identical rule to an identical
#: node free), but a multi-thousand-rule construction must not retain
#: every per-rule walk forever; past the limit the table is dropped and
#: rebuilt, which only costs re-computation, never correctness.
APPEND_MEMO_LIMIT = 1 << 17

#: Op tags for the pairwise memo keys (smaller than strings to hash).
_OP_AND, _OP_SUB, _OP_OR = 1, 2, 3

#: The interval sweep behind each op tag, run on a memo miss.
_SWEEPS = {
    _OP_AND: IntervalSet.intersect,
    _OP_SUB: IntervalSet.subtract,
    _OP_OR: IntervalSet.union,
}


def _label_min(part: list) -> int:
    """Sort key of a ``[label, child]`` edge: the label's minimum."""
    return part[0].min()


class NodeStore:
    """Interns FDD nodes — and their interval-set labels — by structure.

    Terminals intern by decision; internal nodes by
    ``(field, id(label), id(child), ...)`` with the edge list sorted by
    label minimum.  Because children are interned before parents, equal
    subgraphs always resolve to the *same object*, making structural
    equality an ``id`` comparison — the property the memoized algorithms
    rely on.

    :class:`~repro.intervals.IntervalSet` labels get the same treatment
    (:meth:`intern_set`): equal labels resolve to one pointer-stable
    instance, which makes a bounded pairwise memo over
    :meth:`intersect` / :meth:`subtract` / :meth:`union` sound — keys are
    ``id`` pairs, and interned instances are kept alive by the store, so
    an id can never be silently reused while the store exists.  The same
    few label pairs are intersected over and over during construction and
    the product walk (every shared subtree replays its edge algebra), so
    the memo converts the interval sweeps of the hot loop into dict hits.
    Each interned node's coverage (the union of its edge labels) is
    folded through that memo once and then cached, since nodes never
    change.

    On top of the tables the store offers the shared node algebra:
    :meth:`chain` / :meth:`append` / :meth:`construct` (functional rule
    appending — the fast construction engine), :meth:`intern` (recursive
    interning of an external diagram — reduction), and
    :meth:`map_terminals` (memoized terminal relabelling).  The product
    caches (:attr:`pair_table` / :attr:`pair_memo`) are used by
    :func:`repro.fdd.fast.build_difference`, so repeated products over
    one store — e.g. the shards of :mod:`repro.parallel` — share every
    repeated sub-product.
    """

    def __init__(
        self,
        *,
        memo_limit: int = PAIRWISE_MEMO_LIMIT,
        guard: GuardContext | None = None,
    ) -> None:
        self._terminals: dict[Decision, TerminalNode] = {}
        self._internals: dict[tuple, InternalNode] = {}
        #: ids of nodes this store handed out (fast ownership test; the
        #: nodes are kept alive by the tables, so ids are stable).
        self._owned: set[int] = set()
        #: set -> the canonical (interned) instance for that value content.
        self._sets: dict[IntervalSet, IntervalSet] = {}
        #: (op, id(a), id(b)) -> interned result, bounded first in,
        #: first out (see PAIRWISE_MEMO_LIMIT).
        self._op_memo: OrderedDict[tuple[int, int, int], IntervalSet] = (
            OrderedDict()
        )
        self._memo_limit = max(1, memo_limit)
        #: id(owned internal node) -> union of its edge labels.
        self._coverage: dict[int, IntervalSet] = {}
        #: (rule set ids, decision) -> small int naming the rule in memo keys.
        self._rule_ids: dict[tuple, int] = {}
        #: (id(node), rule id) -> appended node (see :meth:`append`).
        self._append_memo: dict[tuple, Node] = {}
        #: (id(node), relabel table) -> relabelled node.
        self._relabel_memo: dict[tuple, Node] = {}
        #: Product-walk caches for :func:`repro.fdd.fast.build_difference`:
        #: structural signature -> product node, and (id, id) pair -> result.
        self.pair_table: dict = {}
        self.pair_memo: dict = {}
        #: Optional store-level guard: ticks one node per *allocation*.
        #: Set it for interning workloads (reduce) that have no per-visit
        #: guard; leave it ``None`` under construction/product guards,
        #: which tick per visit themselves.
        self.guard = guard
        #: Real allocations (interning hits do not count).
        self.nodes_created = 0
        self.edges_created = 0

    # ------------------------------------------------------------------
    # Interval kernel: interning + memoized pairwise algebra
    # ------------------------------------------------------------------
    def intern_set(self, values: IntervalSet) -> IntervalSet:
        """The canonical instance holding ``values``'s value content.

        Identical labels become pointer-equal; the returned instance is
        kept alive by the store, so its ``id`` is a stable memo key.
        """
        found = self._sets.get(values)
        if found is None:
            self._sets[values] = values
            return values
        return found

    def _memo_put(self, key: tuple[int, int, int], result: IntervalSet) -> None:
        memo = self._op_memo
        memo[key] = result
        if len(memo) > self._memo_limit:
            memo.popitem(last=False)

    def _label_op(self, op: int, a: IntervalSet, b: IntervalSet) -> IntervalSet:
        """Memoized ``a <op> b`` over operands that are *already interned*."""
        ia, ib = id(a), id(b)
        key = (op, ib, ia) if op != _OP_SUB and ib < ia else (op, ia, ib)
        found = self._op_memo.get(key)
        if found is None:
            found = self.intern_set(_SWEEPS[op](a, b))
            self._memo_put(key, found)
        return found

    def intersect(self, a: IntervalSet, b: IntervalSet) -> IntervalSet:
        """Memoized ``a & b`` over interned operands (commutative key)."""
        return self._label_op(_OP_AND, self.intern_set(a), self.intern_set(b))

    def subtract(self, a: IntervalSet, b: IntervalSet) -> IntervalSet:
        """Memoized ``a - b`` over interned operands."""
        return self._label_op(_OP_SUB, self.intern_set(a), self.intern_set(b))

    def union(self, a: IntervalSet, b: IntervalSet) -> IntervalSet:
        """Memoized ``a | b`` over interned operands (commutative key)."""
        return self._label_op(_OP_OR, self.intern_set(a), self.intern_set(b))

    def _covered(self, node: InternalNode) -> IntervalSet:
        """The union of an *owned* node's edge labels, cached per node.

        Folded through the pairwise memo, so the first computation
        records the same ``union`` keys a per-visit fold would; later
        visits of the (immutable) node read the cached union.
        """
        covered = self._coverage.get(id(node))
        if covered is None:
            covered = self.intern_set(IntervalSet.empty())
            for edge in node.edges:
                covered = self._label_op(_OP_OR, covered, edge.label)
            self._coverage[id(node)] = covered
        return covered

    # ------------------------------------------------------------------
    # Node interning
    # ------------------------------------------------------------------
    def terminal(self, decision: Decision) -> TerminalNode:
        """The unique terminal node for ``decision``."""
        found = self._terminals.get(decision)
        if found is None:
            found = TerminalNode(decision)
            self._terminals[decision] = found
            self._owned.add(id(found))
            self.nodes_created += 1
            if self.guard is not None:
                self.guard.tick_nodes()
        return found

    def internal(
        self, field_index: int, edges: Sequence[tuple[IntervalSet, Node]]
    ) -> Node:
        """The unique internal node with the given (merged) edges.

        Edges pointing at the same child are merged by unioning labels.
        Single-child nodes are *kept* (not collapsed into the child): the
        construction algorithm's partial FDDs rely on every field being
        present on every path, exactly as in the reference implementation.
        """
        return self._node(
            field_index, [(self.intern_set(label), child) for label, child in edges]
        )

    def _node(
        self, field_index: int, edges: Sequence[tuple[IntervalSet, Node]]
    ) -> Node:
        """:meth:`internal` over edges whose labels are already interned."""
        merged: dict[int, list] = {}
        for label, child in edges:
            slot = merged.get(id(child))
            if slot is None:
                merged[id(child)] = [label, child]
            else:
                slot[0] = self._label_op(_OP_OR, slot[0], label)
        parts = sorted(merged.values(), key=_label_min)
        signature = (field_index, *map(id, chain.from_iterable(parts)))
        found = self._internals.get(signature)
        if found is None:
            found = InternalNode(field_index, [Edge(label, child) for label, child in parts])
            self._internals[signature] = found
            self._owned.add(id(found))
            self.nodes_created += 1
            self.edges_created += len(parts)
            if self.guard is not None:
                self.guard.tick_nodes()
        return found

    def owns(self, node: Node) -> bool:
        """True when ``node`` was interned by (and is kept alive by) this
        store, so identity comparisons against other store nodes are
        meaningful."""
        return id(node) in self._owned

    # ------------------------------------------------------------------
    # Shared-node algebra
    # ------------------------------------------------------------------
    def chain(
        self,
        rule_sets: Sequence[IntervalSet],
        decision: Decision,
        index: int = 0,
    ) -> Node:
        """The one-path partial FDD of a rule suffix, fully interned.

        The store-backed counterpart of
        :func:`repro.fdd.construction.build_decision_path`: a chain of
        internal nodes for fields ``index .. d-1`` ending in the decision
        terminal.
        """
        interned = list(rule_sets)
        for i in range(index, len(interned)):
            interned[i] = self.intern_set(interned[i])
        return self._chain(interned, decision, index)

    def _chain(
        self, rule_sets: Sequence[IntervalSet], decision: Decision, index: int
    ) -> Node:
        """:meth:`chain` over fields ``index ..`` whose sets are interned."""
        node: Node = self.terminal(decision)
        for i in range(len(rule_sets) - 1, index - 1, -1):
            node = self._node(i, [(rule_sets[i], node)])
        return node

    def append(
        self,
        node: Node,
        rule_sets: Sequence[IntervalSet],
        decision: Decision,
        *,
        guard: GuardContext | None = None,
    ) -> Node:
        """Functionally append one rule to a partial FDD rooted at ``node``.

        The store-backed counterpart of the paper's APPEND (Fig. 7):
        returns the interned root of the diagram with the rule appended,
        leaving ``node`` untouched.  Because interning makes structural
        equality identity, the result *is* ``node`` itself **iff** the
        rule adds no decision path — i.e. every packet matching the rule
        was already decided by earlier rules (the rule is ineffective).
        :mod:`repro.analysis.effective` decides effectiveness with
        exactly this identity test.

        Memoized per ``(node, rule)`` in a per-store table, so shared
        subtrees are processed once per rule, and re-appending an
        identical rule to an identical node (across calls) is free.
        ``guard`` ticks one node per visit, mirroring the reference
        construction's budget currency.  A ``node`` the store does not
        own is interned first (:meth:`intern`).  :meth:`prepend` is the
        same walk with the rule placed first instead of last.
        """
        return self._put_rule(
            node, rule_sets, decision, self._append_memo, False, guard
        )

    def prepend(
        self,
        node: Node,
        rule_sets: Sequence[IntervalSet],
        decision: Decision,
        *,
        guard: GuardContext | None = None,
    ) -> Node:
        """Functionally put one rule *above* a partial FDD rooted at ``node``.

        Fig. 7 with the roles swapped: inside the rule's box the rule
        overrides whatever ``node`` decides; outside it ``node`` is
        untouched.  Folding ``prepend`` over a rule list from the last
        rule up builds the suffix diagrams of
        :mod:`repro.analysis.redundancy`, and the final root *is* the
        root :meth:`construct` builds front to back (both are the
        canonical reduced diagram of the same policy).

        The walk is :meth:`append`'s; only the terminal differs.  Its
        memo lives for this call only, so a prepend's guard spend (one
        tick per visit) does not depend on what the store has seen.
        """
        return self._put_rule(node, rule_sets, decision, {}, True, guard)

    def _put_rule(
        self,
        node: Node,
        rule_sets: Sequence[IntervalSet],
        decision: Decision,
        memo: dict,
        override: bool,
        guard: GuardContext | None,
    ) -> Node:
        """The walk behind :meth:`append` (``override=False``: a decided
        packet keeps its decision) and :meth:`prepend` (``override=True``:
        the rule's decision replaces it).

        Every label op goes through the pairwise memo, keyed on the ids
        of already-interned operands, so a repeated op is one dict hit.
        On a miss, an edge label disjoint from the rule's set meets it in
        the empty set, and a label inside a one-interval rule set meets it
        in itself with an empty remainder; only the other misses run an
        interval sweep.  Node coverage comes from :meth:`_covered`.
        """
        node = self.intern(node)
        rule_sets = tuple(self.intern_set(s) for s in rule_sets)
        rule_key = (tuple(id(s) for s in rule_sets), decision)
        rule_id = self._rule_ids.setdefault(rule_key, len(self._rule_ids))
        # (min, max, one interval?) per rule set; an empty set meets nothing.
        bounds = [
            (s.min(), s.max(), s.is_single_interval()) if s else (0, -1, False)
            for s in rule_sets
        ]
        num_fields = len(rule_sets)
        if len(memo) > APPEND_MEMO_LIMIT:
            memo.clear()
        decided = self.terminal(decision) if override else None
        intern = self.intern_set
        sets = self._sets
        # The interned empty set, once a coverage fold has interned it.
        empty = sets.get(IntervalSet.empty())
        op_memo = self._op_memo
        memo_put = self._memo_put

        def rec(node: Node, index: int) -> Node:
            nonlocal empty
            if guard is not None:
                guard.tick_nodes()
            if isinstance(node, TerminalNode):
                return node if decided is None else decided
            key = (id(node), rule_id)
            found = memo.get(key)
            if found is not None:
                return found
            rule_set = rule_sets[index]
            ir = id(rule_set)
            low, high, whole = bounds[index]
            covered = self._covered(node)
            if empty is None:
                empty = sets[IntervalSet.empty()]
            new_edges: list[tuple[IntervalSet, Node]] = []
            changed = False
            for edge in node.edges:
                label = edge.label
                target = edge.target
                il = id(label)
                op_key = (_OP_AND, il, ir) if il <= ir else (_OP_AND, ir, il)
                common = op_memo.get(op_key)
                if common is None:
                    if label.max() < low or label.min() > high:
                        common = empty
                    elif whole and low <= label.min() and label.max() <= high:
                        common = label
                    else:
                        common = intern(label.intersect(rule_set))
                    memo_put(op_key, common)
                if common is empty:
                    new_edges.append((label, target))
                    continue
                op_key = (_OP_SUB, il, id(common))
                outside = op_memo.get(op_key)
                if outside is None:
                    outside = (
                        empty if common is label else intern(label.subtract(common))
                    )
                    memo_put(op_key, outside)
                if outside is not empty:
                    new_edges.append((outside, target))
                    changed = True
                child = rec(target, index + 1)
                new_edges.append((common, child))
                changed = changed or child is not target
            uncovered = self._label_op(_OP_SUB, rule_set, covered)
            if uncovered is not empty:
                if index + 1 == num_fields:
                    target = self.terminal(decision)
                else:
                    target = self._chain(rule_sets, decision, index + 1)
                new_edges.append((uncovered, target))
                changed = True
            # An unchanged edge list re-interns to ``node`` itself.
            result = self._node(node.field_index, new_edges) if changed else node
            memo[key] = result
            return result

        return rec(node, 0)

    def construct(
        self, firewall: Firewall, *, guard: GuardContext | None = None
    ) -> FDD:
        """Build the firewall's maximally-shared ordered FDD in this store.

        The engine behind :func:`repro.fdd.fast.construct_fdd_fast`:
        chain the first rule, then functionally :meth:`append` the rest.
        Because every node is interned, the output is *already reduced*
        (no two distinct isomorphic subgraphs, no parallel edges to one
        child) — it is the canonical reduced ordered FDD of the policy.
        """
        rules = firewall.rules
        first = rules[0]
        root = self.chain(
            tuple(self.intern_set(s) for s in first.predicate.sets),
            first.decision,
        )
        for rule in rules[1:]:
            if guard is not None:
                guard.checkpoint("fast.rule")
            root = self.append(
                root, rule.predicate.sets, rule.decision, guard=guard
            )
        return FDD(firewall.schema, root)

    def intern(self, root: Node) -> Node:
        """Intern an external diagram: the maximally-shared equal subgraph.

        Recursively rebuilds ``root``'s subgraph out of store nodes;
        isomorphic subgraphs collapse to one shared node and parallel
        edges to one child merge — this *is* FDD reduction
        (:func:`repro.fdd.reduce.reduce_fdd` delegates here).  Idempotent
        and O(1) on nodes the store already owns.  The input is not
        modified.
        """
        if id(root) in self._owned:
            return root
        # External node ids are only stable for the duration of this call
        # (nothing keeps the input alive afterwards), so the walk memo is
        # per-call; owned-node ids are stable and short-circuit above.
        interned_by_id: dict[int, Node] = {}

        def rec(node: Node) -> Node:
            if id(node) in self._owned:
                return node
            found = interned_by_id.get(id(node))
            if found is not None:
                return found
            if isinstance(node, TerminalNode):
                made: Node = self.terminal(node.decision)
            else:
                made = self.internal(
                    node.field_index,
                    [(edge.label, rec(edge.target)) for edge in node.edges],
                )
            interned_by_id[id(node)] = made
            return made

        return rec(root)

    def map_terminals(
        self, root: Node, mapping: dict[Decision, Decision]
    ) -> Node:
        """A shared diagram with terminal decisions rewritten by ``mapping``.

        Decisions absent from ``mapping`` are kept.  Memoized per
        ``(node, mapping)`` in a per-store table (label algebra of the
        negated/relabelled diagram is untouched, so the rewrite is linear
        in shared nodes); external inputs are interned first.
        """
        root = self.intern(root)
        table = tuple(sorted(mapping.items(), key=lambda kv: kv[0].name))
        memo = self._relabel_memo

        def rec(node: Node) -> Node:
            key = (id(node), table)
            found = memo.get(key)
            if found is not None:
                return found
            if isinstance(node, TerminalNode):
                made: Node = self.terminal(mapping.get(node.decision, node.decision))
            else:
                made = self.internal(
                    node.field_index,
                    [(edge.label, rec(edge.target)) for edge in node.edges],
                )
            memo[key] = made
            return made

        return rec(root)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Allocation and table-size counters (bench and guard reports).

        ``op_memo`` counts the distinct label-op keys ``(op, id, id)`` the
        store has seen, capped at the memo bound: an op decided without
        an interval sweep still records its key.  The end-to-end
        benchmark (``e2ebench``) draws its design-diff inputs by this
        count, so a kernel change must keep it, like ``nodes_created``
        and ``edges_created``, exactly as it was.
        """
        return {
            "nodes_created": self.nodes_created,
            "edges_created": self.edges_created,
            "terminals": len(self._terminals),
            "internals": len(self._internals),
            "interned_sets": len(self._sets),
            "op_memo": len(self._op_memo),
            "append_memo": len(self._append_memo),
            "pair_memo": len(self.pair_memo),
        }

    def __repr__(self) -> str:
        return (
            f"<NodeStore {len(self._internals)} internals,"
            f" {len(self._terminals)} terminals,"
            f" {len(self._sets)} interned sets>"
        )
