"""NodeStore: interning identities, functional append, memoized algebra."""

import pytest

from repro.fields import toy_schema
from repro.guard import Budget, GuardContext
from repro.intervals import IntervalSet
from repro.policy import ACCEPT, ACCEPT_LOG, DISCARD, Firewall, Rule
from repro.fdd.construction import construct_fdd
from repro.fdd.fast import construct_fdd_fast
from repro.fdd.reduce import reduce_fdd
from repro.fdd.store import NodeStore

SCHEMA = toy_schema(9, 9)


def make_firewall(rules):
    return Firewall(SCHEMA, rules)


class TestInterning:
    def test_terminals_are_unique_per_decision(self):
        store = NodeStore()
        assert store.terminal(ACCEPT) is store.terminal(ACCEPT)
        assert store.terminal(ACCEPT) is not store.terminal(DISCARD)

    def test_structurally_equal_internals_are_identical(self):
        store = NodeStore()
        leaf = store.terminal(ACCEPT)
        a = store.internal(0, [(IntervalSet.span(0, 4), leaf)])
        b = store.internal(0, [(IntervalSet.span(0, 4), leaf)])
        assert a is b

    def test_parallel_edges_to_one_child_merge(self):
        store = NodeStore()
        leaf = store.terminal(ACCEPT)
        node = store.internal(
            0, [(IntervalSet.span(0, 3), leaf), (IntervalSet.span(4, 9), leaf)]
        )
        assert len(node.edges) == 1
        assert node.edges[0].label == IntervalSet.span(0, 9)

    def test_owns_reports_store_membership(self):
        store = NodeStore()
        other = NodeStore()
        node = store.terminal(ACCEPT)
        assert store.owns(node)
        assert not other.owns(node)

    def test_intern_is_idempotent_and_o1_on_owned_nodes(self):
        store = NodeStore()
        fdd = construct_fdd_fast(
            make_firewall(
                [Rule.build(SCHEMA, DISCARD, F1=(2, 4)), Rule.build(SCHEMA, ACCEPT)]
            ),
            store,
        )
        assert store.intern(fdd.root) is fdd.root

    def test_intern_external_tree_merges_isomorphic_subgraphs(self):
        fw = make_firewall(
            [Rule.build(SCHEMA, DISCARD, F1=(2, 4)), Rule.build(SCHEMA, ACCEPT)]
        )
        tree = construct_fdd(fw)  # mutable reference tree, no sharing
        store = NodeStore()
        shared = store.intern(tree.root)
        fast = construct_fdd_fast(fw, store)
        assert shared is fast.root  # same store => same canonical node
        # The input tree is untouched.
        assert not store.owns(tree.root)

    def test_allocation_counters_count_real_allocations_only(self):
        store = NodeStore()
        leaf = store.terminal(ACCEPT)
        store.terminal(ACCEPT)  # interning hit
        store.internal(0, [(IntervalSet.span(0, 9), leaf)])
        store.internal(0, [(IntervalSet.span(0, 9), leaf)])  # hit
        assert store.nodes_created == 2
        assert store.edges_created == 1
        stats = store.stats()
        assert stats["terminals"] == 1
        assert stats["internals"] == 1

    def test_store_guard_ticks_on_allocation(self):
        guard = GuardContext(Budget.unlimited())
        store = NodeStore(guard=guard)
        leaf = store.terminal(ACCEPT)
        store.internal(0, [(IntervalSet.span(0, 9), leaf)])
        store.internal(0, [(IntervalSet.span(0, 9), leaf)])  # hit: no tick
        assert guard.progress()["nodes_expanded"] == 2


class TestAppend:
    def test_dead_rule_returns_the_same_root(self):
        store = NodeStore()
        root = store.chain(
            tuple(Rule.build(SCHEMA, ACCEPT).predicate.sets), ACCEPT
        )
        dead = Rule.build(SCHEMA, DISCARD, F1=(2, 4))
        assert store.append(root, dead.predicate.sets, DISCARD) is root

    def test_effective_rule_returns_a_new_root(self):
        store = NodeStore()
        first = Rule.build(SCHEMA, ACCEPT, F1=(0, 3))
        root = store.chain(tuple(first.predicate.sets), ACCEPT)
        second = Rule.build(SCHEMA, DISCARD)
        assert store.append(root, second.predicate.sets, DISCARD) is not root

    def test_append_matches_reference_semantics(self):
        fw = make_firewall(
            [
                Rule.build(SCHEMA, ACCEPT, F1=(0, 3), F2=(1, 5)),
                Rule.build(SCHEMA, DISCARD, F1=(2, 7)),
                Rule.build(SCHEMA, ACCEPT),
            ]
        )
        fast = construct_fdd_fast(fw)
        for p in [(0, 0), (2, 3), (3, 9), (7, 0), (9, 9)]:
            assert fast.evaluate(p) == fw(p)

    def test_append_guard_budget_trips(self):
        from repro.exceptions import BudgetExceededError

        store = NodeStore()
        first = Rule.build(SCHEMA, ACCEPT, F1=(0, 3))
        root = store.chain(tuple(first.predicate.sets), ACCEPT)
        guard = GuardContext(Budget(max_nodes=1))
        with pytest.raises(BudgetExceededError):
            store.append(
                root,
                Rule.build(SCHEMA, DISCARD).predicate.sets,
                DISCARD,
                guard=guard,
            )

    def test_a_trip_leaves_the_store_consistent(self):
        """Whatever tick a construction trips on, the same store then
        builds the canonical root a fresh store builds."""
        from repro.exceptions import BudgetExceededError
        from repro.fdd.canonical import fingerprint_canonical

        fw = make_firewall(
            [
                Rule.build(SCHEMA, ACCEPT, F1=(0, 3), F2=(1, 5)),
                Rule.build(SCHEMA, DISCARD, F1=(2, 7), F2=(0, 6)),
                Rule.build(SCHEMA, ACCEPT_LOG, F2=(4, 9)),
                Rule.build(SCHEMA, DISCARD),
            ]
        )
        expected = fingerprint_canonical(NodeStore().construct(fw))
        full = GuardContext(Budget.unlimited())
        NodeStore().construct(fw, guard=full)
        assert full.nodes_expanded > 3
        for limit in range(full.nodes_expanded):
            store = NodeStore()
            with pytest.raises(BudgetExceededError):
                store.construct(fw, guard=GuardContext(Budget(max_nodes=limit)))
            assert fingerprint_canonical(store.construct(fw)) == expected


class TestMapTerminals:
    def test_relabels_and_shares(self):
        store = NodeStore()
        fdd = construct_fdd_fast(
            make_firewall(
                [Rule.build(SCHEMA, DISCARD, F1=(2, 4)), Rule.build(SCHEMA, ACCEPT)]
            ),
            store,
        )
        flipped = store.map_terminals(fdd.root, {DISCARD: ACCEPT_LOG})
        from repro.fdd.fdd import FDD

        out = FDD(SCHEMA, flipped)
        assert out.evaluate((3, 0)) == ACCEPT_LOG
        assert out.evaluate((0, 0)) == ACCEPT
        # Identity mapping is a no-op node-wise.
        assert store.map_terminals(fdd.root, {}) is fdd.root

    def test_relabel_is_memoized(self):
        store = NodeStore()
        fdd = construct_fdd_fast(
            make_firewall(
                [Rule.build(SCHEMA, DISCARD, F1=(2, 4)), Rule.build(SCHEMA, ACCEPT)]
            ),
            store,
        )
        once = store.map_terminals(fdd.root, {DISCARD: ACCEPT_LOG})
        twice = store.map_terminals(fdd.root, {DISCARD: ACCEPT_LOG})
        assert once is twice


class TestReduceDelegation:
    def test_reduce_into_shared_store_reuses_nodes(self):
        fw = make_firewall(
            [Rule.build(SCHEMA, DISCARD, F1=(2, 4)), Rule.build(SCHEMA, ACCEPT)]
        )
        store = NodeStore()
        fast = construct_fdd_fast(fw, store)
        reduced = reduce_fdd(construct_fdd(fw), store=store)
        assert reduced.root is fast.root

    def test_reduce_default_store_is_private(self):
        fw = make_firewall(
            [Rule.build(SCHEMA, DISCARD, F1=(2, 4)), Rule.build(SCHEMA, ACCEPT)]
        )
        reduced = reduce_fdd(construct_fdd(fw))
        reduced.validate()
        for p in [(0, 0), (3, 3), (9, 9)]:
            assert reduced.evaluate(p) == fw(p)
