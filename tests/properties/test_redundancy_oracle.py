"""Complete redundancy against its oracles.

:func:`find_redundant_rules` and :func:`remove_redundant_rules` decide
redundancy with one backward pass of :meth:`NodeStore.prepend`, one
forward pass of :meth:`NodeStore.append` and one box-restricted walk per
rule.  This suite checks them against two independent oracles on toy
schemas small enough to enumerate:

* the per-candidate oracle (``tests.conftest.candidate_redundant`` and
  ``candidate_remove``) — build the policy without rule ``i`` in the
  policy's own store and compare roots (canonical interning makes
  equivalence identity); its top-down greedy sweep is the removal
  oracle, and the production sweep must return its exact rule list;
* brute force — evaluate every packet with and without the rule.

It also pins the construction-order invariant (the ``prepend``-built
root of every suffix *is* its ``append``-built root) and the guard's
spend: ``prepend`` and the walk tick once per visit before their
per-call memo lookups, so a budget trips at the same tick whether or not
the store has run the analysis before.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.effective import effective_rules
from repro.analysis.redundancy import find_redundant_rules, remove_redundant_rules
from repro.exceptions import BudgetExceededError, FaultInjectedError
from repro.fdd.store import NodeStore
from repro.fields import enumerate_universe, toy_schema
from repro.guard import Budget, FaultInjector, GuardContext
from repro.policy import ACCEPT, DISCARD, Firewall, Rule
from repro.synth import SyntheticFirewallGenerator

from tests.conftest import (
    candidate_redundant,
    candidate_remove,
    decisions,
    firewalls,
    rules,
)

SCHEMA = toy_schema(9, 9)


def r(decision, **conjuncts):
    return Rule.build(SCHEMA, decision, **conjuncts)


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------


def brute_find(firewall):
    universe = list(enumerate_universe(firewall.schema))
    redundant = []
    for index in range(len(firewall)):
        rest = firewall.rules[:index] + firewall.rules[index + 1 :]
        if all(
            any(rule.matches(p) for rule in rest)
            and next(rule.decision for rule in rest if rule.matches(p)) == firewall(p)
            for p in universe
        ):
            redundant.append(index)
    return redundant


def backward_roots(firewall, store, guard=None):
    """``S_>=i`` for every ``i``, built by prepending from the last rule up."""
    roots = []
    node = None
    for rule in reversed(firewall.rules):
        sets = rule.predicate.sets
        if node is None:
            node = store.chain(tuple(store.intern_set(s) for s in sets), rule.decision)
        else:
            node = store.prepend(node, sets, rule.decision, guard=guard)
        roots.append(node)
    return roots[::-1]


@st.composite
def tiled_firewalls(draw, max_rules=4):
    """A comprehensive policy with no catch-all: random rules, then F1's
    domain tiled by 1-3 slabs with drawn decisions."""
    body = draw(st.lists(rules(SCHEMA), min_size=0, max_size=max_rules))
    cuts = sorted(draw(st.sets(st.integers(1, 9), max_size=2)))
    bounds = [0, *cuts, 10]
    slabs = [
        Rule.build(SCHEMA, draw(decisions()), F1=(low, high - 1))
        for low, high in zip(bounds, bounds[1:])
    ]
    return Firewall(SCHEMA, body + slabs)


any_firewall = st.one_of(firewalls(SCHEMA, max_rules=5, include_log=True), tiled_firewalls())


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(any_firewall)
def test_find_matches_candidate_oracle_and_brute_force(firewall):
    found = find_redundant_rules(firewall)
    assert found == candidate_redundant(firewall) == brute_find(firewall)


@settings(max_examples=60, deadline=None)
@given(any_firewall)
def test_remove_returns_the_greedy_oracles_rule_list(firewall):
    slim = remove_redundant_rules(firewall)
    assert slim.rules == candidate_remove(firewall).rules
    assert slim.name == firewall.name
    assert find_redundant_rules(slim) == []


@settings(max_examples=60, deadline=None)
@given(any_firewall)
def test_backward_roots_are_forward_roots(firewall):
    store = NodeStore()
    backward = backward_roots(firewall, store)
    assert backward[0] is store.construct(firewall).root
    for index in range(1, len(firewall)):
        suffix = Firewall(
            SCHEMA, firewall.rules[index:], require_comprehensive=False
        )
        assert backward[index] is store.construct(suffix).root


@settings(max_examples=40, deadline=None)
@given(any_firewall)
def test_shared_store_gives_the_same_answer(firewall):
    """The lint engine's store already holds the prefixes (memo hits)."""
    analysis = effective_rules(firewall)
    assert find_redundant_rules(firewall, store=analysis.store) == candidate_redundant(firewall)


# ----------------------------------------------------------------------
# Pinned cases
# ----------------------------------------------------------------------


class TestPinnedCases:
    def test_hole_left_by_removal_is_not_redundant(self):
        # Comprehensive without a catch-all.  Below r1, r2 decides r1's
        # overlap the same way, but F1 in 0-2 would fall through.
        firewall = Firewall(SCHEMA, [r(ACCEPT, F1="0-5"), r(ACCEPT, F1="3-9")])
        assert find_redundant_rules(firewall) == []
        assert remove_redundant_rules(firewall) == firewall

    def test_greedy_sweep_not_bottom_up(self):
        firewall = Firewall(
            SCHEMA,
            [
                r(ACCEPT, F1="0-5"),
                r(ACCEPT, F1="3-8"),
                r(ACCEPT, F1="0-8"),
                r(DISCARD),
            ],
        )
        # Each of the three accepts is individually redundant; the sweep
        # drops r1, then r2, and r3 becomes load-bearing (a bottom-up
        # pass would keep r1, r2 and r4 instead).
        assert find_redundant_rules(firewall) == [0, 1, 2]
        assert remove_redundant_rules(firewall).rules == (
            r(ACCEPT, F1="0-8"),
            r(DISCARD),
        )

    def test_non_comprehensive_policy_has_no_redundant_rule(self):
        firewall = Firewall(
            SCHEMA,
            [r(ACCEPT, F1="0-3"), r(ACCEPT, F1="0-5")],
            require_comprehensive=False,
        )
        assert find_redundant_rules(firewall) == []
        assert remove_redundant_rules(firewall) is firewall

    def test_single_rule_is_kept(self):
        firewall = Firewall(SCHEMA, [r(DISCARD)])
        assert find_redundant_rules(firewall) == []
        assert remove_redundant_rules(firewall) is firewall

    @pytest.mark.parametrize("seed", [3, 11])
    def test_synthetic_policy_matches_oracle(self, seed):
        firewall = SyntheticFirewallGenerator(seed=seed).generate(16)
        assert find_redundant_rules(firewall) == candidate_redundant(firewall)
        assert remove_redundant_rules(firewall).rules == candidate_remove(firewall).rules


# ----------------------------------------------------------------------
# Guard spend: cold and warm stores trip at the same tick
# ----------------------------------------------------------------------


class TestGuardSpend:
    FIREWALL = SyntheticFirewallGenerator(seed=5).generate(14)

    def test_prepend_spend_is_independent_of_store_warmth(self):
        cold, warm = NodeStore(), NodeStore()
        backward_roots(self.FIREWALL, warm)
        spent = []
        for store in (cold, warm):
            guard = GuardContext()
            backward_roots(self.FIREWALL, store, guard)
            spent.append(guard.nodes_expanded)
        assert spent[0] == spent[1] > len(self.FIREWALL)
        for limit in range(0, spent[0], max(1, spent[0] // 7)):
            for store in (NodeStore(), warm):
                guard = GuardContext(Budget(max_nodes=limit))
                with pytest.raises(BudgetExceededError):
                    backward_roots(self.FIREWALL, store, guard)
                assert guard.nodes_expanded == limit + 1

    def _stores(self):
        """Both hold the policy, as the lint engine's store does before
        FW003; the warm one has also run the analysis once already."""
        cold, warm = NodeStore(), NodeStore()
        for store in (cold, warm):
            store.construct(self.FIREWALL)
        find_redundant_rules(self.FIREWALL, store=warm)
        return cold, warm

    def test_budget_trips_at_the_same_tick(self):
        cold, warm = self._stores()
        spent = []
        for store in (cold, warm):
            guard = GuardContext()
            find_redundant_rules(self.FIREWALL, guard=guard, store=store)
            spent.append(guard.nodes_expanded)
        assert spent[0] == spent[1]
        for limit in range(0, spent[0], max(1, spent[0] // 9)):
            trips = []
            for store in self._stores():
                injector = FaultInjector()
                guard = GuardContext(Budget(max_nodes=limit), fault=injector)
                with pytest.raises(BudgetExceededError):
                    find_redundant_rules(self.FIREWALL, guard=guard, store=store)
                trips.append((guard.nodes_expanded, dict(injector.visits)))
            assert trips[0] == trips[1]

    def test_walk_fault_fires_at_the_same_rule_in_fresh_and_warm_stores(self):
        warm = NodeStore()
        find_redundant_rules(self.FIREWALL, store=warm)
        probe = FaultInjector()
        find_redundant_rules(self.FIREWALL, guard=GuardContext(fault=probe))
        walk_visits = probe.visits["redundancy.walk"]
        for after in (0, walk_visits // 2, walk_visits - 1):
            fired = []
            for store in (NodeStore(), warm):
                injector = FaultInjector()
                injector.arm("redundancy.walk", after=after)
                with pytest.raises(FaultInjectedError) as info:
                    find_redundant_rules(
                        self.FIREWALL, guard=GuardContext(fault=injector), store=store
                    )
                assert info.value.site == "redundancy.walk"
                fired.append(dict(injector.visits))
            assert fired[0] == fired[1]
