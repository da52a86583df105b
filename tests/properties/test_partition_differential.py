"""Differential oracle: partition construction vs the Fig. 7 fold.

:meth:`NodeStore.build <repro.fdd.store.NodeStore.build>` builds the
canonical reduced FDD top-down from the rules' overlap structure;
:meth:`NodeStore.construct <repro.fdd.store.NodeStore.construct>` appends
the rules one at a time, as the paper's construction algorithm does.
Both intern into the store, so on one store they must return the very
same root object, and the flat-array matchers compiled from the two
diagrams (each built in a fresh store) must be equal.

Inputs: hypothesis policies on toy schemas (comprehensive, and restricted
to a field-0 shard the way ``compare --jobs`` pieces are, which leaves
them non-comprehensive), Fig. 13 pairs, Fig. 12 fleet members, and
policies of uniform random intervals (the shape that is hard for both
routes).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classify import compile_fdd
from repro.exceptions import BudgetExceededError
from repro.fields import toy_schema
from repro.guard import Budget, GuardContext
from repro.intervals import IntervalSet
from repro.parallel.engine import restrict_to_shard
from repro.policy import Firewall
from repro.fdd.store import NodeStore
from repro.synth import (
    SyntheticFirewallGenerator,
    generate_firewall_pair,
    perturb,
    uniform_interval_firewall,
)

from tests.conftest import firewalls, interval_sets

SCHEMAS = (toy_schema(19, 9), toy_schema(9, 9, 9), toy_schema(5, 3, 9, 3))


def assert_routes_agree(firewall: Firewall, *, comprehensive: bool = True) -> None:
    store = NodeStore()
    built = store.build(firewall).root
    assert built is store.construct(firewall).root
    # The other order on a fresh store: the fold first, then partitions.
    store = NodeStore()
    folded = store.construct(firewall).root
    assert store.build(firewall).root is folded
    if comprehensive:  # the matcher needs every value decided
        assert compile_fdd(NodeStore().build(firewall)) == compile_fdd(
            NodeStore().construct(firewall)
        )


@st.composite
def toy_policies(draw):
    schema = draw(st.sampled_from(SCHEMAS))
    return draw(firewalls(schema, max_rules=7, include_log=True))


@settings(max_examples=150, deadline=None)
@given(toy_policies())
def test_build_is_the_fold_on_toy_policies(firewall):
    assert_routes_agree(firewall)


@settings(max_examples=100, deadline=None)
@given(toy_policies(), st.data())
def test_build_is_the_fold_on_shard_restrictions(firewall, data):
    shard = data.draw(interval_sets(firewall.schema[0].max_value))
    if not any(rule.predicate.sets[0] & shard for rule in firewall):
        return
    piece = restrict_to_shard(firewall, shard)
    assert_routes_agree(piece, comprehensive=False)
    # Values of field 0 outside the shard get no edge, as in the fold.
    root = NodeStore().build(piece).root
    covered = IntervalSet.union_all(edge.label for edge in root.edges)
    assert covered.issubset(shard)


@pytest.mark.parametrize("seed", [1, 5, 13])
def test_build_is_the_fold_on_fig13_pairs(seed):
    for firewall in generate_firewall_pair(120, seed=seed):
        assert_routes_agree(firewall)


def test_build_is_the_fold_on_fleet_members():
    rng = random.Random(11)
    baseline = SyntheticFirewallGenerator(seed=rng.randrange(1 << 31)).generate(32)
    assert_routes_agree(baseline)
    for _ in range(4):
        member, _record = perturb(
            baseline, rng.uniform(0.05, 0.20), seed=rng.randrange(1 << 31)
        )
        assert_routes_agree(member)


@pytest.mark.parametrize("rules", [10, 25])
def test_build_is_the_fold_on_uniform_intervals(rules):
    assert_routes_agree(uniform_interval_firewall(rules, seed=rules))


def test_a_trip_leaves_the_store_consistent():
    """Whatever visit a build trips on, the same store then builds the
    canonical root the fold builds."""
    firewall = uniform_interval_firewall(6, seed=3)
    expected = NodeStore().construct(firewall)
    full = GuardContext(Budget.unlimited())
    NodeStore().build(firewall, guard=full)
    assert full.nodes_expanded > 3
    for limit in range(0, full.nodes_expanded, max(1, full.nodes_expanded // 25)):
        store = NodeStore()
        with pytest.raises(BudgetExceededError):
            store.build(firewall, guard=GuardContext(Budget(max_nodes=limit)))
        assert compile_fdd(store.build(firewall)) == compile_fdd(expected)
        assert store.build(firewall).root is store.construct(firewall).root
