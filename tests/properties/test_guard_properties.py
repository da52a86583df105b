"""Properties of the guarded execution layer.

Two invariants, checked over random firewalls:

1. **Transparency** — running any pipeline stage under a guard whose
   budget is never exhausted produces *byte-identical* results to the
   unguarded run.  The guard may only observe, never steer.
2. **Clean unwinding** — a fault injected at any guarded site leaves the
   inputs untouched: their fingerprints match the pre-fault values and a
   subsequent unguarded run still produces the baseline output.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import BudgetExceededError, FaultInjectedError
from repro.fdd import (
    compare_firewalls,
    construct_fdd,
    generate_firewall,
    make_semi_isomorphic,
)
from repro.fdd.canonical import semantic_fingerprint
from repro.fdd.fast import compare_fast
from repro.fields import toy_schema
from repro.guard import Budget, FaultInjector, GuardContext
from repro.policy import dumps

from tests.conftest import firewalls

SCHEMA = toy_schema(9, 9)

GENEROUS = Budget(max_nodes=10_000_000, max_splits=10_000_000, deadline_s=600.0)

FAULT_SITES = [
    "construction.rule",
    "shaping.start",
    "shaping.pair",
    "comparison.visit",
]


class TestGuardTransparency:
    @given(firewalls(SCHEMA, max_rules=4))
    @settings(max_examples=25, deadline=None)
    def test_guarded_construction_is_byte_identical(self, fw):
        plain = construct_fdd(fw)
        guarded = construct_fdd(fw, guard=GuardContext(GENEROUS))
        assert semantic_fingerprint(plain) == semantic_fingerprint(guarded)
        # Stronger than semantic equality: the regenerated rule text of
        # both diagrams matches byte for byte.
        assert dumps(generate_firewall(plain)) == dumps(generate_firewall(guarded))

    @given(firewalls(SCHEMA, max_rules=3), firewalls(SCHEMA, max_rules=3))
    @settings(max_examples=25, deadline=None)
    def test_guarded_comparison_is_byte_identical(self, fw_a, fw_b):
        plain = compare_firewalls(fw_a, fw_b)
        guarded = compare_firewalls(fw_a, fw_b, guard=GuardContext(GENEROUS))
        assert plain == guarded

    @given(firewalls(SCHEMA, max_rules=3), firewalls(SCHEMA, max_rules=3))
    @settings(max_examples=25, deadline=None)
    def test_guarded_shaping_is_byte_identical(self, fw_a, fw_b):
        plain = make_semi_isomorphic(construct_fdd(fw_a), construct_fdd(fw_b))
        guarded = make_semi_isomorphic(
            construct_fdd(fw_a),
            construct_fdd(fw_b),
            guard=GuardContext(GENEROUS),
        )
        for p, g in zip(plain, guarded):
            assert semantic_fingerprint(p) == semantic_fingerprint(g)

    @given(firewalls(SCHEMA, max_rules=3), firewalls(SCHEMA, max_rules=3))
    @settings(max_examples=25, deadline=None)
    def test_guarded_fast_engine_is_byte_identical(self, fw_a, fw_b):
        plain = compare_fast(fw_a, fw_b).discrepancies()
        guarded = compare_fast(
            fw_a, fw_b, guard=GuardContext(GENEROUS)
        ).discrepancies()
        assert plain == guarded


class TestCleanUnwinding:
    @given(
        firewalls(SCHEMA, max_rules=3),
        firewalls(SCHEMA, max_rules=3),
        st.sampled_from(FAULT_SITES),
        st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_injected_fault_leaves_inputs_intact(self, fw_a, fw_b, site, after):
        before_a = semantic_fingerprint(fw_a)
        before_b = semantic_fingerprint(fw_b)
        baseline = compare_firewalls(fw_a, fw_b)

        injector = FaultInjector()
        injector.arm(site, after=after)
        try:
            compare_firewalls(fw_a, fw_b, guard=GuardContext(fault=injector))
        except FaultInjectedError:
            pass  # small runs may finish before the countdown expires

        assert semantic_fingerprint(fw_a) == before_a
        assert semantic_fingerprint(fw_b) == before_b
        assert compare_firewalls(fw_a, fw_b) == baseline

    @given(
        firewalls(SCHEMA, max_rules=3),
        firewalls(SCHEMA, max_rules=3),
        st.integers(min_value=0, max_value=30),
    )
    @settings(max_examples=40, deadline=None)
    def test_budget_trip_leaves_inputs_intact(self, fw_a, fw_b, max_nodes):
        """Whatever node budget the run trips on, it unwinds cleanly."""
        before_a = semantic_fingerprint(fw_a)
        baseline = compare_firewalls(fw_a, fw_b)
        guard = GuardContext(Budget(max_nodes=max_nodes))
        try:
            result = compare_firewalls(fw_a, fw_b, guard=guard)
        except BudgetExceededError as exc:
            assert exc.resource == "fdd-nodes"
            assert exc.spent == max_nodes + 1
            assert guard.exhausted == "fdd-nodes"
        else:
            # Enough budget: the guarded result must equal the baseline.
            assert result == baseline
        assert semantic_fingerprint(fw_a) == before_a
        assert compare_firewalls(fw_a, fw_b) == baseline
