"""Tests for canonical FDDs and semantic fingerprints."""

from hypothesis import given, settings

from repro.analysis import equivalent
from repro.fdd import canonical_fdd, semantic_fingerprint
from repro.fields import toy_schema
from repro.policy import ACCEPT, DISCARD, Firewall, Rule

from tests.conftest import firewalls

SCHEMA = toy_schema(9, 9)


def r(decision, **conjuncts):
    return Rule.build(SCHEMA, decision, **conjuncts)


class TestFingerprint:
    def test_equivalent_policies_same_fingerprint(self):
        one = Firewall(SCHEMA, [r(ACCEPT, F1="0-3"), r(DISCARD)])
        two = Firewall(SCHEMA, [r(DISCARD, F1="4-9"), r(ACCEPT, F1="0-3"), r(DISCARD)])
        assert equivalent(one, two)
        assert semantic_fingerprint(one) == semantic_fingerprint(two)

    def test_different_policies_different_fingerprint(self):
        one = Firewall(SCHEMA, [r(ACCEPT, F1="0-3"), r(DISCARD)])
        two = Firewall(SCHEMA, [r(ACCEPT, F1="0-4"), r(DISCARD)])
        assert semantic_fingerprint(one) != semantic_fingerprint(two)

    def test_stable_across_calls(self):
        fw = Firewall(SCHEMA, [r(ACCEPT, F1="0-3"), r(DISCARD)])
        assert semantic_fingerprint(fw) == semantic_fingerprint(fw)

    def test_schema_included(self):
        other_schema = toy_schema(9, 8)
        fw1 = Firewall(SCHEMA, [r(ACCEPT)])
        fw2 = Firewall(other_schema, [Rule.build(other_schema, ACCEPT)])
        assert semantic_fingerprint(fw1) != semantic_fingerprint(fw2)

    def test_accepts_fdd_input(self):
        from repro.fdd import construct_fdd

        fw = Firewall(SCHEMA, [r(ACCEPT, F1="0-3"), r(DISCARD)])
        assert semantic_fingerprint(construct_fdd(fw)) == semantic_fingerprint(fw)

    def test_nonordered_fdd_normalized(self):
        from repro.fdd import FDD, Edge, InternalNode, TerminalNode
        from repro.intervals import IntervalSet

        # F2 tested above F1: a valid FDD in the wrong field order.
        inner = InternalNode(0)
        inner.edges.append(Edge(IntervalSet.span(0, 3), TerminalNode(ACCEPT)))
        inner.edges.append(Edge(IntervalSet.span(4, 9), TerminalNode(DISCARD)))
        root = InternalNode(1)
        root.edges.append(Edge(IntervalSet.span(0, 9), inner))
        designed = FDD(SCHEMA, root)
        designed.validate()
        assert not designed.is_ordered()
        reference = Firewall(SCHEMA, [r(ACCEPT, F1="0-3"), r(DISCARD)])
        assert semantic_fingerprint(designed) == semantic_fingerprint(reference)

    @given(firewalls(SCHEMA, max_rules=4), firewalls(SCHEMA, max_rules=4))
    @settings(max_examples=30, deadline=None)
    def test_fingerprint_decides_equivalence(self, fw_a, fw_b):
        """Equal fingerprints <=> equivalent policies (on these inputs the
        canonical form is exact, not just collision-resistant)."""
        same = semantic_fingerprint(fw_a) == semantic_fingerprint(fw_b)
        assert same == equivalent(fw_a, fw_b)


class TestCanonicalFdd:
    def test_canonical_is_valid_and_ordered(self):
        fw = Firewall(SCHEMA, [r(ACCEPT, F1="0-3", F2="2-5"), r(DISCARD)])
        canonical = canonical_fdd(fw)
        canonical.validate()
        assert canonical.is_ordered()

    @given(firewalls(SCHEMA, max_rules=4))
    @settings(max_examples=20, deadline=None)
    def test_canonical_preserves_semantics(self, firewall):
        canonical = canonical_fdd(firewall)
        from repro.fields import enumerate_universe

        for packet in list(enumerate_universe(SCHEMA))[::9]:
            assert canonical.evaluate(packet) == firewall(packet)
