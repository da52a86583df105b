"""Cross-validation of the scalable engine against the reference pipeline."""

from hypothesis import given, settings

from repro.fdd import compare_firewalls, construct_fdd
from repro.fdd.fast import build_difference, compare_fast, construct_fdd_fast
from repro.fdd.store import NodeStore
from repro.fields import enumerate_universe, toy_schema
from repro.intervals import IntervalSet
from repro.policy import ACCEPT, DISCARD, Firewall, Rule
from repro.synth import SyntheticFirewallGenerator, team_a_firewall, team_b_firewall

from tests.conftest import brute_force_diff, covered_packets, firewalls

SCHEMA = toy_schema(9, 9)


def r(decision, **conjuncts):
    return Rule.build(SCHEMA, decision, **conjuncts)


class TestHashConsStore:
    def test_terminals_interned(self):
        store = NodeStore()
        assert store.terminal(ACCEPT) is store.terminal(ACCEPT)
        assert store.terminal(ACCEPT) is not store.terminal(DISCARD)

    def test_internals_interned(self):
        store = NodeStore()
        t = store.terminal(ACCEPT)
        a = store.internal(0, [(IntervalSet.span(0, 9), t)])
        b = store.internal(0, [(IntervalSet.span(0, 9), t)])
        assert a is b

    def test_parallel_edges_merged(self):
        store = NodeStore()
        t = store.terminal(ACCEPT)
        node = store.internal(
            0, [(IntervalSet.span(0, 4), t), (IntervalSet.span(5, 9), t)]
        )
        assert len(node.edges) == 1
        assert node.edges[0].label == IntervalSet.span(0, 9)


class TestConstructFast:
    @given(firewalls(SCHEMA, max_rules=6, include_log=True))
    @settings(max_examples=50, deadline=None)
    def test_matches_firewall_semantics(self, firewall):
        fdd = construct_fdd_fast(firewall)
        fdd.validate()
        assert fdd.is_ordered()
        for packet in enumerate_universe(SCHEMA):
            assert fdd.evaluate(packet) == firewall(packet)

    @given(firewalls(SCHEMA, max_rules=5))
    @settings(max_examples=30, deadline=None)
    def test_matches_reference_construction(self, firewall):
        fast = construct_fdd_fast(firewall)
        reference = construct_fdd(firewall)
        for packet in enumerate_universe(SCHEMA):
            assert fast.evaluate(packet) == reference.evaluate(packet)

    def test_sharing_actually_happens(self):
        generator = SyntheticFirewallGenerator(seed=11)
        firewall = generator.generate(60)
        fast = construct_fdd_fast(firewall)
        stats = fast.stats()
        # A 60-rule five-field policy with per-path replication would need
        # orders of magnitude more nodes than paths-with-sharing.
        assert stats.nodes < stats.paths


class TestCompareFast:
    @given(firewalls(SCHEMA, max_rules=4), firewalls(SCHEMA, max_rules=4))
    @settings(max_examples=40, deadline=None)
    def test_difference_fdd_exact(self, fw_a, fw_b):
        diff = compare_fast(fw_a, fw_b)
        expected = brute_force_diff(fw_a, fw_b)
        assert diff.disputed_packet_count() == len(expected)
        assert covered_packets(diff.discrepancies()) == expected
        for packet in enumerate_universe(SCHEMA):
            dec_a, dec_b = diff.evaluate(packet)
            assert dec_a == fw_a(packet) and dec_b == fw_b(packet)

    @given(firewalls(SCHEMA, max_rules=4), firewalls(SCHEMA, max_rules=4))
    @settings(max_examples=30, deadline=None)
    def test_agrees_with_reference_pipeline(self, fw_a, fw_b):
        reference = compare_firewalls(fw_a, fw_b)
        fast = compare_fast(fw_a, fw_b)
        assert sum(d.size() for d in reference) == fast.disputed_packet_count()

    def test_paper_example(self):
        diff = compare_fast(team_a_firewall(), team_b_firewall())
        reference = compare_firewalls(team_a_firewall(), team_b_firewall())
        assert diff.disputed_packet_count() == sum(d.size() for d in reference)
        assert not diff.disputed_packet_count() == 0

    def test_same_outcome_cells_merge(self):
        # Three separate discard rules with one shared outcome collapse to
        # a single difference region — sharing at work.
        fw_a = Firewall(SCHEMA, [r(ACCEPT)])
        fw_b = Firewall(
            SCHEMA,
            [r(DISCARD, F1="0"), r(DISCARD, F1="2"), r(DISCARD, F1="4"), r(ACCEPT)],
        )
        diff = compare_fast(fw_a, fw_b)
        cells = diff.discrepancies()
        assert len(cells) == 1
        assert cells[0].sets[0] == IntervalSet.of(0, 2, 4)

    def test_discrepancy_limit(self):
        from repro.policy import ACCEPT_LOG

        fw_a = Firewall(SCHEMA, [r(ACCEPT)])
        fw_b = Firewall(
            SCHEMA,
            [r(DISCARD, F1="0-2"), r(ACCEPT_LOG, F1="5-6"), r(ACCEPT)],
        )
        diff = compare_fast(fw_a, fw_b)
        assert len(diff.discrepancies()) == 2
        assert len(diff.discrepancies(limit=1)) == 1

    def test_build_difference_on_prebuilt(self):
        fw_a = Firewall(SCHEMA, [r(ACCEPT)])
        fw_b = Firewall(SCHEMA, [r(DISCARD, F2="1-3"), r(ACCEPT)])
        diff = build_difference(construct_fdd_fast(fw_a), construct_fdd_fast(fw_b))
        assert diff.disputed_packet_count() == 30

    def test_synthetic_cross_validation(self):
        from repro.synth import generate_firewall_pair

        fw_a, fw_b = generate_firewall_pair(30, seed=4)
        reference = compare_firewalls(fw_a, fw_b)
        fast = compare_fast(fw_a, fw_b)
        assert sum(d.size() for d in reference) == fast.disputed_packet_count()

    def test_path_and_node_counts(self):
        fw_a = Firewall(SCHEMA, [r(ACCEPT)])
        fw_b = Firewall(SCHEMA, [r(DISCARD, F1="2-4"), r(ACCEPT)])
        diff = compare_fast(fw_a, fw_b)
        assert diff.path_count() >= 2
        assert diff.node_count() >= 1
