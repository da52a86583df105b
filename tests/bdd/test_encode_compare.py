"""Tests for the firewall -> BDD encoding and the Section 7.5 baseline."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import FirewallEncoder, compare_with_bdd, cube_to_text
from repro.fdd.fast import compare_fast
from repro.fields import enumerate_universe, toy_schema
from repro.intervals import IntervalSet
from repro.policy import Rule
from repro.synth import team_a_firewall, team_b_firewall

from tests.bdd.test_bdd import _eval
from tests.conftest import firewalls

SCHEMA = toy_schema(7, 7)  # power-of-two domains: bits align exactly
SCHEMA_ODD = toy_schema(9, 5)  # non-power-of-two: domain constraint matters


def r(schema, decision, **conjuncts):
    return Rule.build(schema, decision, **conjuncts)


class TestComparators:
    @given(
        st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=7)
    )
    @settings(max_examples=30, deadline=None)
    def test_geq_leq(self, lo, hi):
        encoder = FirewallEncoder(SCHEMA)
        geq = encoder.encode_geq(0, lo)
        leq = encoder.encode_leq(0, hi)
        both = encoder.manager.and_(geq, leq)
        for value in range(8):
            assignment = {
                bit: bool((value >> (encoder.widths[0] - 1 - bit)) & 1)
                for bit in range(encoder.widths[0])
            }
            # Evaluate by walking the diagram.
            full = {i: assignment.get(i, False) for i in range(encoder.manager.num_vars)}
            assert _eval(encoder.manager, geq, full) == (value >= lo)
            assert _eval(encoder.manager, leq, full) == (value <= hi)
            assert _eval(encoder.manager, both, full) == (lo <= value <= hi)

    def test_interval_set_encoding_counts(self):
        encoder = FirewallEncoder(SCHEMA)
        values = IntervalSet.of((1, 2), 5)
        node = encoder.encode_interval_set(0, values)
        # Fix field 0, field 1 free: 3 * 8 solutions.
        assert encoder.manager.count_solutions(node) == 3 * 8


class TestAcceptSet:
    @given(firewalls(SCHEMA, max_rules=4))
    @settings(max_examples=25, deadline=None)
    def test_accept_set_matches_evaluation(self, firewall):
        encoder = FirewallEncoder(SCHEMA)
        accept = encoder.encode_accept_set(firewall)
        expected = sum(
            1 for p in enumerate_universe(SCHEMA) if firewall(p).permits
        )
        assert encoder.manager.count_solutions(accept) == expected

    @given(firewalls(SCHEMA_ODD, max_rules=3))
    @settings(max_examples=20, deadline=None)
    def test_domain_constraint_on_odd_domains(self, firewall):
        encoder = FirewallEncoder(SCHEMA_ODD)
        accept = encoder.manager.and_(
            encoder.encode_accept_set(firewall), encoder.domain_constraint()
        )
        expected = sum(
            1 for p in enumerate_universe(SCHEMA_ODD) if firewall(p).permits
        )
        assert encoder.manager.count_solutions(accept) == expected


class TestCompareWithBdd:
    @given(firewalls(SCHEMA_ODD, max_rules=3), firewalls(SCHEMA_ODD, max_rules=3))
    @settings(max_examples=20, deadline=None)
    def test_agrees_with_fdd_engine(self, fw_a, fw_b):
        baseline = compare_with_bdd(fw_a, fw_b)
        # The BDD baseline only sees permit/deny, so compare against the
        # permit-level diff, not the full decision diff.
        expected = sum(
            1
            for p in enumerate_universe(SCHEMA_ODD)
            if fw_a(p).permits != fw_b(p).permits
        )
        assert baseline.disputed_packets == expected
        assert baseline.equivalent() == (expected == 0)

    def test_paper_example_agrees_with_fdd(self):
        fw_a, fw_b = team_a_firewall(), team_b_firewall()
        baseline = compare_with_bdd(fw_a, fw_b)
        fast = compare_fast(fw_a, fw_b)
        assert baseline.disputed_packets == fast.disputed_packet_count()

    def test_cube_explosion_on_paper_example(self):
        """The Section 7.5 point: far more cubes than FDD regions."""
        baseline = compare_with_bdd(team_a_firewall(), team_b_firewall())
        from repro import aggregate_discrepancies, compare_firewalls

        regions = aggregate_discrepancies(
            compare_firewalls(team_a_firewall(), team_b_firewall())
        )
        assert baseline.cube_count > 10 * len(regions)

    def test_cube_rendering_is_bit_level(self):
        baseline = compare_with_bdd(team_a_firewall(), team_b_firewall())
        cube = next(iter(baseline.manager.cubes(baseline.difference, limit=1)))
        text = cube_to_text(cube, baseline.encoder)
        assert "=" in text
        mask = text.split("=", 1)[1]
        assert set(mask) <= set("01*, abcdefghijklmnopqrstuvwxyz_=")
