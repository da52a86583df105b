"""Tests for the diverse-design workflow, including N > 2 teams (Sec. 7.3)."""

import pytest

from repro.analysis import (
    DiverseDesignSession,
    cross_compare,
    direct_compare,
    equivalent,
)
from repro.exceptions import SchemaError
from repro.fields import enumerate_universe, toy_schema
from repro.policy import ACCEPT, DISCARD, Firewall, Rule


SCHEMA = toy_schema(9, 9)


def r(decision, **conjuncts):
    return Rule.build(SCHEMA, decision, **conjuncts)


def three_teams():
    return [
        Firewall(SCHEMA, [r(DISCARD, F1="0-2"), r(ACCEPT)], name="t1"),
        Firewall(SCHEMA, [r(DISCARD, F1="0-4"), r(ACCEPT)], name="t2"),
        Firewall(SCHEMA, [r(ACCEPT)], name="t3"),
    ]


class TestCrossCompare:
    def test_all_pairs_present(self):
        results = cross_compare(three_teams())
        assert set(results) == {(0, 1), (0, 2), (1, 2)}

    def test_pairwise_contents(self):
        teams = three_teams()
        results = cross_compare(teams)
        # t1 vs t2 differ exactly on F1 in [3,4].
        packets = set()
        for disc in results[(0, 1)]:
            for v1 in disc.sets[0]:
                packets.add(v1)
        assert packets == {3, 4}


class TestCompareMany:
    def test_direct_comparison_exact(self):
        teams = three_teams()
        regions = direct_compare(teams)
        # Rebuild the disagreement map by brute force.
        expected = {}
        for packet in enumerate_universe(SCHEMA):
            decisions = tuple(fw(packet) for fw in teams)
            if len(set(decisions)) > 1:
                expected[packet] = decisions
        covered = {}
        for region in regions:
            for v1 in region.sets[0]:
                for v2 in region.sets[1]:
                    covered[(v1, v2)] = region.decisions
        assert covered == expected

    def test_describe(self):
        regions = direct_compare(three_teams())
        text = regions[0].describe(SCHEMA)
        assert "team 1" in text and "team 3" in text

    def test_needs_two(self):
        with pytest.raises(SchemaError):
            direct_compare(three_teams()[:1])

    def test_schema_mismatch(self):
        other = toy_schema(9, 9, 9)
        with pytest.raises(SchemaError):
            direct_compare([three_teams()[0], Firewall(other, [Rule.build(other, ACCEPT)])])


class TestSession:
    def test_unanimous_detection(self):
        same = Firewall(SCHEMA, [r(ACCEPT)])
        other = Firewall(SCHEMA, [r(ACCEPT, F1="0-9"), r(ACCEPT)])
        session = DiverseDesignSession([same, other])
        assert session.unanimous()

    def test_resolve_fdd_method(self):
        teams = three_teams()
        session = DiverseDesignSession(teams[:2])
        final = session.resolve(lambda d: DISCARD)
        # All disputed packets (F1 in [3,4]) resolved to discard.
        assert final((3, 0)) == DISCARD and final((4, 9)) == DISCARD
        assert final((7, 0)) == ACCEPT

    def test_resolve_patch_method(self):
        teams = three_teams()
        session = DiverseDesignSession(teams[:2])
        final_fdd = session.resolve(lambda d: d.decision_b)
        final_patch = session.resolve(lambda d: d.decision_b, method="patch")
        assert equivalent(final_fdd, final_patch)

    def test_resolve_unknown_method(self):
        session = DiverseDesignSession(three_teams()[:2])
        from repro.exceptions import ResolutionError

        with pytest.raises(ResolutionError):
            session.resolve(lambda d: DISCARD, method="quantum")

    def test_schema_mismatch(self):
        other = toy_schema(9, 9, 9)
        with pytest.raises(SchemaError):
            DiverseDesignSession(
                [three_teams()[0], Firewall(other, [Rule.build(other, ACCEPT)])]
            )

    def test_needs_two_versions(self):
        with pytest.raises(SchemaError):
            DiverseDesignSession(three_teams()[:1])

    def test_quorum_decision(self):
        session = DiverseDesignSession(three_teams())
        regions = session.multi_discrepancies()
        for region in regions:
            winner = session.quorum_decision(region)
            counts = {d: region.decisions.count(d) for d in region.decisions}
            assert counts[winner] == max(counts.values())
