"""Tests for discrepancy resolution (Section 6, Methods 1 and 2)."""

import pytest
from hypothesis import given, settings

from repro.analysis import (
    ResolvedDiscrepancy,
    aggregate_resolutions,
    equivalent,
    prefer_team,
    resolve_by_corrected_fdd,
    resolve_by_patching,
    resolve_with,
)
from repro.exceptions import ResolutionError
from repro.fdd import compare_firewalls
from repro.fields import enumerate_universe, toy_schema
from repro.policy import ACCEPT, DISCARD, Firewall, Rule

from tests.conftest import firewalls

SCHEMA = toy_schema(9, 9)


def r(decision, **conjuncts):
    return Rule.build(SCHEMA, decision, **conjuncts)


@pytest.fixture
def pair():
    fw_a = Firewall(SCHEMA, [r(ACCEPT, F1="0-5"), r(DISCARD)], name="a")
    fw_b = Firewall(SCHEMA, [r(ACCEPT, F1="3-8"), r(DISCARD)], name="b")
    return fw_a, fw_b


class TestResolveHelpers:
    def test_prefer_team(self, pair):
        fw_a, fw_b = pair
        discs = compare_firewalls(fw_a, fw_b)
        toward_a = prefer_team(discs, "a")
        assert all(
            res.decision == res.discrepancy.decision_a for res in toward_a
        )
        with pytest.raises(ResolutionError):
            prefer_team(discs, "c")

    def test_resolve_with_chooser(self, pair):
        fw_a, fw_b = pair
        discs = compare_firewalls(fw_a, fw_b)
        resolved = resolve_with(discs, lambda d: DISCARD)
        assert all(res.decision == DISCARD for res in resolved)

    def test_correcting_rule(self, pair):
        fw_a, fw_b = pair
        discs = compare_firewalls(fw_a, fw_b)
        rule = ResolvedDiscrepancy(discs[0], DISCARD).correcting_rule()
        assert rule.decision == DISCARD
        assert rule.predicate == discs[0].predicate

    def test_aggregate_resolutions_merges_same_outcome(self, pair):
        fw_a, fw_b = pair
        discs = compare_firewalls(fw_a, fw_b)
        resolved = resolve_with(discs, lambda d: DISCARD)
        merged = aggregate_resolutions(resolved)
        assert len(merged) <= len(resolved)
        assert all(res.decision == DISCARD for res in merged)

    def test_aggregate_resolutions_keeps_conflicting_fixes_apart(self):
        from repro.analysis import Discrepancy
        from repro.intervals import IntervalSet

        cells = [
            Discrepancy(SCHEMA, (IntervalSet.of((0, 4)), IntervalSet.of((0, 9))), ACCEPT, DISCARD),
            Discrepancy(SCHEMA, (IntervalSet.of((5, 9)), IntervalSet.of((0, 9))), ACCEPT, DISCARD),
        ]
        resolved = [
            ResolvedDiscrepancy(cells[0], ACCEPT),
            ResolvedDiscrepancy(cells[1], DISCARD),
        ]
        merged = aggregate_resolutions(resolved)
        assert len(merged) == 2


class TestMethod1:
    def test_prefer_a_reproduces_a(self, pair):
        fw_a, fw_b = pair
        discs = compare_firewalls(fw_a, fw_b)
        final = resolve_by_corrected_fdd(fw_a, fw_b, prefer_team(discs, "a"))
        assert equivalent(final, fw_a)

    def test_prefer_b_reproduces_b(self, pair):
        fw_a, fw_b = pair
        discs = compare_firewalls(fw_a, fw_b)
        final = resolve_by_corrected_fdd(fw_a, fw_b, prefer_team(discs, "b"))
        assert equivalent(final, fw_b)

    def test_unresolved_discrepancy_rejected(self, pair):
        fw_a, fw_b = pair
        discs = compare_firewalls(fw_a, fw_b)
        with pytest.raises(ResolutionError, match="unresolved"):
            resolve_by_corrected_fdd(fw_a, fw_b, prefer_team(discs[:1], "a"))

    def test_mixed_resolution(self, pair):
        fw_a, fw_b = pair
        discs = compare_firewalls(fw_a, fw_b)
        resolutions = resolve_with(
            discs, lambda d: ACCEPT if d.sets[0].min() < 3 else DISCARD
        )
        final = resolve_by_corrected_fdd(fw_a, fw_b, resolutions)
        for res in resolutions:
            packet = tuple(v.min() for v in res.discrepancy.sets)
            assert final(packet) == res.decision


class TestMethod2:
    def test_prefer_b_patching_a(self, pair):
        fw_a, fw_b = pair
        discs = compare_firewalls(fw_a, fw_b)
        final = resolve_by_patching(fw_a, prefer_team(discs, "b"), base_is="a")
        assert equivalent(final, fw_b)

    def test_prefer_a_patching_a_is_noop(self, pair):
        fw_a, fw_b = pair
        discs = compare_firewalls(fw_a, fw_b)
        final = resolve_by_patching(fw_a, prefer_team(discs, "a"), base_is="a")
        assert equivalent(final, fw_a)

    def test_base_is_validation(self, pair):
        fw_a, _ = pair
        with pytest.raises(ResolutionError):
            resolve_by_patching(fw_a, [], base_is="x")


class TestMethodsAgree:
    @given(firewalls(SCHEMA, max_rules=3), firewalls(SCHEMA, max_rules=3))
    @settings(max_examples=15, deadline=None)
    def test_method1_equals_method2(self, fw_a, fw_b):
        """Both Section 6 methods must produce the same final semantics."""
        discs = compare_firewalls(fw_a, fw_b)
        resolutions = resolve_with(
            discs, lambda d: d.decision_b if d.sets[0].min() % 2 else d.decision_a
        )
        method1 = resolve_by_corrected_fdd(fw_a, fw_b, resolutions)
        method2 = resolve_by_patching(fw_a, resolutions, base_is="a")
        assert equivalent(method1, method2)
        # And both honour every agreed decision.
        for res in resolutions:
            packet = tuple(v.min() for v in res.discrepancy.sets)
            assert method1(packet) == res.decision
        # Outside the disputed regions both agree with both inputs.
        for packet in list(enumerate_universe(SCHEMA))[::9]:
            if fw_a(packet) == fw_b(packet):
                assert method1(packet) == fw_a(packet)
