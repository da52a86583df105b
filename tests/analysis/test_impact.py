"""Tests for change impact analysis (Sections 1.3 / 8.1)."""

import pytest
from hypothesis import given, settings

from repro.analysis import ImpactKind, analyze_change, impact
from repro.fdd.store import NodeStore
from repro.fields import enumerate_universe, toy_schema
from repro.guard import Budget, GuardContext
from repro.policy import ACCEPT, ACCEPT_LOG, DISCARD, Firewall, Rule
from repro.synth import flip_decision, uniform_interval_firewall

from tests.conftest import firewalls

SCHEMA = toy_schema(9, 9)


def r(decision, **conjuncts):
    return Rule.build(SCHEMA, decision, **conjuncts)


BASE = Firewall(SCHEMA, [r(DISCARD, F1="0-4"), r(ACCEPT)], name="v1")


class TestClassification:
    def test_newly_allowed(self):
        after = BASE.remove(0).prepend(r(DISCARD, F1="0-2")).with_name("v2")
        report = analyze_change(BASE, after)
        kinds = report.by_kind()
        assert len(kinds[ImpactKind.NEWLY_ALLOWED]) == 1
        assert not kinds[ImpactKind.NEWLY_BLOCKED]
        region = kinds[ImpactKind.NEWLY_ALLOWED][0]
        assert set(region.sets[0]) == {3, 4}

    def test_newly_blocked(self):
        after = BASE.prepend(r(DISCARD, F1="7-8"))
        report = analyze_change(BASE, after)
        kinds = report.by_kind()
        assert len(kinds[ImpactKind.NEWLY_BLOCKED]) == 1
        assert report.affected_packets() == 20

    def test_handling_changed(self):
        after = BASE.replace(1, r(ACCEPT_LOG))
        report = analyze_change(BASE, after)
        kinds = report.by_kind()
        assert kinds[ImpactKind.HANDLING_CHANGED]
        assert not kinds[ImpactKind.NEWLY_ALLOWED]
        assert not kinds[ImpactKind.NEWLY_BLOCKED]

    def test_noop_change(self):
        # Inserting a rule that repeats existing semantics has no impact.
        after = BASE.insert(0, r(DISCARD, F1="1-2"))
        report = analyze_change(BASE, after)
        assert report.is_noop
        assert "no semantic effect" in report.render()


class TestRendering:
    def test_render_mentions_kinds_and_names(self):
        after = BASE.prepend(r(DISCARD, F1="7-8")).with_name("v2")
        text = analyze_change(BASE, after).render()
        assert "'v1' -> 'v2'" in text
        assert ImpactKind.NEWLY_BLOCKED in text
        assert "20 packet(s)" in text

    def test_table(self):
        after = BASE.prepend(r(DISCARD, F1="7-8")).with_name("v2")
        table = analyze_change(BASE, after).table()
        assert "v1" in table and "v2" in table


class TestProperties:
    @given(firewalls(SCHEMA, max_rules=4))
    @settings(max_examples=20, deadline=None)
    def test_impact_matches_brute_force(self, firewall):
        # Flip the decision of the first rule: the impact must be exactly
        # the packets whose decision changed.
        changed = firewall.replace(
            0, firewall[0].with_decision(flip_decision(firewall[0].decision))
        )
        report = analyze_change(firewall, changed)
        expected = sum(
            1 for p in enumerate_universe(SCHEMA) if firewall(p) != changed(p)
        )
        assert report.affected_packets() == expected
        assert report.is_noop == (expected == 0)


class TestFanOutRoute:
    """``jobs > 1`` shards a pair only once its serial build reaches
    ``FANOUT_MIN_VISITS`` partition visits; below that it is compared in
    process, with the serial report."""

    PAIR = (uniform_interval_firewall(6, seed=1), uniform_interval_firewall(6, seed=2))

    @pytest.fixture
    def pooled(self, monkeypatch):
        """Records each call that reaches ``compare_parallel`` (its
        keyword arguments), and runs it in process."""
        import repro.parallel as parallel_pkg

        real = parallel_pkg.compare_parallel
        calls: list[dict] = []

        def recording(fw_a, fw_b, **kwargs):
            calls.append(dict(kwargs))
            return real(fw_a, fw_b, **{**kwargs, "jobs": 1})

        monkeypatch.setattr(parallel_pkg, "compare_parallel", recording)
        return calls

    def visits(self) -> int:
        guard = GuardContext(Budget.unlimited())
        store = NodeStore()
        for firewall in self.PAIR:
            store.build(firewall, guard=guard)
        return guard.nodes_expanded

    def test_route_is_a_function_of_visits(self, pooled, monkeypatch):
        visits = self.visits()
        serial = analyze_change(*self.PAIR)
        for crossover, sharded in ((visits, True), (visits + 1, False)):
            monkeypatch.setattr(impact, "FANOUT_MIN_VISITS", crossover)
            for _ in range(3):
                pooled.clear()
                report = analyze_change(*self.PAIR, jobs=2)
                assert len(pooled) == int(sharded)
                assert report.affected_packets() == serial.affected_packets()
                if not sharded:
                    assert report.discrepancies == serial.discrepancies

    def test_probe_spend_counts_against_the_guard(self, pooled, monkeypatch):
        monkeypatch.setattr(impact, "FANOUT_MIN_VISITS", 50)
        guard = GuardContext(Budget(max_nodes=1_000_000))
        analyze_change(*self.PAIR, jobs=2, guard=guard)
        assert [call["budget"].max_nodes for call in pooled] == [1_000_000 - 50]

    def test_user_budget_wins_a_tie(self, pooled, monkeypatch):
        from repro.exceptions import BudgetExceededError

        monkeypatch.setattr(impact, "FANOUT_MIN_VISITS", 50)
        with pytest.raises(BudgetExceededError):
            analyze_change(
                *self.PAIR, jobs=2, guard=GuardContext(Budget(max_nodes=49))
            )
        assert pooled == []
