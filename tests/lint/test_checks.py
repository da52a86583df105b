"""Unit tests for the individual lint checkers.

The central acceptance case: a rule shadowed only by the *union* of
several earlier rules.  The pairwise containment test (Al-Shaer-style)
provably cannot see it, the FDD-exact checker must.
"""

from __future__ import annotations

import pytest

from repro.analysis import effective_rules, find_anomalies
from repro.exceptions import LintError
from repro.fields import toy_schema
from repro.guard import Budget, GuardContext
from repro.lint import Severity, all_checks, run_lint, selected_checks
from repro.policy import ACCEPT, ACCEPT_LOG, DISCARD, Firewall, Rule


def _fw(*specs):
    """Build a toy-schema firewall from ``(decision, lo, hi)`` triples."""
    schema = toy_schema(9)
    rules = []
    for decision, *bounds in specs:
        if bounds:
            rules.append(Rule.build(schema, decision, F1=tuple(bounds)))
        else:
            rules.append(Rule.build(schema, decision))
    return Firewall(schema, rules)


@pytest.fixture
def cumulative():
    """r3 is covered by r1 ∪ r2 (different decision), not by either alone."""
    return _fw(
        (ACCEPT, 0, 3),
        (ACCEPT, 4, 7),
        (DISCARD, 1, 6),
        (DISCARD,),
    )


class TestCumulativeShadowing:
    def test_pairwise_detector_misses_it(self, cumulative):
        kinds = [a.kind for a in find_anomalies(cumulative)]
        assert "shadowing" not in kinds

    def test_exact_checker_flags_it(self, cumulative):
        report = run_lint(cumulative)
        shadowed = report.by_code("FW001")
        assert [d.rule_index for d in shadowed] == [2]
        assert shadowed[0].severity is Severity.ERROR
        assert shadowed[0].related == (0, 1)

    def test_effective_analysis_detail(self, cumulative):
        analysis = effective_rules(cumulative)
        fact = analysis.rules[2]
        assert fact.shadowed and not fact.effective
        assert fact.conflicting == (0, 1)
        assert fact.witness is not None
        # The witness really is decided differently by an earlier rule.
        assert cumulative.evaluate(fact.witness) == ACCEPT

    def test_detail_over_a_fragmented_residual(self):
        """Two fields: the first rule punches a hole in the last rule's
        box, so the sweep peels a residual of several multi-interval
        fragments.  Rule 2 lies inside the hole (bounds meet on F1 but
        not F2) and is no contributor (it is shadowed itself); the first
        conflict lands in a fragment, not at the box's corner."""
        schema = toy_schema(9, 9)
        fw = Firewall(
            schema,
            [
                Rule.build(schema, DISCARD, F1=(2, 5), F2=(2, 5)),
                Rule.build(schema, DISCARD, F2=(0, 1)),
                Rule.build(schema, ACCEPT, F1=3, F2=3),
                Rule.build(schema, ACCEPT, F1=(7, 8), F2=(7, 8)),
                Rule.build(schema, ACCEPT, F2=(6, 9)),
                Rule.build(schema, DISCARD, F1=(0, 1)),
                Rule.build(schema, ACCEPT, F1=(6, 9)),
                Rule.build(schema, DISCARD),
            ],
        )
        fact = effective_rules(fw).rules[7]
        assert fact.shadowed and not fact.effective
        assert fact.conflicting == (3, 4, 6)
        assert fact.witness == (7, 7)
        assert fw.evaluate(fact.witness) == ACCEPT
        shadowed = run_lint(fw).by_code("FW001")
        assert [d.rule_index for d in shadowed] == [2, 7]
        assert shadowed[1].related == (3, 4, 6)


class TestDeadAndUnreachable:
    def test_same_decision_cover_is_unreachable_not_shadowed(self):
        fw = _fw((DISCARD, 0, 5), (DISCARD, 2, 4), (ACCEPT,))
        report = run_lint(fw)
        assert [d.rule_index for d in report.by_code("FW002")] == [1]
        assert not report.by_code("FW001")

    def test_live_rules_are_clean(self):
        fw = _fw((ACCEPT, 0, 3), (DISCARD,))
        report = run_lint(fw)
        assert not report.by_code("FW001")
        assert not report.by_code("FW002")

    def test_decision_never_taken(self):
        fw = _fw((ACCEPT, 0, 5), (ACCEPT_LOG, 2, 4), (DISCARD,))
        report = run_lint(fw)
        taken = report.by_code("FW004")
        assert [d.rule_index for d in taken] == [1]
        assert "accept+log" in taken[0].message


class TestRedundancy:
    def test_redundant_wrt_later_rule(self):
        # r1 accepts a sub-range of what the catch-all accepts anyway.
        fw = _fw((ACCEPT, 0, 3), (ACCEPT,))
        report = run_lint(fw)
        assert [d.rule_index for d in report.by_code("FW003")] == [0]

    def test_dead_rules_not_double_reported(self):
        fw = _fw((DISCARD, 0, 5), (DISCARD, 2, 4), (ACCEPT,))
        report = run_lint(fw)
        assert not report.by_code("FW003")


class TestSelection:
    def test_enable_restricts(self, cumulative):
        report = run_lint(cumulative, enable=["FW001"])
        assert report.checks_run == ("FW001",)
        assert report.diagnostics

    def test_disable_removes(self, cumulative):
        report = run_lint(cumulative, disable=["FW001"])
        assert "FW001" not in report.checks_run
        assert not report.by_code("FW001")

    def test_names_resolve_case_insensitively(self):
        infos = selected_checks(enable=["Shadowed-Rule"], disable=None)
        assert [i.code for i in infos] == ["FW001"]

    def test_unknown_code_raises(self):
        with pytest.raises(LintError):
            selected_checks(enable=["FW999"], disable=None)

    def test_registry_is_stable(self):
        codes = [info.code for info in all_checks()]
        assert codes == sorted(codes)
        assert len(codes) == len(set(codes))


class TestGuardIntegration:
    def test_lint_respects_deadline_budget(self, cumulative):
        from repro.exceptions import BudgetExceededError

        guard = GuardContext(budget=Budget(deadline_s=0.0))
        with pytest.raises(BudgetExceededError):
            run_lint(cumulative, guard=guard)

    def test_lint_under_generous_budget(self, cumulative):
        guard = GuardContext(budget=Budget(deadline_s=60.0))
        report = run_lint(cumulative, guard=guard)
        assert report.by_code("FW001")


class TestReport:
    def test_counts_and_worst(self, cumulative):
        report = run_lint(cumulative)
        counts = report.counts()
        assert counts["error"] == len(report.by_code("FW001"))
        assert report.worst() is Severity.ERROR
        assert report.has_at_least(Severity.WARNING)

    def test_sorted_by_rule_then_code(self, cumulative):
        report = run_lint(cumulative)
        keys = [(d.rule_index if d.rule_index is not None else 10**9, d.code)
                for d in report.diagnostics]
        assert keys == sorted(keys)
