"""Graceful degradation: approximate fallback, explosive inputs, CLI codes.

The acceptance test for the guarded layer: a synthetic policy pair whose
exact comparison would blow the ``(2n - 1)^d`` path bound to billions of
paths must, under a 2-second deadline, terminate promptly with either a
:class:`BudgetExceededError` or a flagged approximate report — never a
hang.  An outer watchdog thread enforces "promptly" independently of the
guard under test.
"""

import threading
import time

import pytest

from repro.analysis.approximate import approximate_compare
from repro.cli import main
from repro.exceptions import BudgetExceededError
from repro.fdd import compare_fast, compare_firewalls
from repro.fields import standard_schema
from repro.guard import Budget, GuardContext
from repro.intervals import Interval, IntervalSet
from repro.policy import ACCEPT, DISCARD, Firewall, Predicate, Rule, dump
from repro.synth import team_a_firewall, team_b_firewall, uniform_interval_firewall


def explosive_pair() -> tuple[Firewall, Firewall]:
    """Two standard-schema firewalls whose exact comparison explodes.

    Each rule constrains every one of the five fields with a distinct
    two-interval set, so each append fragments every FDD path (the
    worst-case mechanism behind Theorem 1's ``(2n - 1)^d`` bound).  The
    two policies use different offsets so their shaped product explodes
    too.  Direct per-packet evaluation stays trivially cheap, which is
    what the sampling fallback relies on.
    """
    schema = standard_schema()

    def build(offset: int, decision_flip: bool) -> Firewall:
        rules = []
        for i in range(30):
            sets = []
            for f, field in enumerate(schema):
                step = (field.max_value // 64) or 1
                lo = (offset + i * (2 * f + 3)) * step % (field.max_value - 4 * step)
                sets.append(
                    IntervalSet(
                        [
                            Interval(lo, lo + step),
                            Interval(lo + 2 * step, lo + 3 * step),
                        ]
                    )
                )
            decision = ACCEPT if (i % 2 == 0) != decision_flip else DISCARD
            rules.append(Rule(Predicate(schema, tuple(sets)), decision))
        # Opposite catch-alls: nearly the whole universe disagrees, so the
        # sampling fallback is guaranteed witnesses while the exact product
        # still explodes on the fragmented rule bodies above.
        rules.append(
            Rule(Predicate.match_all(schema), ACCEPT if decision_flip else DISCARD)
        )
        return Firewall(schema, rules)

    return build(1, False), build(5, True)


def run_with_watchdog(fn, timeout_s: float):
    """Run ``fn`` on a daemon thread; fail the test if it outlives the
    watchdog (a hang must show up as a test failure, not a stuck CI job)."""
    result: dict = {}

    def target():
        try:
            result["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - relayed to the test
            result["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout=timeout_s)
    assert not thread.is_alive(), f"guarded run hung past {timeout_s}s watchdog"
    return result


class TestApproximateCompare:
    def test_finds_seeded_discrepancies(self):
        report = approximate_compare(
            team_a_firewall(), team_b_firewall(), samples=500, seed=3
        )
        assert 0.0 < report.coverage < 1.0
        assert report.sampled_packets > 0
        # Every reported cell is a genuine single-packet disagreement.
        fw_a, fw_b = team_a_firewall(), team_b_firewall()
        for disc in report.discrepancies:
            packet = tuple(values.min() for values in disc.sets)
            assert fw_a(packet) == disc.decision_a
            assert fw_b(packet) == disc.decision_b
            assert disc.decision_a != disc.decision_b

    def test_deterministic_for_seed(self):
        a, b = team_a_firewall(), team_b_firewall()
        first = approximate_compare(a, b, samples=300, seed=7)
        second = approximate_compare(a, b, samples=300, seed=7)
        assert first.discrepancies == second.discrepancies
        assert first.sampled_packets == second.sampled_packets

    def test_empty_report_does_not_prove_equivalence(self):
        fw = team_a_firewall()
        report = approximate_compare(fw, fw, samples=50)
        assert not report.discrepancies
        assert 0 < report.sampled_packets <= 50
        assert report.coverage < 1.0


class TestCompareWithFallback:
    """``--approx-fallback``: exact within budget, sampled only on a trip."""

    def test_within_budget_is_exact(self, policies, capsys):
        assert main(["compare", "--raw", *policies]) == 1
        exact = capsys.readouterr().out
        code = main(
            [
                "compare",
                "--raw",
                *policies,
                "--max-nodes",
                "1000000",
                "--approx-fallback",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert out == exact
        cells = compare_fast(team_a_firewall(), team_b_firewall()).discrepancies()
        assert out.startswith(f"{len(cells)} functional discrepancy region(s)\n")

    def test_exact_on_identical_inputs_proves_equivalence(self, policies, capsys):
        code = main(
            [
                "equivalent",
                policies[0],
                policies[0],
                "--max-nodes",
                "1000000",
                "--approx-fallback",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == "equivalent\n"


class TestExplosiveInputsTerminate:
    """The issue's acceptance scenario, with an outer watchdog."""

    def test_deadline_aborts_exact_comparison(self):
        fw_a, fw_b = explosive_pair()

        def attempt():
            guard = GuardContext(Budget(deadline_s=2.0), check_every=64)
            return compare_firewalls(fw_a, fw_b, guard=guard)

        result = run_with_watchdog(attempt, timeout_s=30.0)
        # Either the pipeline finished within its own deadline or — the
        # expected outcome — it tripped the budget.  A hang already failed
        # in the watchdog above.
        if "error" in result:
            assert isinstance(result["error"], BudgetExceededError)
            assert result["error"].resource in ("deadline", "fdd-nodes")

    def test_fallback_returns_flagged_report(self, tmp_path, capsys):
        # explosive_pair() explodes only the tree engine; the store
        # compares it exactly in well under a second.  An 80-rule pair of
        # uniform random intervals is the input the store cannot finish
        # under a 2-second deadline, so the sampling fallback runs.
        paths = [str(tmp_path / "a.fw"), str(tmp_path / "b.fw")]
        for seed, path in zip((1, 2), paths):
            dump(uniform_interval_firewall(80, seed=seed), path, schema_key="standard")

        def attempt():
            start = time.monotonic()
            code = main(
                [
                    "compare",
                    "--raw",
                    *paths,
                    "--deadline",
                    "2",
                    "--approx-fallback",
                ]
            )
            return code, time.monotonic() - start

        result = run_with_watchdog(attempt, timeout_s=30.0)
        assert "error" not in result, f"fallback raised: {result.get('error')!r}"
        code, elapsed = result["value"]
        out = capsys.readouterr().out
        # Exit 4 flags the sampled report: the exact run did not finish.
        assert code == 4
        assert "(approximate: sampled, coverage ~" in out
        # The trip and the sampled report land within 5 s of the deadline
        # (about 0.5 s on a 2-vCPU machine).
        assert elapsed < 2.0 + 5.0, elapsed
        # The two policies genuinely differ, and direct evaluation is
        # cheap, so sampling should surface at least one witness.
        assert "functional discrepancy region(s)" in out

    def test_node_budget_aborts_construction(self):
        fw_a, fw_b = explosive_pair()

        def attempt():
            guard = GuardContext(Budget(max_nodes=50_000))
            return compare_firewalls(fw_a, fw_b, guard=guard)

        result = run_with_watchdog(attempt, timeout_s=30.0)
        if "error" in result:
            assert isinstance(result["error"], BudgetExceededError)


@pytest.fixture
def policies(tmp_path):
    path_a = tmp_path / "a.fw"
    path_b = tmp_path / "b.fw"
    dump(team_a_firewall(), path_a, schema_key="interface")
    dump(team_b_firewall(), path_b, schema_key="interface")
    return str(path_a), str(path_b)


class TestCliExitCodes:
    def test_budget_exceeded_exits_3(self, policies, capsys):
        code = main(["compare", *policies, "--max-nodes", "2"])
        err = capsys.readouterr().err
        assert code == 3
        assert "budget exceeded" in err
        assert "progress at abort" in err

    def test_fallback_exits_4_with_flagged_output(self, policies, capsys):
        code = main(["compare", *policies, "--max-nodes", "2", "--approx-fallback"])
        out = capsys.readouterr().out
        assert code == 4
        assert "approximate" in out

    def test_generous_budget_behaves_exactly(self, policies, capsys):
        code = main(["compare", *policies, "--deadline", "60", "--max-nodes", "1000000"])
        assert code == 1
        assert "3 functional discrepancy region(s)" in capsys.readouterr().out

    def test_equivalent_fallback_inconclusive_exits_4(self, policies, capsys):
        code = main(
            ["equivalent", policies[0], policies[0], "--max-nodes", "2", "--approx-fallback"]
        )
        assert code == 4
        assert "NOT proven" in capsys.readouterr().out

    def test_equivalent_fallback_witness_exits_1(self, policies, capsys):
        code = main(
            ["equivalent", *policies, "--max-nodes", "2", "--approx-fallback"]
        )
        assert code == 1
        assert "witness" in capsys.readouterr().out

    def test_impact_budget_exceeded_exits_3(self, policies, capsys):
        code = main(["impact", *policies, "--max-nodes", "2"])
        assert code == 3
