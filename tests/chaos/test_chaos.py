"""Tests for the cross-process chaos harness (:mod:`repro.chaos`).

The acceptance property of the whole robustness layer: with workers
SIGKILLed mid-shard, hung past their deadlines, raising at armed guard
sites, or returning corrupted envelopes, the supervised parallel engine
still produces a report *byte-identical* to the serial baseline — by
retry when possible, by recorded degradation when not — and ``jobs=1``
behavior is completely unchanged.
"""

from __future__ import annotations

import json

import pytest

from repro.chaos import (
    ChaosAction,
    ChaosPlan,
    make_firewall,
    prepare_task,
    run_scenario,
    run_suite,
    scenario_catalogue,
)
from repro.chaos.scenarios import _FAST_RETRY
from repro.cli import EXIT_DEGRADED, main
from repro.exceptions import BudgetExceededError
from repro.fdd.fast import compare_fast
from repro.guard import Budget
from repro.parallel import compare_parallel, comparison_summary


def canonical(summary: dict) -> str:
    return json.dumps(summary, sort_keys=True)


def serial_summary(fw_a, fw_b) -> dict:
    return comparison_summary(compare_fast(fw_a, fw_b))


# ----------------------------------------------------------------------
# The scenario catalogue
# ----------------------------------------------------------------------


class TestScenarios:
    @pytest.mark.parametrize(
        "scenario",
        scenario_catalogue(),
        ids=[scenario.name for scenario in scenario_catalogue()],
    )
    def test_scenario_passes_under_fork(self, scenario):
        record = run_scenario(scenario, jobs=2, start_method="fork")
        assert record["parity"], (
            f"{scenario.name}: merged summary diverged from serial baseline"
        )
        assert record["engaged"], f"{scenario.name}: fault never engaged"
        assert record["passed"]

    def test_kill_exhaust_records_the_degradation(self):
        catalogue = {s.name: s for s in scenario_catalogue()}
        record = run_scenario(catalogue["kill-exhaust"], jobs=2, start_method="fork")
        assert record["passed"]
        (degradation,) = record["degradations"]
        assert degradation["reason"] == "worker-crash"
        assert degradation["retries"] == 3  # original dispatch + 2 retries
        assert [f["reason"] for f in record["failures"]] == ["worker-crash"] * 3

    def test_worker_kill_under_spawn(self):
        catalogue = {s.name: s for s in scenario_catalogue()}
        record = run_scenario(catalogue["worker-kill"], jobs=2, start_method="spawn")
        assert record["passed"]

    def test_suite_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown chaos scenario"):
            run_suite(["no-such-scenario"], jobs=2)

    def test_prepare_task_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown chaos action"):
            prepare_task(ChaosAction("explode"), object(), None)


# ----------------------------------------------------------------------
# jobs=1 stays untouched
# ----------------------------------------------------------------------


class TestSerialUnchanged:
    def test_jobs_1_ignores_chaos_and_never_degrades(self):
        fw_a, fw_b = make_firewall(41), make_firewall(42)
        result = compare_parallel(
            fw_a,
            fw_b,
            jobs=1,
            chaos=ChaosPlan({(0, 0): ChaosAction("kill")}),
        )
        assert canonical(result.summary()) == canonical(serial_summary(fw_a, fw_b))
        assert result.failures == () and result.degradations == ()
        assert not result.degraded()


# ----------------------------------------------------------------------
# Guard-budget accounting across retries (satellite)
# ----------------------------------------------------------------------


class TestBudgetAcrossRetries:
    """A retried shard re-ticks against the *aggregate* budget: retries
    can neither double-count a shard's spend nor outspend --max-nodes."""

    def _pair(self):
        return make_firewall(51), make_firewall(52)

    def _total_nodes(self, fw_a, fw_b) -> int:
        clean = compare_parallel(
            fw_a,
            fw_b,
            jobs=2,
            start_method="fork",
            budget=Budget(max_nodes=10**9),
            supervision=_FAST_RETRY,
        )
        assert clean.failures == ()
        return clean.outcome["nodes_expanded"]

    def test_retried_shard_counts_once_against_the_aggregate(self):
        fw_a, fw_b = self._pair()
        total = self._total_nodes(fw_a, fw_b)
        # Shard 0's first attempt dies mid-construction; its partial
        # spend dies with it and only the successful retry is ticked,
        # so a budget of exactly the fault-free total still suffices.
        result = compare_parallel(
            fw_a,
            fw_b,
            jobs=2,
            start_method="fork",
            budget=Budget(max_nodes=total),
            supervision=_FAST_RETRY,
            chaos=ChaosPlan({(0, 0): ChaosAction("raise")}),
        )
        assert canonical(result.summary()) == canonical(serial_summary(fw_a, fw_b))
        assert [f.reason for f in result.failures] == ["worker-error"]
        assert result.outcome["nodes_expanded"] == total

    def test_retries_cannot_exceed_max_nodes(self):
        fw_a, fw_b = self._pair()
        total = self._total_nodes(fw_a, fw_b)
        with pytest.raises(BudgetExceededError):
            compare_parallel(
                fw_a,
                fw_b,
                jobs=2,
                    start_method="fork",
                budget=Budget(max_nodes=total - 1),
                supervision=_FAST_RETRY,
                chaos=ChaosPlan({(0, 0): ChaosAction("raise")}),
            )


# ----------------------------------------------------------------------
# CLI: the chaos command and the degraded exit code
# ----------------------------------------------------------------------


class TestChaosCommand:
    def test_single_scenario_writes_json_report(self, tmp_path, capsys):
        report_path = tmp_path / "chaos.json"
        code = main(
            [
                "chaos",
                "--jobs",
                "2",
                "--scenario",
                "worker-kill",
                "--start-method",
                "fork",
                "--json",
                str(report_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS  worker-kill" in out
        assert "1/1 scenario(s) passed" in out
        report = json.loads(report_path.read_text())
        assert report["passed"] is True
        assert report["scenarios"][0]["scenario"] == "worker-kill"
        assert report["scenarios"][0]["failures"][0]["reason"] == "worker-crash"

    def test_list_scenarios(self, capsys):
        assert main(["chaos", "--list-scenarios"]) == 0
        out = capsys.readouterr().out
        for scenario in scenario_catalogue():
            assert scenario.name in out

    def test_unknown_scenario_exits_2(self, capsys):
        assert main(["chaos", "--scenario", "nope"]) == 2
        assert "unknown chaos scenario" in capsys.readouterr().err


class TestDegradedExitCode:
    def _policies(self, tmp_path):
        from repro.policy import dump
        from repro.synth import team_a_firewall, team_b_firewall

        path_a = tmp_path / "a.fw"
        path_b = tmp_path / "b.fw"
        dump(team_a_firewall(), path_a, schema_key="interface")
        dump(team_b_firewall(), path_b, schema_key="interface")
        return str(path_a), str(path_b)

    def _degrade_every_shard(self, monkeypatch):
        """Make every supervised dispatch fail so each shard degrades.

        The team pair builds far below ``FANOUT_MIN_VISITS``; a crossover
        of 0 sends it to the pool anyway."""
        import repro.parallel as parallel_pkg
        from repro.analysis import impact

        monkeypatch.setattr(impact, "FANOUT_MIN_VISITS", 0)

        real = parallel_pkg.compare_parallel

        class _KillEverything:
            def action_for(self, shard_index, attempt):
                return ChaosAction("kill")

        def chaotic(fw_a, fw_b, **kwargs):
            kwargs.setdefault("start_method", "fork")
            kwargs.setdefault("supervision", _FAST_RETRY)
            kwargs["chaos"] = _KillEverything()
            kwargs["jobs"] = max(2, kwargs.get("jobs") or 2)
            return real(fw_a, fw_b, **kwargs)

        monkeypatch.setattr(parallel_pkg, "compare_parallel", chaotic)

    def test_equivalent_but_degraded_exits_5(self, tmp_path, capsys, monkeypatch):
        path_a, _ = self._policies(tmp_path)
        self._degrade_every_shard(monkeypatch)
        code = main(["equivalent", "--jobs", "2", path_a, path_a])
        captured = capsys.readouterr()
        assert code == EXIT_DEGRADED == 5
        assert "equivalent" in captured.out
        assert "degraded to serial execution" in captured.err

    def test_discrepancies_keep_exit_1_with_warning(self, tmp_path, capsys, monkeypatch):
        path_a, path_b = self._policies(tmp_path)
        self._degrade_every_shard(monkeypatch)
        code = main(["equivalent", "--jobs", "2", path_a, path_b])
        captured = capsys.readouterr()
        assert code == 1
        assert "NOT equivalent" in captured.out
        assert "degraded to serial execution" in captured.err
