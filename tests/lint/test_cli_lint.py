"""CLI tests for the ``repro lint`` subcommand: exit gating and flags."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.lint import all_checks, demo_policy_path

DEMO = str(demo_policy_path())


@pytest.fixture
def clean_policy(tmp_path):
    """A policy with no findings at any severity."""
    path = tmp_path / "clean.fw"
    path.write_text(
        'firewall "clean" schema=standard\n'
        "dst_ip=192.168.0.1, dst_port=smtp, protocol=tcp -> accept\n"
        "any -> discard\n"
    )
    return str(path)


@pytest.fixture
def warning_policy(tmp_path):
    """Warnings (an unreachable rule) but no errors."""
    path = tmp_path / "warn.fw"
    path.write_text(
        'firewall "warn" schema=standard\n'
        "src_ip=172.16.0.0/16 -> discard\n"
        "src_ip=172.16.5.0/24 -> discard\n"
        "any -> discard\n"
    )
    return str(path)


class TestFailOn:
    def test_error_gating_fails_demo(self, capsys):
        assert main(["lint", DEMO]) == 1
        assert "FW001" in capsys.readouterr().out

    def test_error_gating_passes_warnings(self, warning_policy, capsys):
        assert main(["lint", warning_policy, "--fail-on", "error"]) == 0
        assert "FW002" in capsys.readouterr().out

    def test_warning_gating_fails_warnings(self, warning_policy):
        assert main(["lint", warning_policy, "--fail-on", "warning"]) == 1

    def test_never_gating_always_passes(self, capsys):
        assert main(["lint", DEMO, "--fail-on", "never"]) == 0
        assert "FW001" in capsys.readouterr().out

    def test_clean_policy_passes_strictest(self, clean_policy, capsys):
        assert main(["lint", clean_policy, "--fail-on", "warning"]) == 0
        assert "clean" in capsys.readouterr().out


class TestSelection:
    def test_disable_error_check_passes(self, capsys):
        assert main(["lint", DEMO, "--disable", "FW001"]) == 0
        assert "FW001" not in capsys.readouterr().out

    def test_enable_single_check(self, capsys):
        assert main(["lint", DEMO, "--enable", "FW002", "--fail-on", "warning"]) == 1
        out = capsys.readouterr().out
        assert "FW002" in out and "FW001" not in out

    def test_unknown_code_is_usage_error(self, capsys):
        code = main(["lint", DEMO, "--enable", "FW999"])
        assert code == 2
        assert "FW999" in capsys.readouterr().err


class TestListChecks:
    def test_lists_every_registered_check(self, capsys):
        assert main(["lint", "--list-checks"]) == 0
        out = capsys.readouterr().out
        for info in all_checks():
            assert info.code in out
            assert info.name in out

    def test_policy_not_required(self, capsys):
        assert main(["lint", "--list-checks"]) == 0

    def test_missing_policy_without_list_is_error(self, capsys):
        assert main(["lint"]) == 2
        assert "policy" in capsys.readouterr().err


class TestFormats:
    def test_json_format(self, capsys):
        main(["lint", DEMO, "--format", "json", "--fail-on", "never"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"]["name"] == "repro-lint"
        assert payload["summary"]["error"] >= 1

    def test_sarif_format(self, capsys):
        main(["lint", DEMO, "--format", "sarif", "--fail-on", "never"])
        sarif = json.loads(capsys.readouterr().out)
        assert sarif["version"] == "2.1.0"
        assert sarif["runs"][0]["results"]

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["lint", "no/such/policy.fw"]) == 2
        assert "no/such/policy.fw" in capsys.readouterr().err


class TestGuardOptions:
    def test_exhausted_deadline_exits_3(self, capsys):
        assert main(["lint", DEMO, "--deadline", "0"]) == 3

    def test_generous_budget_ok(self):
        assert main(["lint", DEMO, "--deadline", "60", "--fail-on", "never"]) == 0
