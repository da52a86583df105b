"""CLI tests for ``repro audit --manifest``: flags, formats, exit codes."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from tests.audit.conftest import BASELINE_STRICT, POLICY_OPEN


class TestArguments:
    def test_requires_policy_or_manifest(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["audit"])
        assert exit_info.value.code == 2
        assert "--manifest" in capsys.readouterr().err

    def test_missing_manifest_path(self, tmp_path, capsys):
        assert main(["audit", "--manifest", str(tmp_path / "ghost")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_bad_checks_spec(self, fleet, capsys):
        assert main(["audit", "--manifest", str(fleet), "--checks", "typo"]) == 2

    @pytest.mark.parametrize("names", [["core.fw"], ["core.fw", "core.fw"]])
    def test_positional_policies_rejected(self, fleet, names, capsys):
        # One policy's findings: ``repro lint``; a change: ``repro impact``.
        paths = [str(fleet / name) for name in names]
        with pytest.raises(SystemExit) as exit_info:
            main(["audit", *paths])
        assert exit_info.value.code == 2
        assert "--manifest" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exit_info:
            main(["audit", *paths, "--manifest", str(fleet)])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_jobs_is_a_usage_error(self, fleet, capsys):
        # The fleet audit runs serially in one process.
        with pytest.raises(SystemExit) as exit_info:
            main(["audit", "--manifest", str(fleet), "--jobs", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


class TestFormats:
    def test_text_default(self, fleet, capsys):
        assert main(["audit", "--manifest", str(fleet)]) == 0
        out = capsys.readouterr().out
        assert "core.fw" in out and "fleet:" in out

    def test_json(self, fleet, capsys):
        assert main(["audit", "--manifest", str(fleet), "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert [p["name"] for p in document["policies"]] == [
            "core.fw",
            "team-a/edge.fw",
        ]

    def test_sarif_streams_valid_json(self, fleet, baseline, capsys):
        code = main(
            [
                "audit",
                "--manifest",
                str(fleet),
                "--baseline",
                str(baseline),
                "--format",
                "sarif",
                "--fail-on",
                "never",
            ]
        )
        assert code == 0
        sarif = json.loads(capsys.readouterr().out)
        assert sarif["version"] == "2.1.0"
        assert sarif["runs"][0]["tool"]["driver"]["name"] == "repro-audit"


class TestExitCodes:
    def test_divergence_alone_passes_fail_on_error(self, fleet, baseline):
        # edge.fw newly *blocks* traffic -- warning-grade, not error-grade.
        code = main(
            ["audit", "--manifest", str(fleet), "--baseline", str(baseline)]
        )
        assert code == 0

    def test_newly_allowed_fails_fail_on_error(self, tmp_path):
        root = tmp_path / "fleet"
        root.mkdir()
        (root / "open.fw").write_text(POLICY_OPEN)
        (tmp_path / "strict.fw").write_text(BASELINE_STRICT)
        code = main(
            [
                "audit",
                "--manifest",
                str(root),
                "--baseline",
                str(tmp_path / "strict.fw"),
            ]
        )
        assert code == 1

    def test_fail_on_divergence(self, fleet, baseline):
        code = main(
            [
                "audit",
                "--manifest",
                str(fleet),
                "--baseline",
                str(baseline),
                "--fail-on",
                "divergence",
            ]
        )
        assert code == 1

    def test_fail_on_never(self, tmp_path):
        root = tmp_path / "fleet"
        root.mkdir()
        (root / "open.fw").write_text(POLICY_OPEN)
        (tmp_path / "strict.fw").write_text(BASELINE_STRICT)
        code = main(
            [
                "audit",
                "--manifest",
                str(root),
                "--baseline",
                str(tmp_path / "strict.fw"),
                "--fail-on",
                "never",
            ]
        )
        assert code == 0

    def test_over_budget_exits_3(self, tmp_path):
        root = tmp_path / "fleet"
        root.mkdir()
        (root / "p.fw").write_text(BASELINE_STRICT)
        (root / "fleet.json").write_text(
            json.dumps(
                {
                    "tenants": {"default": {"max_nodes": 1}},
                    "policies": [{"path": "p.fw"}],
                }
            )
        )
        assert main(["audit", "--manifest", str(root / "fleet.json")]) == 3

    def test_unreadable_policy_exits_2(self, fleet):
        (fleet / "broken.fw").write_text("firewall schema=standard\nbogus\n")
        assert main(["audit", "--manifest", str(fleet)]) == 2


class TestCache:
    def test_cache_dir_round_trip(self, fleet, baseline, tmp_path, capsys):
        argv = [
            "audit",
            "--manifest",
            str(fleet),
            "--baseline",
            str(baseline),
            "--cache-dir",
            str(tmp_path / "cache"),
            "--format",
            "json",
        ]
        assert main(argv) == 0
        cold = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["stats"]["fdd_constructions"] == 0
        assert warm["stats"]["fully_cached"] == 2
        # Diagnostic parity between the cold and warm documents.
        assert [p["stages"] for p in warm["policies"]] == [
            p["stages"] for p in cold["policies"]
        ]

    def test_explain_cache_reports_resolution(self, fleet, tmp_path, capsys):
        argv = [
            "audit",
            "--manifest",
            str(fleet),
            "--cache-dir",
            str(tmp_path / "cache"),
            "--explain-cache",
        ]
        assert main(argv) == 0
        cold_err = capsys.readouterr().err
        assert "# cache" in cold_err and "computed lint" in cold_err
        assert main(argv) == 0
        warm_err = capsys.readouterr().err
        assert "all stages served" in warm_err
        assert "0 FDD construction(s)" in warm_err

    def test_checks_selection(self, fleet, capsys):
        code = main(
            ["audit", "--manifest", str(fleet), "--checks", "lint=FW001", "--format", "json"]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        for policy in document["policies"]:
            assert policy["stages"]["lint"]["checks_run"] == ["FW001"]
            assert "compare" not in policy["stages"]
