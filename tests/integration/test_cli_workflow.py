"""Integration: a whole diverse-design engagement driven through the CLI.

Simulates how two teams would actually use the tool: policies live in
files, the comparison gates deployment (exit codes), the impact report
lands in the change ticket, and the final policy exports to the device.
"""

import pytest

from repro.cli import main
from repro.policy import dump, dumps, loads
from repro.synth import (
    paper_resolution_chooser,
    resolved_reference_firewall,
    team_a_firewall,
    team_b_firewall,
)


@pytest.fixture
def workspace(tmp_path):
    dump(team_a_firewall(), tmp_path / "team_a.fw", schema_key="interface")
    dump(team_b_firewall(), tmp_path / "team_b.fw", schema_key="interface")
    return tmp_path


class TestEngagement:
    def test_full_cycle(self, workspace, capsys):
        a = str(workspace / "team_a.fw")
        b = str(workspace / "team_b.fw")

        # 1. Gate: the two designs disagree -> non-zero exit for CI.
        assert main(["compare", a, b]) == 1
        table = capsys.readouterr().out
        assert "functional discrepancy region(s)" in table

        # 2. The teams resolve (library call; the chooser is the meeting).
        from repro import compare_firewalls, resolve_by_corrected_fdd, resolve_with

        team_a = team_a_firewall()
        team_b = team_b_firewall()
        raw = compare_firewalls(team_a, team_b)
        final = resolve_by_corrected_fdd(
            team_a, team_b, resolve_with(raw, paper_resolution_chooser)
        )
        final_path = workspace / "final.fw"
        final_path.write_text(dumps(final, schema_key="interface"))

        # 3. Verify: the final policy equals the agreed reference.
        ref_path = workspace / "reference.fw"
        dump(resolved_reference_firewall(), ref_path, schema_key="interface")
        assert main(["equivalent", str(final_path), str(ref_path)]) == 0
        capsys.readouterr()

        # 4. Impact report for the ticket: each team's delta to the final.
        assert main(["impact", a, str(final_path)]) == 1
        assert "discrepancy region(s)" in capsys.readouterr().out

        # 5. The final policy's fingerprint pins the deployed artifact.
        assert main(["fingerprint", str(final_path)]) == 0
        fingerprint = capsys.readouterr().out.strip()
        assert main(["fingerprint", str(ref_path)]) == 0
        assert capsys.readouterr().out.strip() == fingerprint

    def test_change_gate_blocks_bad_edit(self, workspace, capsys):
        """An 'emergency' edit is caught by the impact gate before deploy."""
        b = workspace / "team_b.fw"
        deployed = loads(b.read_text())
        from repro.policy import ACCEPT, Rule

        careless = deployed.prepend(
            Rule.build(deployed.schema, ACCEPT, "oops", interface=0)
        )
        after = workspace / "after.fw"
        after.write_text(dumps(careless, schema_key="interface"))
        assert main(["impact", str(b), str(after)]) == 1
        out = capsys.readouterr().out
        assert "newly allowed" in out

    def test_audit_single_policy(self, workspace, capsys):
        assert main(["lint", str(workspace / "team_b.fw")]) == 0
        out = capsys.readouterr().out
        assert "FW202" in out and "3 finding(s)" in out
