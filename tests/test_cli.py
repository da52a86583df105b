"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.policy import dump
from repro.synth import team_a_firewall, team_b_firewall


@pytest.fixture
def policies(tmp_path):
    path_a = tmp_path / "a.fw"
    path_b = tmp_path / "b.fw"
    dump(team_a_firewall(), path_a, schema_key="interface")
    dump(team_b_firewall(), path_b, schema_key="interface")
    return str(path_a), str(path_b)


@pytest.fixture
def standard_policy(tmp_path):
    from repro.synth import SyntheticFirewallGenerator

    path = tmp_path / "p.fw"
    dump(SyntheticFirewallGenerator(seed=1).generate(10), path, schema_key="standard")
    return str(path)


class TestCompare:
    def test_discrepancies_exit_1(self, policies, capsys):
        code = main(["compare", *policies])
        out = capsys.readouterr().out
        assert code == 1
        assert "3 functional discrepancy region(s)" in out
        assert "Team A" in out and "Team B" in out

    def test_raw_mode(self, policies, capsys):
        code = main(["compare", "--raw", *policies])
        assert code == 1
        assert "discrepancy region(s)" in capsys.readouterr().out

    def test_equivalent_exit_0(self, policies, capsys):
        code = main(["compare", policies[0], policies[0]])
        assert code == 0
        assert "equivalent" in capsys.readouterr().out

    def test_serial_regions_match_impact_and_jobs(self, tmp_path, capsys):
        from repro.synth import generate_firewall_pair

        paths = [str(tmp_path / "a.fw"), str(tmp_path / "b.fw")]
        for firewall, path in zip(generate_firewall_pair(30, seed=3), paths):
            dump(firewall, path, schema_key="standard")
        heads = []
        for argv in (["compare"], ["compare", "--jobs", "2"], ["impact"]):
            assert main([*argv, *paths]) == 1
            heads.append(capsys.readouterr().out.splitlines()[:2])
        counts = {
            heads[0][0].split()[0],
            heads[1][0].split()[0],
            heads[2][1].split()[0],
        }
        assert len(counts) == 1, heads


class TestImpact:
    def test_reports_and_exits_1(self, policies, capsys):
        code = main(["impact", *policies])
        assert code == 1
        assert "change impact" in capsys.readouterr().out

    def test_noop_exits_0(self, policies, capsys):
        code = main(["impact", policies[1], policies[1]])
        assert code == 0
        assert "no semantic effect" in capsys.readouterr().out


class TestEquivalent:
    def test_yes(self, policies, capsys):
        assert main(["equivalent", policies[0], policies[0]]) == 0
        assert "equivalent" in capsys.readouterr().out

    def test_no(self, policies, capsys):
        assert main(["equivalent", *policies]) == 1
        assert "NOT equivalent" in capsys.readouterr().out


class TestJobs:
    """``--jobs N`` routes through the sharded parallel engine.

    The team pair builds far below ``FANOUT_MIN_VISITS``, which would
    keep it serial; a crossover of 0 sends it to the pool."""

    @pytest.fixture(autouse=True)
    def _fan_out(self, monkeypatch):
        from repro.analysis import impact

        monkeypatch.setattr(impact, "FANOUT_MIN_VISITS", 0)

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    @pytest.mark.parametrize(
        "command",
        ["compare", "impact", "equivalent", "query", "serve-bench", "audit", "chaos"],
    )
    def test_non_positive_jobs_exits_2(self, command, jobs, policies, capsys):
        argv = {
            "query": ["query", policies[0], "--batch", "-"],
            "serve-bench": ["serve-bench", policies[0]],
            "audit": ["audit", "--manifest", str(Path(policies[0]).parent)],
            "chaos": ["chaos"],
        }.get(command, [command, *policies])
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--jobs", jobs])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        if command in ("query", "serve-bench"):
            # Classification does not fan out: --jobs is no option there.
            assert "unrecognized arguments: --jobs" in err
        else:
            assert "--jobs: must be at least 1" in err

    def test_compare_jobs_matches_serial_regions(self, policies, capsys):
        # Region *carving* may differ at shard boundaries (aggregation
        # sees different input cells), but the count, the headline, and
        # the disputed semantics must agree.
        serial_code = main(["compare", *policies])
        serial_out = capsys.readouterr().out
        parallel_code = main(["compare", "--jobs", "2", *policies])
        parallel_out = capsys.readouterr().out
        assert parallel_code == serial_code == 1
        assert "3 functional discrepancy region(s)" in serial_out
        assert "3 functional discrepancy region(s)" in parallel_out
        assert "Team A" in parallel_out and "Team B" in parallel_out

    def test_compare_jobs_equivalent_exit_0(self, policies, capsys):
        assert main(["compare", "--jobs", "2", policies[0], policies[0]]) == 0
        assert "equivalent" in capsys.readouterr().out

    def test_equivalent_jobs_exit_codes(self, policies, capsys):
        assert main(["equivalent", "--jobs", "2", *policies]) == 1
        assert "NOT equivalent" in capsys.readouterr().out
        assert main(["equivalent", "--jobs", "2", policies[0], policies[0]]) == 0

    def test_jobs_budget_trip_exits_3(self, policies, capsys):
        code = main(
            ["equivalent", "--jobs", "2", "--max-nodes", "5", *policies]
        )
        assert code == 3
        assert "budget exceeded" in capsys.readouterr().err

    def test_jobs_budget_trip_with_fallback_degrades(self, policies, capsys):
        code = main(
            [
                "equivalent",
                "--jobs",
                "2",
                "--max-nodes",
                "5",
                "--approx-fallback",
                *policies,
            ]
        )
        out = capsys.readouterr().out
        # Sampling either finds a witness (1) or proves nothing (4).
        assert code in (1, 4)
        assert "sampling" in out


class TestJobsBelowTheCrossover:
    """A pair that builds below ``FANOUT_MIN_VISITS`` stays in process."""

    @pytest.fixture(autouse=True)
    def _no_pool(self, monkeypatch):
        import repro.parallel as parallel_pkg

        def refuse(*args, **kwargs):
            raise AssertionError("a pair below the crossover reached the pool")

        monkeypatch.setattr(parallel_pkg, "compare_parallel", refuse)

    @pytest.mark.parametrize("command", ["compare", "impact", "equivalent"])
    def test_prints_what_the_serial_run_prints(self, command, policies, capsys):
        serial_code = main([command, *policies])
        serial = capsys.readouterr()
        assert main([command, "--jobs", "2", *policies]) == serial_code == 1
        assert capsys.readouterr() == serial

    def test_max_nodes_still_exits_3(self, policies, capsys):
        code = main(["equivalent", "--jobs", "2", "--max-nodes", "5", *policies])
        assert code == 3
        assert "FDD node budget exceeded: 6 > 5" in capsys.readouterr().err


class TestQuery:
    def test_count(self, policies, capsys):
        code = main(["query", policies[1], "count discard where interface=1"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_bad_query_exits_2(self, policies, capsys):
        code = main(["query", policies[1], "ponder accept"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestQueryBatch:
    @pytest.fixture
    def packet_file(self, tmp_path):
        path = tmp_path / "packets.txt"
        path.write_text(
            "# src_ip dst_ip src_port dst_port protocol\n"
            "10.0.0.1, 192.168.0.1, 1024, smtp, tcp\n"
            "\n"
            "10.0.0.2 192.168.0.2 2048 80 udp\n",
            encoding="utf-8",
        )
        return str(path)

    def test_text_summary(self, standard_policy, packet_file, capsys):
        code = main(["query", standard_policy, "--batch", packet_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "classified 2 packet(s)" in out
        assert "matcher:" in out

    def test_json_summary(self, standard_policy, packet_file, capsys):
        import json

        code = main(
            ["query", standard_policy, "--batch", packet_file, "--format", "json"]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["packets"] == 2
        assert sum(summary["counts"].values()) == 2
        assert summary["matcher"]["nodes"] >= 1

    def test_stdin_batch(self, standard_policy, capsys, monkeypatch):
        import io

        monkeypatch.setattr(
            "sys.stdin", io.StringIO("10.0.0.1 192.168.0.1 1024 25 6\n")
        )
        code = main(["query", standard_policy, "--batch", "-"])
        assert code == 0
        assert "classified 1 packet(s)" in capsys.readouterr().out

    def test_jobs_is_a_usage_error(self, standard_policy, packet_file, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["query", standard_policy, "--batch", packet_file, "--jobs", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    def test_wrong_arity_exits_2(self, standard_policy, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("1 2 3\n", encoding="utf-8")
        code = main(["query", standard_policy, "--batch", str(path)])
        assert code == 2
        assert "expected 5 field value(s)" in capsys.readouterr().err

    def test_range_token_exits_2(self, standard_policy, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("10.0.0.1 192.168.0.1 1024-2048 25 6\n", encoding="utf-8")
        code = main(["query", standard_policy, "--batch", str(path)])
        assert code == 2
        assert "need exactly one" in capsys.readouterr().err

    def test_no_text_and_no_batch_exits_2(self, standard_policy, capsys):
        code = main(["query", standard_policy])
        assert code == 2
        assert "provide a query string or --batch" in capsys.readouterr().err


class TestServeBench:
    def test_smoke_with_json_report(self, standard_policy, tmp_path, capsys):
        import json

        report_path = tmp_path / "serve.json"
        code = main(
            [
                "serve-bench",
                standard_policy,
                standard_policy,
                "--packets",
                "256",
                "--json",
                str(report_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "cache:" in out
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert len(report["policies"]) == 2
        # The same policy loaded twice costs one compile (content hit).
        assert report["cache"]["compiles"] == 1
        assert report["cache"]["hits"] >= 1
        fingerprints = {row["fingerprint"] for row in report["policies"]}
        assert len(fingerprints) == 1

    def test_budget_trip_exits_3(self, standard_policy, capsys):
        code = main(
            ["serve-bench", standard_policy, "--packets", "64", "--max-nodes", "1"]
        )
        assert code == 3
        assert "budget" in capsys.readouterr().err.lower()

    def test_jobs_is_a_usage_error(self, standard_policy, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve-bench", "--jobs", "2", standard_policy])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err


class TestCompact:
    def test_prints_slimmed_policy(self, tmp_path, capsys):
        from repro.fields import standard_schema
        from repro.policy import ACCEPT, DISCARD, Firewall, Rule, dumps, loads

        schema = standard_schema()
        fat = Firewall(
            schema,
            [
                Rule.build(schema, ACCEPT, dst_port="0-1023"),
                Rule.build(schema, ACCEPT, dst_port="80-443"),
                Rule.build(schema, DISCARD),
            ],
        )
        path = tmp_path / "fat.fw"
        path.write_text(dumps(fat, schema_key="standard"))
        code = main(["simplify", str(path)])
        captured = capsys.readouterr()
        assert code == 0
        assert "3 -> 2 rule(s)" in captured.err
        assert len(loads(captured.out, schema)) == 2


class TestExportShow:
    def test_export_iptables(self, standard_policy, capsys):
        assert main(["export", standard_policy, "--format", "iptables"]) == 0
        assert "*filter" in capsys.readouterr().out

    def test_export_cisco(self, standard_policy, capsys):
        assert main(["export", standard_policy, "--format", "cisco"]) == 0
        assert "ip access-list extended" in capsys.readouterr().out

    def test_export_text_roundtrip(self, standard_policy, capsys):
        assert main(["export", standard_policy]) == 0
        out = capsys.readouterr().out
        from repro.fields import standard_schema
        from repro.policy import loads

        assert loads(out, standard_schema())

    def test_show(self, standard_policy, capsys):
        assert main(["show", standard_policy]) == 0
        assert "decision" in capsys.readouterr().out


class TestFingerprintSliceImport:
    def test_fingerprint_stable_and_semantic(self, policies, capsys):
        assert main(["fingerprint", policies[0]]) == 0
        first = capsys.readouterr().out.strip()
        assert main(["fingerprint", policies[0]]) == 0
        second = capsys.readouterr().out.strip()
        assert first == second and len(first) == 64
        assert main(["fingerprint", policies[1]]) == 0
        other = capsys.readouterr().out.strip()
        assert other != first

    def test_slice(self, standard_policy, capsys):
        code = main(["slice", standard_policy, "dst_port=80|443"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("# rules deciding the region:")
        assert "decision" in out

    def test_slice_comma_continues_value_list(self, policies, capsys):
        # As in a rule line, a comma piece without '=' continues the
        # previous field's values: "dst_port=25,80" is "dst_port=25|80".
        assert main(["slice", policies[0], "dst_port=25|80"]) == 0
        expected = capsys.readouterr().out
        assert main(["slice", policies[0], "dst_port=25,80"]) == 0
        assert capsys.readouterr().out == expected
        assert main(["slice", policies[0], "interface=0, dst_port=25,80"]) == 0
        assert "r1" in capsys.readouterr().out.splitlines()[0]

    def test_import_iptables(self, tmp_path, capsys):
        config = tmp_path / "rules.v4"
        config.write_text(
            ":FORWARD DROP [0:0]\n-A FORWARD -s 10.0.0.0/8 -j ACCEPT\n"
        )
        code = main(
            ["import", str(config), "--format", "iptables", "--schema-header"]
        )
        out = capsys.readouterr().out
        assert code == 0
        from repro.policy import loads

        imported = loads(out)
        assert len(imported) == 2

    def test_import_cisco(self, tmp_path, capsys):
        config = tmp_path / "acl.cfg"
        config.write_text(
            "ip access-list extended X\n permit tcp any any eq 80\n"
        )
        code = main(["import", str(config), "--format", "cisco"])
        assert code == 0
        assert "-> accept" in capsys.readouterr().out

    def test_import_nftables(self, tmp_path, capsys):
        config = tmp_path / "ruleset.nft"
        config.write_text(
            "table inet filter {\n"
            "\tchain forward {\n"
            "\t\ttype filter hook forward priority 0; policy drop;\n"
            "\t\tip saddr 10.0.0.0/8 accept\n"
            "\t}\n"
            "}\n"
        )
        code = main(
            ["import", str(config), "--format", "nftables", "--schema-header"]
        )
        out = capsys.readouterr().out
        assert code == 0
        from repro.policy import loads

        assert len(loads(out)) == 2


class TestSimplify:
    def test_shrinks_and_verifies(self, tmp_path, capsys):
        config = tmp_path / "rules.v4"
        config.write_text(
            ":FORWARD DROP [0:0]\n"
            "-A FORWARD -s 10.0.0.0/8 -j ACCEPT\n"
            "-A FORWARD -s 10.9.0.0/16 -j ACCEPT\n"
        )
        code = main(
            ["simplify", str(config), "--from", "iptables", "--to", "nftables"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "table inet filter" in captured.out
        assert "3 -> 2 rule(s)" in captured.err
        assert "verified" in captured.err

    def test_stats_json(self, tmp_path, capsys):
        import json

        config = tmp_path / "rules.v4"
        config.write_text(
            ":FORWARD DROP [0:0]\n-A FORWARD -s 10.0.0.0/8 -j ACCEPT\n"
        )
        stats = tmp_path / "stats.json"
        code = main(
            [
                "simplify",
                str(config),
                "--from",
                "iptables",
                "--stats-json",
                str(stats),
            ]
        )
        capsys.readouterr()
        assert code == 0
        document = json.loads(stats.read_text())
        assert document["rules_after"] <= document["rules_before"]
        assert len(document["fingerprint"]) == 64

    def test_default_dialect_is_native(self, standard_policy, capsys):
        code = main(["simplify", standard_policy])
        out = capsys.readouterr().out
        assert code == 0
        from repro.policy import loads

        assert loads(out)

    def test_lint_on_imported_dialect_points_at_dump_lines(
        self, tmp_path, capsys
    ):
        # Satellite: `repro lint --dialect iptables` anchors findings to
        # the original dump's line numbers via IR provenance.
        config = tmp_path / "rules.v4"
        config.write_text(
            ":FORWARD DROP [0:0]\n"
            "-A FORWARD -s 10.0.0.0/8 -j ACCEPT\n"
            "-A FORWARD -s 10.9.0.0/16 -j ACCEPT\n"
        )
        code = main(["lint", str(config), "--dialect", "iptables"])
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert ":3:" in out, "finding should cite the shadowed rule's dump line"


class TestErrors:
    def test_closed_stdout_pipe_exits_quietly(self, tmp_path):
        from repro.synth import generate_firewall_pair

        paths = [tmp_path / "a.fw", tmp_path / "b.fw"]
        for firewall, path in zip(generate_firewall_pair(60, seed=5), paths):
            dump(firewall, path, schema_key="standard")
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        # The raw cells (~0.5 MB) overflow the pipe buffer, so the
        # command is still writing when the reader goes away.
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "compare", "--raw", *map(str, paths)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert b"discrepancy region(s)" in proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert err == b""

    def test_missing_file_exits_2(self, capsys):
        code = main(["show", "/nonexistent/path.fw"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_parse_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.fw"
        bad.write_text("firewall schema=standard\nnot a rule\n")
        assert main(["show", str(bad)]) == 2

    def test_no_command_raises_system_exit(self):
        with pytest.raises(SystemExit):
            main([])
