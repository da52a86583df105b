"""Byte-level pins of the design-diff commands on one seeded 300-rule pair.

``compare``, ``impact`` and ``query --batch`` are what a team comparing
two independently designed policies runs.  Their stdout is pinned here so
a change to packet ingest, batch routing or label rendering cannot alter
a byte of what they print: ``compare``/``impact`` by SHA-256 of stdout,
``query --batch`` literally with its timings masked, and every packet
parse error with its message and line number.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re

import pytest

from repro.addr import int_to_ip
from repro.cli import main
from repro.policy import dump
from repro.synth import BoundaryTraceGenerator, generate_firewall_pair

SEED = 1
RULES = 300
PACKETS = 3000


@pytest.fixture(scope="module")
def pair(tmp_path_factory):
    root = tmp_path_factory.mktemp("design-diff")
    fw_a, fw_b = generate_firewall_pair(RULES, seed=SEED)
    dump(fw_a, root / "a.fw", schema_key="standard")
    dump(fw_b, root / "b.fw", schema_key="standard")
    return root, fw_a


def _packet_lines(firewall) -> list[str]:
    """Boundary packets written the ways a hand-made packet file mixes:
    service and protocol names, commas, ``#`` comments, blank lines."""
    lines = ["# src_ip dst_ip src_port dst_port protocol"]
    for i, (src, dst, sport, dport, proto) in enumerate(
        BoundaryTraceGenerator(firewall, seed=SEED).packets(PACKETS)
    ):
        dport_text = "smtp" if i % 5 == 0 else str(dport)
        proto_text = {0: "tcp", 1: "udp"}.get(i % 3, str(proto))
        values = [int_to_ip(src), int_to_ip(dst), str(sport), dport_text, proto_text]
        line = (", " if i % 4 == 0 else " ").join(values)
        if i % 7 == 0:
            line += "  # boundary draw"
        if i % 11 == 0:
            lines.append("")
        lines.append(line)
    return lines


def _run(argv: list[str], cwd) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(here)
    return code, out.getvalue(), err.getvalue()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


COMPARE_SHA256 = "decc23a679a3090382d63a78de36d2c6c0c801b0972350082bab52078faf113d"
IMPACT_SHA256 = "c89351b271319f0e3daade0dc7d7739ccd32b0c1680dd2caa99857a2898075f7"


class TestComparisonStdout:
    def test_compare(self, pair):
        code, out, _ = _run(["compare", "a.fw", "b.fw"], pair[0])
        assert code == 1
        assert out.startswith("421 functional discrepancy region(s)")
        assert _sha256(out) == COMPARE_SHA256

    def test_impact(self, pair):
        code, out, _ = _run(["impact", "a.fw", "b.fw"], pair[0])
        assert code == 1
        assert _sha256(out) == IMPACT_SHA256

    @pytest.mark.parametrize(
        "command, digest", [("compare", COMPARE_SHA256), ("impact", IMPACT_SHA256)]
    )
    def test_jobs_2_prints_the_serial_bytes(self, pair, command, digest):
        # The pair builds below FANOUT_MIN_VISITS, so --jobs 2 stays serial.
        code, out, _ = _run([command, "--jobs", "2", "a.fw", "b.fw"], pair[0])
        assert code == 1
        assert _sha256(out) == digest


class TestQueryBatchStdout:
    @pytest.fixture(scope="class")
    def packet_file(self, pair):
        root, fw_a = pair
        path = root / "packets.txt"
        path.write_text("\n".join(_packet_lines(fw_a)) + "\n", encoding="utf-8")
        return path.name

    def test_text(self, pair, packet_file):
        code, out, _ = _run(["query", "a.fw", "--batch", packet_file], pair[0])
        assert code == 0
        masked = re.sub(r"in [0-9.]+ ms \([0-9.]+ us/lookup\)", "in X ms (X us/lookup)", out)
        assert masked == (
            "classified 3000 packet(s) in X ms (X us/lookup)\n"
            "  accept         169\n"
            "  discard        2831\n"
            "matcher: 98 node(s), 753 segment(s), 13036 B\n"
        )

    def test_json(self, pair, packet_file):
        code, out, _ = _run(
            ["query", "a.fw", "--batch", packet_file, "--format", "json"], pair[0]
        )
        assert code == 0
        summary = json.loads(out)
        assert list(summary) == sorted(summary)
        assert summary.pop("elapsed_ms") >= 0 and summary.pop("per_lookup_us") >= 0
        assert summary == {
            "packets": 3000,
            "counts": {"accept": 169, "discard": 2831},
            "matcher": {
                "decisions": 2,
                "fields": 5,
                "nodes": 98,
                "segments": 753,
                "size_bytes": 13036,
            },
        }


GOOD = "10.0.0.1 192.168.0.1 1024 25 6"

#: (bad line, stderr) — the bad line is line 4, after a comment, a blank
#: line and one good packet.
PARSE_ERRORS = [
    ("10.0.0.1 192.168.0.1 1024 25", "line 4: expected 5 field value(s), got 4"),
    (
        "10.0.0.1 192.168.0.1 1024-2048 25 6",
        "line 4: src_port: '1024-2048' names 1025 values, need exactly one",
    ),
    (
        "10.0.0.0/31 192.168.0.1 1024 25 6",
        "line 4: src_ip: '10.0.0.0/31' names 2 values, need exactly one",
    ),
    (
        "10.0.0.1 any 1024 25 6",
        "line 4: dst_ip: 'any' names 4294967296 values, need exactly one",
    ),
    (
        "10.0.0.01 192.168.0.1 1024 25 6",
        "line 4: src_ip: invalid IPv4 address '10.0.0.01': octet '01' has a leading zero",
    ),
    (
        "256.0.0.1 192.168.0.1 1024 25 6",
        "line 4: src_ip: invalid IPv4 address '256.0.0.1': octet 256 > 255",
    ),
    (
        "167772161 192.168.0.1 1024 25 6",
        "line 4: src_ip: invalid IPv4 address '167772161': expected 4 octets",
    ),
    ("10.0.0.1 192.168.0.1 70000 25 6", "line 4: src_port: port 70000 exceeds 65535"),
    (
        "10.0.0.1 192.168.0.1 1024 25 300",
        "line 4: protocol: protocol number 300 exceeds 255",
    ),
    (
        "10.0.0.1 192.168.0.1 1024 nosuchsvc 6",
        "line 4: dst_port: unknown port or service 'nosuchsvc'",
    ),
    ("10.0.0.1 192.168.0.1 -5 25 6", "line 4: src_port: unknown port or service ''"),
    (
        "10.0.0.1 192.168.0.1 1024 ２ 6",
        "line 4: dst_port: unknown port or service '２'",
    ),
    (
        "10.0.0.1 192.168.0.1 1_000 25 6",
        "line 4: src_port: unknown port or service '1_000'",
    ),
    (
        "10.0.0.1 192.168.0.1 1024 25 all",
        "line 4: protocol: 'all' names 256 values, need exactly one",
    ),
]


@pytest.mark.parametrize("line, message", PARSE_ERRORS)
def test_parse_error_and_line_number(pair, line, message):
    root = pair[0]
    (root / "bad.txt").write_text(f"# header\n\n{GOOD}\n{line}\n", encoding="utf-8")
    code, out, err = _run(["query", "a.fw", "--batch", "bad.txt"], root)
    assert (code, out, err) == (2, "", f"error: {message}\n")
