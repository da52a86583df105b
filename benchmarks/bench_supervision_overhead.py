"""Supervision overhead — supervised pool vs bare pool, fault-free.

The supervised worker pool (``repro.parallel.supervisor``) adds
per-shard deadlines, heartbeat threads, retry bookkeeping, and
checksummed result envelopes around every process fan-out.  All of that
lives off the comparison hot path — on the parent's event loop and the
workers' heartbeat threads — so the design target is <2% overhead when
no fault fires (see the supervision section of ``docs/performance.md``).

This benchmark measures the supervised engine against the bare pool
(``supervised=False``) on the Fig. 13 workload at ``jobs=4``, and
against itself at ``jobs=1`` (which runs serially in process on both
paths — the supervisor must never engage), asserting byte-identical summaries and
zero degradations.  Timings are best-of-N over calibrated samples; the
archived report carries the measured numbers.
"""

from __future__ import annotations

from dataclasses import asdict

from repro.bench import (
    banner,
    bench_scale,
    render_table,
    supervision_overhead_experiment,
)
from repro.parallel import compare_parallel
from repro.synth import generate_firewall_pair


def test_bench_supervision_overhead(benchmark, report_saver, json_saver):
    rows = supervision_overhead_experiment()

    for row in rows:
        assert row.identical_output, f"supervised output diverged on {row.workload}"
        assert row.degradations == 0, f"{row.workload} degraded — not a fault-free run"
        assert row.overhead_pct < 2.0, (
            f"supervision overhead {row.overhead_pct:.2f}% on {row.workload} "
            "exceeds the 2% fault-free target"
        )

    json_saver(
        "supervision_overhead",
        [{"key": row.workload, **asdict(row)} for row in rows],
        meta={"seed": 13, "engine": "repro.parallel supervised vs bare pool"},
    )
    table = render_table(
        ["workload", "jobs", "bare (ms)", "supervised (ms)", "overhead (%)"],
        [
            (
                row.workload,
                row.jobs,
                f"{row.bare_ms:.2f}",
                f"{row.supervised_ms:.2f}",
                f"{row.overhead_pct:+.2f}",
            )
            for row in rows
        ],
    )
    report = "\n".join(
        [
            banner(
                "Supervision overhead: supervised pool vs bare pool, fault-free",
                "target <2%; summaries asserted identical, zero degradations",
            ),
            table,
        ]
    )
    report_saver("supervision_overhead", report)

    size = 200 if bench_scale() == "paper" else 60
    fw_a, fw_b = generate_firewall_pair(size, seed=13)
    benchmark.pedantic(
        lambda: compare_parallel(fw_a, fw_b, jobs=4),
        rounds=3 if bench_scale() == "paper" else 1,
        iterations=1,
    )
