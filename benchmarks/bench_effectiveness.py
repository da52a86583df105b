"""Section 8.1 — the effectiveness experiment, re-enacted with ground truth.

The paper compared a mis-maintained 87-rule university firewall against a
student's redesign: 84 discrepancies, 82 the original's fault (72 caused
by incorrect rule ordering — mostly rules carelessly added at the top —
and 10 by missing rules) and 2 the redesign's.  The policy is
confidential, so the harness re-enacts the setup as a controlled
experiment (see :func:`repro.bench.harness.effectiveness_experiment`):
inject known ordering/missing/misreading errors into a documented 87-rule
campus policy and check the comparator surfaces and correctly attributes
every one.

Expected shape: discrepancy regions overwhelmingly blamed on the original
(the paper's 82:2 ratio), with a small redesign-fault remainder.
"""

from __future__ import annotations

from conftest import bench_rounds

from repro.bench import banner, bench_scale, effectiveness_experiment, render_table
from repro.fdd import compare_fast
from repro.synth import campus_87, perturb


def test_bench_effectiveness(benchmark, report_saver):
    if bench_scale() == "paper":
        result = effectiveness_experiment(
            seed=81, ordering_errors=7, missing_rules=3, redesign_errors=2
        )
    else:
        result = effectiveness_experiment(
            seed=81, ordering_errors=3, missing_rules=1, redesign_errors=1
        )
    table = render_table(
        ["metric", "value"],
        [
            ("original firewall rules", result.original_rules),
            ("redesign rules", result.redesign_rules),
            ("ordering errors injected", result.ordering_errors_injected),
            ("missing-rule errors injected", result.missing_rules_injected),
            ("redesign errors injected", result.redesign_errors_injected),
            ("discrepancy regions found", result.discrepancies_found),
            ("regions where original wrong", result.original_wrong),
            ("regions where redesign wrong", result.redesign_wrong),
            ("regions where both wrong", result.both_wrong),
            ("all injected errors surfaced", result.all_errors_surfaced),
        ],
    )
    report = "\n".join(
        [
            banner(
                "Section 8.1 effectiveness experiment (re-enacted, seed=81)",
                "paper: 84 discrepancies; 82 original-wrong (72 ordering, 10 missing), 2 redesign-wrong",
                "shape check: original-wrong must dominate redesign-wrong",
            ),
            table,
        ]
    )
    report_saver("effectiveness_sec81", report)
    assert result.all_errors_surfaced
    assert result.original_wrong > result.redesign_wrong

    # Time the check the experiment runs on every candidate edit: the
    # store-engine comparison and its short-circuiting disagreement test.
    firewall = campus_87()
    perturbed, _ = perturb(firewall, 0.1, seed=8181)
    benchmark.pedantic(
        lambda: compare_fast(firewall, perturbed).has_discrepancy(),
        rounds=bench_rounds(3),
        iterations=1,
    )
