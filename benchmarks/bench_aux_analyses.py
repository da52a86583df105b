"""Auxiliary-analysis benchmarks: redundancy removal, N-team comparison.

Not paper figures, but the costs behind Section 6 (Method 2 runs
redundancy removal) and Section 7.3 (N > 2 teams: cross comparison's
N(N-1)/2 product walks vs direct comparison's one N-way walk).
"""

from __future__ import annotations

import time

from conftest import bench_rounds

from repro.analysis import (
    cross_compare,
    direct_compare,
    find_upward_redundant,
    remove_redundant_rules,
)
from repro.bench import banner, bench_scale, render_table
from repro.synth import SyntheticFirewallGenerator, campus_87, perturb


def test_bench_redundancy_removal(benchmark, report_saver):
    sizes = (20, 40, 80) if bench_scale() == "paper" else (20,)
    rows = []
    for size in sizes:
        firewall = SyntheticFirewallGenerator(seed=size).generate(size)
        start = time.perf_counter()
        upward = find_upward_redundant(firewall)
        upward_ms = (time.perf_counter() - start) * 1000
        start = time.perf_counter()
        slim = remove_redundant_rules(firewall)
        complete_ms = (time.perf_counter() - start) * 1000
        rows.append(
            (size, len(upward), size - len(slim), upward_ms, complete_ms)
        )
    report = "\n".join(
        [
            banner(
                "Redundancy analysis cost ([19]; used by resolution Method 2)",
                "upward = symbolic unreachability; complete = greedy prefix/suffix-walk removal",
            ),
            render_table(
                [
                    "rules",
                    "upward redundant",
                    "removed (complete)",
                    "upward (ms)",
                    "complete (ms)",
                ],
                rows,
            ),
        ]
    )
    report_saver("aux_redundancy", report)
    firewall = SyntheticFirewallGenerator(seed=20).generate(20)
    benchmark.pedantic(
        lambda: find_upward_redundant(firewall),
        rounds=bench_rounds(5),
        iterations=1,
    )


def test_bench_multiteam_comparison(benchmark, report_saver):
    """Cross vs direct comparison for N teams (Section 7.3)."""
    team_counts = (2, 3, 4) if bench_scale() == "paper" else (2, 3)
    base = campus_87()
    rows = []
    for n_teams in team_counts:
        versions = [base]
        for i in range(n_teams - 1):
            perturbed, _ = perturb(base, 0.1, seed=100 + i)
            versions.append(perturbed)
        start = time.perf_counter()
        pairwise = cross_compare(versions)
        cross_ms = (time.perf_counter() - start) * 1000
        start = time.perf_counter()
        regions = direct_compare(versions)
        direct_ms = (time.perf_counter() - start) * 1000
        rows.append(
            (
                n_teams,
                sum(len(d) for d in pairwise.values()),
                len(regions),
                cross_ms,
                direct_ms,
            )
        )
    report = "\n".join(
        [
            banner(
                "Section 7.3: cross vs direct comparison of N versions",
                "base: campus-87; versions: 10% perturbations of the base",
            ),
            render_table(
                [
                    "teams",
                    "pairwise cells",
                    "direct regions",
                    "cross (ms)",
                    "direct (ms)",
                ],
                rows,
            ),
        ]
    )
    report_saver("aux_multiteam", report)
    versions = [base, perturb(base, 0.1, seed=100)[0]]
    benchmark.pedantic(
        lambda: direct_compare(versions),
        rounds=bench_rounds(3),
        iterations=1,
    )
