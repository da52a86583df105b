"""Shared helpers for the benchmark harness in ``benchmarks/``."""

from repro.bench.harness import (
    EffectivenessResult,
    Fig12Row,
    Fig13Row,
    Fig13ParallelRow,
    GuardOverheadRow,
    bench_scale,
    effectiveness_experiment,
    fig12_experiment,
    fig13_experiment,
    fig13_parallel_experiment,
    guard_overhead_experiment,
)
from repro.bench.reporting import banner, render_series, render_table
from repro.bench.trajectory import (
    Regression,
    compare_trajectories,
    load_trajectory,
    machine_fingerprint,
    trajectory_payload,
    write_trajectory,
)
from repro.bench.timing import (
    FastTimings,
    PhaseTimings,
    timed_comparison,
    timed_fast_comparison,
)

__all__ = [
    "EffectivenessResult",
    "FastTimings",
    "Fig12Row",
    "Fig13Row",
    "Fig13ParallelRow",
    "GuardOverheadRow",
    "PhaseTimings",
    "Regression",
    "banner",
    "bench_scale",
    "compare_trajectories",
    "effectiveness_experiment",
    "fig12_experiment",
    "fig13_experiment",
    "fig13_parallel_experiment",
    "guard_overhead_experiment",
    "load_trajectory",
    "machine_fingerprint",
    "render_series",
    "render_table",
    "timed_comparison",
    "timed_fast_comparison",
    "trajectory_payload",
    "write_trajectory",
]
