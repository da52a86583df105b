"""Shared helpers for the benchmark harness in ``benchmarks/``."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.bench.harness": (
            "EffectivenessResult",
            "Fig12Row",
            "Fig13Row",
            "Fig13ParallelRow",
            "GuardOverheadRow",
            "bench_scale",
            "effectiveness_experiment",
            "fig12_experiment",
            "fig13_experiment",
            "fig13_parallel_experiment",
            "guard_overhead_experiment",
        ),
        "repro.bench.reporting": ("banner", "render_series", "render_table"),
        "repro.bench.trajectory": (
            "Regression",
            "compare_trajectories",
            "load_trajectory",
            "machine_fingerprint",
            "trajectory_payload",
            "write_trajectory",
        ),
        "repro.bench.timing": (
            "FastTimings",
            "PhaseTimings",
            "timed_comparison",
            "timed_fast_comparison",
        ),
    },
)
