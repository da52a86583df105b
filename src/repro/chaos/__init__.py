"""Cross-process chaos harness for the supervised parallel engine.

Promotes :class:`repro.guard.FaultInjector` from an in-process test hook
into a harness that injects faults *across the process boundary*:
deterministic seeded scenarios SIGKILL workers mid-shard, freeze them
past their heartbeat timeout, stall them past their shard deadline,
raise at armed guard sites inside workers, and corrupt pickled results
in transit — and every scenario asserts the supervised engine's merged
report stays byte-identical to the serial baseline.

Run it from the CLI (``python -m repro chaos --jobs 2``; CI runs this as
the ``chaos-smoke`` job) or from tests via :func:`run_scenario` /
:func:`run_suite`.  See ``docs/robustness.md`` for the supervision state
machine each scenario exercises.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.chaos.actions": ("ChaosAction", "ChaosPlan", "prepare_task"),
        "repro.chaos.scenarios": (
            "ChaosScenario",
            "make_firewall",
            "run_scenario",
            "run_suite",
            "scenario_catalogue",
        ),
    },
)
