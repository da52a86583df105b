"""Seeded chaos scenarios for the supervised parallel engine.

Each scenario injects one class of fault into a supervised
:func:`repro.parallel.compare_parallel` run — a worker SIGKILLed
mid-shard, a worker frozen past its heartbeat timeout, a shard running
past its deadline, a corrupted result envelope, an exception at an
armed guard site, and a kill storm that exhausts every retry — and then
checks the contract the supervisor promises:

* **parity** — the merged report's canonical JSON is *byte-identical*
  to the serial baseline (:func:`repro.fdd.fast.compare_fast` through
  :func:`repro.parallel.comparison_summary`), fault or no fault;
* **engagement** — the fault actually happened (at least one recorded
  :class:`~repro.parallel.ShardFailure`), so a green run can't be a
  scenario that silently missed;
* **degradation** — scenarios that exhaust retries must surface a
  :class:`~repro.parallel.Degradation`; single-fault scenarios must
  recover by retry alone.

Everything is deterministic: policies come from a seeded generator,
fault placement from :class:`~repro.chaos.ChaosPlan`, and backoff jitter
from the supervisor's own seeded RNG — the same seed reproduces the
same failures and the same report.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field

from repro.chaos.actions import ChaosAction, ChaosPlan
from repro.fdd.fast import compare_fast
from repro.fields.schema import toy_schema
from repro.intervals.intervalset import IntervalSet
from repro.parallel.engine import compare_parallel, comparison_summary
from repro.parallel.supervisor import SupervisorConfig
from repro.policy.decision import ACCEPT, DISCARD
from repro.policy.firewall import Firewall
from repro.policy.predicate import Predicate
from repro.policy.rule import Rule

__all__ = [
    "ChaosScenario",
    "scenario_catalogue",
    "run_scenario",
    "run_suite",
]

#: Schema used by the scenario policies (three small fields).
SCHEMA = toy_schema(29, 9, 9)

#: Supervision used by retry-recoverable scenarios: generous liveness
#: thresholds (no false hangs on a loaded box), near-instant backoff.
_FAST_RETRY = SupervisorConfig(
    max_retries=2, backoff_base_s=0.01, heartbeat_interval_s=0.05
)

#: Supervision for the liveness scenarios: tight hang/deadline windows
#: (the faulted attempt sleeps 60s, so detection is never racy).
_TIGHT_LIVENESS = SupervisorConfig(
    max_retries=2,
    backoff_base_s=0.01,
    heartbeat_interval_s=0.05,
    heartbeat_timeout_s=1.0,
    shard_deadline_s=5.0,
)


@dataclass(frozen=True)
class ChaosScenario:
    """One named, fully-determined fault scenario."""

    name: str
    description: str
    #: ``(shard_index, attempt) -> ChaosAction`` fault placement.
    actions: dict[tuple[int, int], ChaosAction] = field(hash=False)
    config: SupervisorConfig = _FAST_RETRY
    #: Whether the scenario must end in a recorded degradation.
    expect_degraded: bool = False


def scenario_catalogue() -> list[ChaosScenario]:
    """The built-in scenarios, one per supervised failure class."""
    return [
        ChaosScenario(
            name="worker-kill",
            description=(
                "SIGKILL the worker mid-shard (between guard visits);"
                " the retry completes the shard"
            ),
            actions={(0, 0): ChaosAction("kill")},
        ),
        ChaosScenario(
            name="worker-hang",
            description=(
                "freeze the worker with its heartbeat silenced; the"
                " stale heartbeat gets it killed and the retry recovers"
            ),
            actions={(0, 0): ChaosAction("hang", stop_heartbeat=True)},
            config=_TIGHT_LIVENESS,
        ),
        ChaosScenario(
            name="shard-deadline",
            description=(
                "stall the worker with its heartbeat still beating;"
                " only the per-shard deadline catches it"
            ),
            actions={(0, 0): ChaosAction("hang", stop_heartbeat=False)},
            config=SupervisorConfig(
                max_retries=2,
                backoff_base_s=0.01,
                heartbeat_interval_s=0.05,
                heartbeat_timeout_s=30.0,
                shard_deadline_s=1.0,
            ),
        ),
        ChaosScenario(
            name="corrupt-result",
            description=(
                "flip one byte of the pickled result after checksumming;"
                " the envelope check rejects it and the retry recovers"
            ),
            actions={(0, 0): ChaosAction("corrupt", corrupt_seed=7)},
        ),
        ChaosScenario(
            name="worker-raise",
            description=(
                "raise FaultInjectedError at an armed guard site inside"
                " the worker; treated as retryable and recovered"
            ),
            actions={(0, 0): ChaosAction("raise")},
        ),
        ChaosScenario(
            name="kill-exhaust",
            description=(
                "SIGKILL every dispatch of shard 0 until retries are"
                " exhausted; the shard degrades to serial in-parent"
                " execution and the report says so"
            ),
            actions={
                (0, 0): ChaosAction("kill"),
                (0, 1): ChaosAction("kill"),
                (0, 2): ChaosAction("kill"),
            },
            expect_degraded=True,
        ),
    ]


def make_firewall(seed: int, n_rules: int = 10, schema=SCHEMA) -> Firewall:
    """Deterministic random comprehensive firewall for scenarios."""
    rng = random.Random(seed)
    rules = []
    for _ in range(n_rules - 1):
        sets = []
        for fld in schema:
            hi_max = fld.domain.hi
            lo = rng.randint(0, hi_max)
            sets.append(IntervalSet.span(lo, rng.randint(lo, hi_max)))
        rules.append(
            Rule(Predicate(schema, tuple(sets)), rng.choice([ACCEPT, DISCARD]))
        )
    rules.append(
        Rule(
            Predicate(schema, tuple(f.domain_set for f in schema)),
            rng.choice([ACCEPT, DISCARD]),
        )
    )
    return Firewall(schema, rules)


def _canonical(summary: dict) -> str:
    return json.dumps(summary, sort_keys=True)


def run_scenario(
    scenario: ChaosScenario,
    *,
    jobs: int = 2,
    seed: int = 29,
    n_rules: int = 10,
    start_method: str | None = None,
) -> dict:
    """Run one scenario; return its JSON-safe verdict record.

    ``passed`` requires byte-identical parity with the serial baseline,
    at least one observed shard failure (the fault engaged), and — for
    ``expect_degraded`` scenarios — a recorded degradation.
    """
    fw_a = make_firewall(seed, n_rules)
    fw_b = make_firewall(seed + 1, n_rules)
    baseline = _canonical(comparison_summary(compare_fast(fw_a, fw_b)))
    start = time.perf_counter()
    result = compare_parallel(
        fw_a,
        fw_b,
        jobs=jobs,
        start_method=start_method,
        supervision=scenario.config,
        chaos=ChaosPlan(scenario.actions),
    )
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    parity = _canonical(result.summary()) == baseline
    engaged = len(result.failures) >= 1
    degraded_ok = bool(result.degradations) if scenario.expect_degraded else True
    return {
        "scenario": scenario.name,
        "description": scenario.description,
        "passed": bool(parity and engaged and degraded_ok),
        "parity": parity,
        "engaged": engaged,
        "expect_degraded": scenario.expect_degraded,
        "failures": [
            {
                "shard": item.shard_index,
                "attempt": item.attempt,
                "reason": item.reason,
                "detail": item.detail,
            }
            for item in result.failures
        ],
        "degradations": result.degradation_report(),
        "summary": result.summary(),
        "elapsed_ms": round(elapsed_ms, 3),
    }


def run_suite(
    names: list[str] | None = None,
    *,
    jobs: int = 2,
    seed: int = 29,
    n_rules: int = 10,
    start_method: str | None = None,
) -> dict:
    """Run the catalogue (or a named subset); return the suite report."""
    catalogue = {scenario.name: scenario for scenario in scenario_catalogue()}
    if names:
        unknown = [name for name in names if name not in catalogue]
        if unknown:
            raise ValueError(
                f"unknown chaos scenario(s): {', '.join(sorted(unknown))}"
                f" (available: {', '.join(catalogue)})"
            )
        selected = [catalogue[name] for name in names]
    else:
        selected = list(catalogue.values())
    results = [
        run_scenario(
            scenario,
            jobs=jobs,
            seed=seed,
            n_rules=n_rules,
            start_method=start_method,
        )
        for scenario in selected
    ]
    return {
        "jobs": jobs,
        "seed": seed,
        "rules": n_rules,
        "start_method": start_method,
        "passed": all(item["passed"] for item in results),
        "scenarios": results,
    }
