"""Sharded parallel comparison engine (perf layer over :mod:`repro.fdd.fast`).

Partitions the comparison product walk by the root field's edge
partition and fans the shards out across worker processes; per-shard
results merge exactly (disputed counts and per-decision-pair volumes
are identical to the serial engine's).  :func:`compare_many` runs the
Section 7.3 cross comparison of ``t`` team versions concurrently, one
pair per task.  See :mod:`repro.parallel.engine` for the merge argument
and guard-budget propagation rules, and ``docs/performance.md`` for
measured numbers.

Process fan-out is crash-resilient, and there is one dispatch path:
every task that reaches a worker goes through :func:`supervise`
(per-shard deadlines, heartbeat hang detection, bounded retry with
backoff, checksummed result envelopes), and a shard whose retries are
exhausted degrades to serial in-parent execution, recorded as a
:class:`Degradation` — see ``docs/robustness.md`` for the state machine.

Workers live in a persistent, lazily-started pool
(:mod:`repro.parallel.pool`) shared by every fan-out in the process —
comparison shards, ``compare_many`` pairs, audit fleets, and batch
classification all lease from the same :class:`WorkerPool` through the
supervisor, amortizing process start cost across calls.  Large shared
inputs (node-graph snapshots, compiled matchers) are published to the
pool once per call and shipped to each worker at most once, via shared
memory when the platform provides it.  :func:`shutdown_pools` tears the workers down
gracefully (the CLI calls it on exit); :func:`get_pool` exposes the
pool for stats and warm-up.

:func:`classify_parallel` reuses the same supervised fan-out for
serving-side batch classification: workers receive a published
compiled matcher snapshot (:mod:`repro.classify`), never policy
sources.
"""

from repro.parallel.classify import classify_parallel
from repro.parallel.engine import (
    PairComparison,
    ParallelComparison,
    ShardResult,
    compare_many,
    compare_parallel,
    compare_sharded,
    comparison_summary,
    default_jobs,
    plan_shards,
    restrict_to_shard,
)
from repro.parallel.pool import WorkerPool, get_pool, shutdown_pools
from repro.parallel.supervisor import (
    Degradation,
    ShardFailure,
    SupervisorConfig,
    supervise,
)

__all__ = [
    "Degradation",
    "PairComparison",
    "ParallelComparison",
    "ShardFailure",
    "ShardResult",
    "SupervisorConfig",
    "WorkerPool",
    "classify_parallel",
    "compare_many",
    "compare_parallel",
    "compare_sharded",
    "comparison_summary",
    "default_jobs",
    "get_pool",
    "plan_shards",
    "restrict_to_shard",
    "shutdown_pools",
    "supervise",
]
