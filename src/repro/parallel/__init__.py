"""Sharded parallel comparison engine (perf layer over :mod:`repro.fdd.fast`).

Partitions the comparison product walk by the root field's edge
partition and fans the shards out across worker processes; per-shard
results merge exactly (disputed counts and per-decision-pair volumes
are identical to the serial engine's).  See :mod:`repro.parallel.engine`
for the merge argument and guard-budget propagation rules, and
``docs/performance.md`` for measured numbers.

Process fan-out is crash-resilient, and there is one dispatch path:
every task that reaches a worker goes through :func:`supervise`
(per-shard deadlines, heartbeat hang detection, bounded retry with
backoff, checksummed result envelopes), and a shard whose retries are
exhausted degrades to serial in-parent execution, recorded as a
:class:`Degradation` — see ``docs/robustness.md`` for the state machine.

Workers live in a persistent, lazily-started pool
(:mod:`repro.parallel.pool`) shared by every fan-out in the process —
comparison pieces and shards lease from the same :class:`WorkerPool`
through the supervisor, amortizing process start cost across calls.  Large shared inputs (a
comparison's node-graph snapshot) are published to the pool once per
call and shipped to each worker at most once, via shared
memory when the platform provides it.  :func:`shutdown_pools` tears the workers down
gracefully (the CLI calls it on exit); :func:`get_pool` exposes the
pool for stats and warm-up.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.parallel.engine": (
            "ParallelComparison",
            "ShardResult",
            "compare_parallel",
            "compare_sharded",
            "comparison_summary",
            "default_jobs",
            "plan_shards",
            "restrict_to_shard",
        ),
        "repro.parallel.pool": ("WorkerPool", "get_pool", "shutdown_pools"),
        "repro.parallel.supervisor": (
            "Degradation",
            "ShardFailure",
            "SupervisorConfig",
            "supervise",
        ),
    },
)
