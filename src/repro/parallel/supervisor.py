"""Supervised worker pools: crash-resilient parallel execution.

:func:`supervise` is the only way work reaches a pool worker — comparison
shards, ``compare_many`` pairs, audit fleets and batch classification
all dispatch through it.  A worker that is SIGKILLed mid-shard, hangs,
or returns a result corrupted in transit must not lose or falsify that
shard, so dispatch is **supervised** — every dispatched shard reaches
exactly one of two terminal states,
*completed* (an integrity-checked result merged into the report) or
*degraded* (re-executed serially in the parent, recorded and visible),
no matter what the worker process does in between.

Per shard task, the supervisor runs this state machine::

    PENDING ──dispatch──▶ RUNNING ──result ok──▶ COMPLETED
       ▲                    │
       │   backoff+jitter   │ worker-crash / worker-hang /
       └────── RETRY ◀──────┤ shard-deadline / corrupt-result /
                            │ worker-error
                            └─(retries exhausted)─▶ DEGRADED
                                (in-process serial fallback under the
                                 remaining guard budget)

Failure detection, in order of precedence:

* **worker-crash** — the worker process died (its pipe hit EOF or the
  process is no longer alive) while it owned a shard.  SIGKILL, OOM
  kills, and interpreter aborts all land here.
* **worker-hang** — the worker's heartbeat (a counter its background
  thread sends every ``heartbeat_interval_s`` while a task executes)
  went stale for longer than ``heartbeat_timeout_s`` while it owned a
  shard.  Catches frozen processes (SIGSTOP, deadlocked C code) that
  are alive but not moving.
* **shard-deadline** — the shard exceeded ``shard_deadline_s`` of
  wall-clock since dispatch.  Catches computations that progress too
  slowly to ever finish (the heartbeat still beats, so only the
  deadline sees them).
* **corrupt-result** — the result envelope failed its checksum: every
  worker reply carries the SHA-256 of its pickled payload, computed
  *before* the bytes cross the pipe, so bit-rot (or an injected
  corruption from :mod:`repro.chaos`) is detected instead of merged.
* **worker-error** — the worker raised.  Budget and cancellation errors
  (:class:`~repro.exceptions.BudgetExceededError`,
  :class:`~repro.exceptions.CancelledError`) are **fatal**: they mean
  the *aggregate* run is over-budget and must stop, so they terminate
  the remaining workers and re-raise.  Everything else is retried like
  a crash — a deterministic error simply exhausts its retries and
  surfaces from the serial fallback.

Retries are bounded (``max_retries``) with exponential backoff and
deterministic jitter (seeded per shard/attempt, so runs are
reproducible); a retried shard is re-dispatched to any surviving worker,
and dead workers are replaced to keep the pool at strength.  Every
dispatch refreshes the shard's budget to the parent guard's *remaining*
headroom, and every completed result is re-ticked against the parent
immediately, so no sequence of retries can outspend the caller's
original budget (see ``docs/robustness.md``).

Workers come from the process-wide **persistent pool**
(:func:`repro.parallel.pool.get_pool`): ``supervise`` leases workers for
the duration of one run, ships any snapshots its tasks reference
(``task.snapshot_ids``) to each worker at most once, and on exit
releases healthy idle workers back for the next comparison.  Only
workers that are dead, hung, or still mid-task on an error path are
killed — a busy worker's late reply must never leak into a later run.
"""

from __future__ import annotations

import pickle
import random
import time
from collections import deque
from dataclasses import dataclass

from repro.exceptions import BudgetExceededError, CancelledError
from repro.guard.context import GuardContext
from repro.parallel.pool import PoolWorker, WorkerPool, _checksum, get_pool

__all__ = [
    "SupervisorConfig",
    "Degradation",
    "ShardFailure",
    "supervise",
]

#: Errors that abort the whole supervised run instead of retrying one
#: shard: both mean the *aggregate* budget/cancellation state is final.
_FATAL_ERRORS = (BudgetExceededError, CancelledError)

#: Parent poll granularity while waiting on worker pipes, seconds.
_POLL_S = 0.02


@dataclass(frozen=True)
class SupervisorConfig:
    """Tuning knobs for a supervised pool; the defaults suit production.

    ``max_retries`` bounds re-dispatches per shard (attempt 0 plus up to
    ``max_retries`` retries); after that the shard degrades to the
    in-process serial fallback.  Backoff before retry ``k`` (1-based) is
    ``backoff_base_s * backoff_factor**k``, stretched by a deterministic
    jitter in ``[0, backoff_jitter]`` seeded from
    ``(seed, shard, attempt)`` — reproducible, but de-synchronized.
    ``heartbeat_timeout_s`` / ``shard_deadline_s`` of ``None`` disable
    hang / deadline detection respectively.
    """

    #: Re-dispatches allowed per shard before degrading.
    max_retries: int = 2
    #: Base backoff before the first retry, seconds.
    backoff_base_s: float = 0.05
    #: Multiplier applied per further retry.
    backoff_factor: float = 2.0
    #: Maximum relative jitter stretched onto each backoff (0 disables).
    backoff_jitter: float = 0.5
    #: Per-shard wall-clock deadline from dispatch, or ``None``.
    shard_deadline_s: float | None = None
    #: How often workers send heartbeats.
    heartbeat_interval_s: float = 0.1
    #: Stale-heartbeat threshold that declares a busy worker hung.
    heartbeat_timeout_s: float | None = 5.0
    #: Seed for the deterministic backoff jitter.
    seed: int = 0

    def backoff_s(self, shard_index: int, attempt: int) -> float:
        """Backoff before dispatching ``attempt`` of ``shard_index``."""
        base = self.backoff_base_s * self.backoff_factor ** max(0, attempt - 1)
        rng = random.Random(
            self.seed * 1_000_003 + shard_index * 1_009 + attempt
        )
        return base * (1.0 + self.backoff_jitter * rng.random())


@dataclass(frozen=True)
class ShardFailure:
    """One failed dispatch attempt, as observed by the supervisor."""

    shard_index: int
    #: 0-based attempt that failed (0 = the original dispatch).
    attempt: int
    #: ``worker-crash`` | ``worker-hang`` | ``shard-deadline`` |
    #: ``corrupt-result`` | ``worker-error``.
    reason: str
    detail: str = ""


@dataclass(frozen=True)
class Degradation:
    """A shard that exhausted its retries and fell back to serial.

    The fallback re-executed the shard *in the parent process* under the
    guard budget remaining at that moment, so the merged result is still
    exact — the degradation records that the parallel path gave up, not
    that any answer is missing.
    """

    shard_index: int
    #: Reason of the final failed attempt (see :class:`ShardFailure`).
    reason: str
    #: Failed dispatch attempts before the fallback (``max_retries + 1``).
    retries: int
    detail: str = ""

    def describe(self) -> str:
        return (
            f"shard {self.shard_index}: {self.reason}"
            f" after {self.retries} attempt(s)"
            + (f" ({self.detail})" if self.detail else "")
            + "; re-ran serially in-process"
        )


def supervise(
    worker,
    tasks: list,
    *,
    jobs: int,
    config: SupervisorConfig | None = None,
    start_method: str | None = None,
    guard: GuardContext | None = None,
    rebudget=None,
    on_result=None,
    chaos=None,
    pool: WorkerPool | None = None,
) -> tuple[list, list[Degradation], list[ShardFailure]]:
    """Run ``worker`` over ``tasks`` in a supervised, pooled dispatch.

    ``worker`` must be a module-level callable (it crosses the pipe by
    reference) and ``tasks`` must pickle.  Workers are leased from the
    persistent ``pool`` (default: the process-wide pool for
    ``start_method``) and released back on completion, so repeated calls
    reuse warm processes.  A task exposing ``snapshot_ids`` has those
    snapshots shipped to its worker before dispatch (at most once per
    worker — see :meth:`~repro.parallel.pool.WorkerPool.publish_snapshot`).

    ``rebudget``, if given, maps a task to a copy carrying the parent's
    *remaining* budget; it is applied at every dispatch (including
    retries and the serial fallback) so no shard can be handed more
    headroom than the aggregate has left.  ``on_result`` is invoked in
    the parent for each completed result as it arrives — the engine uses
    it to re-tick shard spend against the parent guard immediately; a
    :class:`~repro.exceptions.BudgetExceededError` it raises is fatal
    and propagates after the dispatch is wound down.  ``chaos`` is a
    test-only :class:`repro.chaos.ChaosPlan` consulted per
    ``(shard, attempt)`` dispatch.

    Returns ``(results, degradations, failures)`` with ``results`` in
    task order.  Raises the worker's own exception for fatal errors; a
    shard that exhausts its retries re-runs serially in the parent, so
    any other error surfaces from that fallback.
    """
    config = config if config is not None else SupervisorConfig()
    if not tasks:
        return [], [], []
    from multiprocessing.connection import wait as wait_connections

    if pool is None:
        pool = get_pool(start_method)
    results: dict[int, object] = {}
    degradations: list[Degradation] = []
    failures: list[ShardFailure] = []
    #: Dispatchable ``(shard_index, attempt)`` pairs.
    ready: deque[tuple[int, int]] = deque((i, 0) for i in range(len(tasks)))
    #: Retries waiting out their backoff: ``(not_before, index, attempt)``.
    delayed: list[tuple[float, int, int]] = []
    #: Workers leased from the pool for this run.
    leased: list[PoolWorker] = []

    def lease_worker() -> PoolWorker:
        handle = pool.lease()
        leased.append(handle)
        return handle

    def discard_worker(handle: PoolWorker) -> None:
        pool.discard(handle)
        if handle in leased:
            leased.remove(handle)

    def accept(index: int, result) -> None:
        results[index] = result
        if on_result is not None:
            on_result(result)

    def fail(index: int, attempt: int, reason: str, detail: str = "") -> None:
        """Record one failed attempt; schedule a retry or degrade."""
        failures.append(ShardFailure(index, attempt, reason, detail))
        next_attempt = attempt + 1
        if next_attempt <= config.max_retries:
            not_before = time.monotonic() + config.backoff_s(index, next_attempt)
            delayed.append((not_before, index, next_attempt))
            return
        # Graceful degradation: the shard re-runs serially in *this*
        # process under whatever guard budget remains.  Surviving
        # workers keep computing their shards meanwhile.
        task = tasks[index]
        if rebudget is not None:
            task = rebudget(task)
        accept(index, worker(task))
        degradations.append(Degradation(index, reason, next_attempt, detail))

    def dispatch(handle: PoolWorker, index: int, attempt: int) -> bool:
        task = tasks[index]
        if rebudget is not None:
            task = rebudget(task)
        action = chaos.action_for(index, attempt) if chaos is not None else None
        try:
            pool.ensure_shipped(handle, getattr(task, "snapshot_ids", ()))
            handle.conn.send(
                ("task", index, worker, task, action, config.heartbeat_interval_s)
            )
        except (OSError, ValueError):
            return False
        pool.tasks_dispatched += 1
        now = time.monotonic()
        handle.current = (index, attempt)
        handle.dispatched_at = now
        handle.hb_seen_at = now
        return True

    try:
        while len(results) < len(tasks):
            now = time.monotonic()
            if guard is not None:
                guard.checkpoint("parallel.supervise")
            # Promote retries whose backoff has elapsed.
            for entry in [e for e in delayed if e[0] <= now]:
                delayed.remove(entry)
                ready.append((entry[1], entry[2]))
            # Dispatch to free workers; grow the lease up to ``jobs``.
            while ready:
                handle = next((w for w in leased if w.current is None), None)
                if handle is None:
                    if len(leased) >= jobs:
                        break
                    handle = lease_worker()
                index, attempt = ready.popleft()
                if not dispatch(handle, index, attempt):
                    # The worker died between tasks: replace it and
                    # re-queue the dispatch (not a shard failure).
                    discard_worker(handle)
                    ready.appendleft((index, attempt))
            # Wait for worker traffic (or a timeout to re-check clocks).
            conns = [w.conn for w in leased]
            ready_conns = wait_connections(conns, _POLL_S) if conns else []
            if not conns and not ready and not delayed:
                break  # defensive: nothing running, nothing to run
            for conn in ready_conns:
                handle = next((w for w in leased if w.conn is conn), None)
                if handle is None:
                    continue
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    current = handle.current
                    discard_worker(handle)
                    if current is not None:
                        fail(current[0], current[1], "worker-crash",
                             "worker process died mid-shard")
                    continue
                kind = message[0]
                if kind == "hb":
                    handle.hb_seen_at = time.monotonic()
                    continue
                _, index, payload, digest = message
                attempt = (
                    handle.current[1]
                    if handle.current is not None
                    else _attempt_of(failures, index)
                )
                handle.current = None
                if _checksum(payload) != digest:
                    fail(index, attempt, "corrupt-result",
                         "result envelope checksum mismatch")
                    continue
                try:
                    value = pickle.loads(payload)
                except Exception as exc:
                    fail(index, attempt, "corrupt-result",
                         f"result did not unpickle: {exc!r}")
                    continue
                if kind == "ok":
                    accept(index, value)
                else:
                    if isinstance(value, _FATAL_ERRORS):
                        raise value
                    fail(index, attempt, "worker-error", repr(value))
            # Liveness checks for busy workers the pipe said nothing about.
            now = time.monotonic()
            for handle in list(leased):
                if handle.current is None:
                    continue
                index, attempt = handle.current
                if (
                    config.shard_deadline_s is not None
                    and now - handle.dispatched_at > config.shard_deadline_s
                ):
                    discard_worker(handle)
                    fail(index, attempt, "shard-deadline",
                         f"no result within {config.shard_deadline_s}s of dispatch")
                elif (
                    config.heartbeat_timeout_s is not None
                    and now - handle.hb_seen_at > config.heartbeat_timeout_s
                ):
                    discard_worker(handle)
                    fail(index, attempt, "worker-hang",
                         f"heartbeat stale for {config.heartbeat_timeout_s}s")
        return [results[i] for i in range(len(tasks))], degradations, failures
    finally:
        for handle in list(leased):
            if handle.current is not None:
                # Mid-task on an abort: its late reply must never reach
                # a later dispatch wave, so the worker is killed.
                discard_worker(handle)
            else:
                leased.remove(handle)
                pool.release(handle)


def _attempt_of(failures: list[ShardFailure], index: int) -> int:
    """Current 0-based attempt number of shard ``index``.

    Derived from the failure log (each prior failure consumed one
    attempt) so envelope handlers do not need the worker handle's state.
    """
    return sum(1 for f in failures if f.shard_index == index)
