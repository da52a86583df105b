"""Parallel batch classification: publish the artifact, ship packet slices.

The compiled :class:`~repro.classify.matcher.CompiledMatcher` is
published to the persistent pool **once** per call as a snapshot
(shared memory when available, a pipe message otherwise); each task
then carries only the snapshot id and a contiguous slice of the packet
batch, so task size is independent of policy size.  Workers resolve
the snapshot on first use and cache it until the parent retires it,
and each worker rebuilds its vectorized batch kernel locally (the
kernel is a derived cache and deliberately never pickles).

Chunks dispatch through :func:`~repro.parallel.supervisor.supervise`,
like every other fan-out: a chunk whose worker crashes, hangs or
returns a corrupted envelope is retried and, when its retries run out,
classified in the parent, and a parent guard's deadline and
cancellation are checkpointed while waiting on workers.  With one
chunk (``jobs=1``, the default on a single-core box, or a batch of at
most one packet) the call classifies in process without touching the
pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.classify.matcher import CompiledMatcher
from repro.fields.packet import Packet
from repro.guard.context import GuardContext
from repro.parallel.engine import _resolve_jobs
from repro.parallel.pool import get_pool, resolve_snapshot
from repro.parallel.supervisor import supervise
from repro.policy.decision import Decision

__all__ = ["classify_parallel"]


@dataclass(frozen=True)
class _ClassifyTask:
    """One worker's unit: the shared artifact's id plus a packet slice."""

    snapshot_id: str
    packets: tuple

    @property
    def snapshot_ids(self) -> tuple[str, ...]:
        return (self.snapshot_id,)


def _classify_worker(task: _ClassifyTask) -> list[Decision]:
    matcher: CompiledMatcher = resolve_snapshot(task.snapshot_id)
    return matcher.classify_batch(task.packets)


def classify_parallel(
    matcher: CompiledMatcher,
    packets: Iterable[Packet | Sequence[int]],
    *,
    jobs: int | None = None,
    start_method: str | None = None,
    guard: GuardContext | None = None,
) -> list[Decision]:
    """Classify a batch across ``jobs`` worker processes.

    Splits the batch into ``jobs`` contiguous chunks, publishes the
    compiled artifact to the pool once, and concatenates the per-chunk
    decisions — the result is elementwise identical to
    ``matcher.classify_batch``.  ``jobs`` defaults to the CPU count and
    must be at least 1; a batch that makes one chunk (``jobs=1``, or at
    most one packet) is classified in process.  Dispatch is supervised,
    so a chunk whose worker dies is retried or re-run in the parent;
    ``guard`` is checkpointed while awaiting workers so parent deadlines
    and cancellation still bite.
    """
    if not isinstance(packets, (list, tuple)):
        packets = list(packets)
    jobs = _resolve_jobs(jobs)
    chunks = min(jobs, len(packets))
    if chunks <= 1:
        return matcher.classify_batch(packets)
    pool = get_pool(start_method)
    snapshot_id = pool.publish_snapshot(matcher)
    try:
        size, extra = divmod(len(packets), chunks)
        tasks = []
        start = 0
        for i in range(chunks):
            end = start + size + (1 if i < extra else 0)
            tasks.append(_ClassifyTask(snapshot_id, tuple(packets[start:end])))
            start = end
        results, _degradations, _failures = supervise(
            _classify_worker, tasks, jobs=jobs, guard=guard, pool=pool
        )
    finally:
        pool.retire_snapshot(snapshot_id)
    return [decision for chunk in results for decision in chunk]
