"""Persistent worker pools with shared comparison snapshots.

The original fan-out built a fresh ``multiprocessing.Pool`` for every
comparison and tore it down afterwards — on the Fig. 13 workload the
fork/teardown cost alone rivalled the shard work, and every task
re-shipped (and re-constructed) its inputs.  This module replaces that
with one lazily-started :class:`WorkerPool` per start method, reused
across every comparison in the process:

* **Persistent workers.**  Workers run :func:`_pool_worker_loop`
  forever, executing tasks shipped as ``(function, task)`` pairs over a
  duplex pipe.  The pool is lazily spawned on first use, grows up to the
  requested ``jobs``, and survives across ``compare_sharded`` /
  ``compare_parallel`` calls — the spawn cost is paid
  once per process, not once per comparison (see the amortization
  model in ``docs/performance.md``).
* **Published snapshots.**  Large shared inputs — a comparison's
  composed node-store diagrams — are published once per comparison via
  :meth:`WorkerPool.publish_snapshot` (a ``multiprocessing.shared_memory``
  segment when available, an inline-bytes pipe message otherwise) and
  shipped to each worker at most once; tasks then carry only a snapshot
  id.  Workers resolve and deserialize lazily (:func:`resolve_snapshot`)
  and cache the object until the parent retires the snapshot.
* **Graceful completion.**  On success workers are *released* back to
  the pool, never terminated — SIGTERM-on-success used to truncate
  coverage/profiling atexit hooks in workers under CI.  Workers are
  killed only when they are mid-task on an error path (their eventual
  reply would otherwise corrupt the next dispatch) or at
  :func:`shutdown_pools`, which first asks idle workers to exit via a
  sentinel and joins them.

The pool only manages processes and snapshots: every task reaches a
worker through :func:`repro.parallel.supervisor.supervise`, which owns
the dispatch loop, retries and the in-parent fallback.  Heartbeats (used
by the supervisor's hang detection) are sent only while a worker is
executing a task, so an idle pooled worker never floods its pipe between
comparisons.
"""

from __future__ import annotations

import atexit
import hashlib
import os
import pickle
import random
import threading
import time

from repro.exceptions import SupervisionError

__all__ = [
    "WorkerPool",
    "get_pool",
    "shutdown_pools",
    "resolve_snapshot",
    "hold_local_snapshot",
    "drop_snapshot",
]

#: Raw published snapshot data, per process: ``id -> (kind, data)`` where
#: ``kind`` is ``"shm"`` (data = ``(segment_name, size)``) or ``"bytes"``
#: (data = the pickled payload).  Filled by ``publish_snapshot`` in the
#: parent and by ``("snap", ...)`` pipe messages in workers.
_SNAPSHOT_DATA: dict[str, tuple[str, object]] = {}

#: Snapshot objects, per process: deserialized lazily in workers, the
#: live published (or locally held) objects in the parent.
_SNAPSHOT_OBJECTS: dict[str, object] = {}


def hold_local_snapshot(obj) -> str:
    """Make ``obj`` resolvable in this process only; returns its id.

    Nothing is published: in-process dispatch resolves the live object
    through :func:`resolve_snapshot` like any snapshot, and
    :func:`drop_snapshot` releases it.
    """
    snapshot_id = f"local-{id(obj)}"
    _SNAPSHOT_OBJECTS[snapshot_id] = obj
    return snapshot_id


def drop_snapshot(snapshot_id: str) -> None:
    """Evict a snapshot's data and object from this process."""
    _SNAPSHOT_DATA.pop(snapshot_id, None)
    _SNAPSHOT_OBJECTS.pop(snapshot_id, None)


def resolve_snapshot(snapshot_id: str):
    """The deserialized object behind a published snapshot id.

    Works in worker processes (data arrived as a pipe message or a
    shared-memory segment name) and in the parent (the degraded serial
    fallback re-runs snapshot tasks in-process).  The deserialized
    object is cached per process until the snapshot is retired.
    """
    found = _SNAPSHOT_OBJECTS.get(snapshot_id)
    if found is not None:
        return found
    entry = _SNAPSHOT_DATA.get(snapshot_id)
    if entry is None:
        raise KeyError(f"unknown or retired snapshot: {snapshot_id!r}")
    kind, data = entry
    if kind == "shm":
        from multiprocessing import shared_memory

        from multiprocessing import resource_tracker

        name, size = data  # type: ignore[misc]
        # Attaching would register the segment with the (fork-shared)
        # resource tracker as if this process owned it; the publishing
        # parent is the sole owner and unlinks it on retire, so
        # suppress the attach-side registration (unregistering after
        # the fact would instead *remove* the parent's claim from the
        # shared tracker and turn its unlink into tracker noise).
        original_register = resource_tracker.register

        def _register_passthrough(rname, rtype):
            if rtype != "shared_memory":
                original_register(rname, rtype)

        resource_tracker.register = _register_passthrough
        try:
            segment = shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original_register
        try:
            payload = bytes(segment.buf[:size])
        finally:
            segment.close()
    else:
        payload = data  # type: ignore[assignment]
    obj = pickle.loads(payload)
    _SNAPSHOT_OBJECTS[snapshot_id] = obj
    return obj


def _checksum(payload: bytes) -> str:
    """The result envelope's integrity digest."""
    return hashlib.sha256(payload).hexdigest()


def _flip_byte(payload: bytes, seed: int) -> bytes:
    """Deterministically corrupt one byte of ``payload`` (chaos only)."""
    if not payload:
        return b"\x00"
    rng = random.Random(seed)
    index = rng.randrange(len(payload))
    flipped = payload[index] ^ (1 + rng.randrange(255))
    return payload[:index] + bytes([flipped]) + payload[index + 1 :]


def _pool_worker_loop(conn) -> None:
    """A persistent pool worker (module-level and spawn-safe).

    Protocol (parent → worker):

    * ``("task", index, func, task, action, hb_interval)`` — execute
      ``func(task)`` and reply ``("ok"|"err", index, payload, digest)``
      where ``payload`` pickles the result (or the raised exception) and
      ``digest`` is its SHA-256 computed worker-side, so corruption
      anywhere on the pipe is caught.  ``action`` is an optional chaos
      action applied first (:func:`repro.chaos.prepare_task`).
    * ``("snap", id, kind, data)`` — cache a published snapshot.
    * ``("drop", id)`` — evict a retired snapshot.
    * ``None`` — exit gracefully (atexit hooks run).

    A daemon thread sends ``("hb", counter)`` heartbeats *only while a
    task is executing* — idle pooled workers stay silent so the pipe
    never fills between comparisons.
    """
    send_lock = threading.Lock()
    busy = threading.Event()
    hb_stop = threading.Event()
    state = {"interval": 0.1}

    def beat() -> None:
        count = 0
        while not hb_stop.wait(state["interval"]):
            if not busy.is_set():
                continue
            count += 1
            try:
                with send_lock:
                    conn.send(("hb", count))
            except (OSError, ValueError):
                return

    threading.Thread(target=beat, daemon=True).start()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        kind = message[0]
        if kind == "snap":
            _, snapshot_id, snap_kind, data = message
            _SNAPSHOT_DATA[snapshot_id] = (snap_kind, data)
            continue
        if kind == "drop":
            drop_snapshot(message[1])
            continue
        _, index, func, task, action, hb_interval = message
        state["interval"] = hb_interval
        corrupt_seed = None
        busy.set()
        try:
            if action is not None:
                from repro.chaos.actions import prepare_task

                task, corrupt_seed = prepare_task(action, task, hb_stop)
            result = func(task)
            payload = pickle.dumps(result)
            digest = _checksum(payload)
            if corrupt_seed is not None:
                payload = _flip_byte(payload, corrupt_seed)
            reply = ("ok", index, payload, digest)
        except BaseException as exc:
            try:
                payload = pickle.dumps(exc)
            except Exception:
                payload = pickle.dumps(
                    SupervisionError(
                        f"worker error did not pickle: {exc!r}",
                        reason="worker-error",
                    )
                )
            reply = ("err", index, payload, _checksum(payload))
        finally:
            busy.clear()
        try:
            with send_lock:
                conn.send(reply)
        except (OSError, ValueError):
            return


class PoolWorker:
    """Parent-side view of one persistent pool worker."""

    __slots__ = (
        "process",
        "conn",
        "current",
        "dispatched_at",
        "hb_seen_at",
        "shipped",
    )

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        #: ``(task_index, attempt)`` while busy, else ``None``.
        self.current: tuple[int, int] | None = None
        self.dispatched_at = 0.0
        self.hb_seen_at = 0.0
        #: Snapshot ids already shipped to this worker.
        self.shipped: set[str] = set()

    def alive(self) -> bool:
        return self.process.is_alive()


class WorkerPool:
    """A persistent, lazily-started pool of :func:`_pool_worker_loop`s.

    One pool exists per resolved start method (see :func:`get_pool`);
    callers *lease* workers for the duration of one dispatch wave and
    either *release* them back (healthy and idle) or *discard* them
    (dead, hung, or mid-task on an error path).  The pool replaces
    discarded workers lazily on the next lease.
    """

    def __init__(self, start_method: str | None = None):
        import multiprocessing as mp

        self._ctx = mp.get_context(start_method) if start_method else mp.get_context()
        self.start_method = self._ctx.get_start_method()
        #: Every live worker, leased or idle.
        self._workers: list[PoolWorker] = []
        self._idle: list[PoolWorker] = []
        self._segments: dict[str, object] = {}
        self._seq = 0
        self.spawned_total = 0
        self.tasks_dispatched = 0
        self.snapshots_published = 0

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _spawn(self) -> PoolWorker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_pool_worker_loop, args=(child_conn,), daemon=True
        )
        process.start()
        child_conn.close()
        worker = PoolWorker(process, parent_conn)
        self._workers.append(worker)
        self.spawned_total += 1
        return worker

    def lease(self) -> PoolWorker:
        """An idle worker, spawning a replacement when none survives."""
        while self._idle:
            worker = self._idle.pop()
            if worker.alive():
                return worker
            self._reap(worker)
        return self._spawn()

    def release(self, worker: PoolWorker) -> None:
        """Return a healthy idle worker to the pool for reuse."""
        if worker.current is not None or not worker.alive():
            self.discard(worker)
            return
        if worker in self._workers and worker not in self._idle:
            self._idle.append(worker)

    def discard(self, worker: PoolWorker) -> None:
        """Kill and reap a worker (dead, hung, or mid-task on error)."""
        try:
            worker.process.kill()
        except Exception:
            pass
        worker.process.join(timeout=5.0)
        self._reap(worker)

    def _reap(self, worker: PoolWorker) -> None:
        try:
            worker.conn.close()
        except Exception:
            pass
        if worker in self._idle:
            self._idle.remove(worker)
        if worker in self._workers:
            self._workers.remove(worker)

    def ensure(self, jobs: int) -> None:
        """Pre-spawn until ``jobs`` idle workers exist (warm-up)."""
        while len(self._idle) < jobs:
            self._idle.append(self._spawn())

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def publish_snapshot(self, obj) -> str:
        """Publish ``obj`` once; returns the snapshot id tasks carry.

        The pickled payload lands in a ``multiprocessing.shared_memory``
        segment when the platform provides one (workers attach by name —
        the per-worker pipe message is a few bytes), falling back to
        shipping the pickled bytes inline over each worker's pipe.  The
        parent's own registry keeps the live object, so in-process
        execution (the degraded serial fallback) never deserializes at
        all.
        """
        payload = pickle.dumps(obj)
        self._seq += 1
        snapshot_id = f"repro-{os.getpid()}-{self._seq}"
        kind, data = "bytes", payload
        try:
            from multiprocessing import shared_memory

            segment = shared_memory.SharedMemory(
                create=True, size=max(1, len(payload))
            )
            segment.buf[: len(payload)] = payload
            self._segments[snapshot_id] = segment
            kind, data = "shm", (segment.name, len(payload))
        except Exception:
            pass  # no usable shared memory: inline bytes per worker
        _SNAPSHOT_DATA[snapshot_id] = (kind, data)
        _SNAPSHOT_OBJECTS[snapshot_id] = obj
        self.snapshots_published += 1
        return snapshot_id

    def ensure_shipped(self, worker: PoolWorker, snapshot_ids) -> None:
        """Ship snapshot data to ``worker`` at most once per snapshot."""
        for snapshot_id in snapshot_ids:
            if snapshot_id in worker.shipped:
                continue
            kind, data = _SNAPSHOT_DATA[snapshot_id]
            worker.conn.send(("snap", snapshot_id, kind, data))
            worker.shipped.add(snapshot_id)

    def retire_snapshot(self, snapshot_id: str) -> None:
        """Drop a snapshot everywhere: workers, parent caches, shm."""
        for worker in list(self._workers):
            if snapshot_id in worker.shipped and worker.alive():
                try:
                    worker.conn.send(("drop", snapshot_id))
                except (OSError, ValueError):
                    pass
            worker.shipped.discard(snapshot_id)
        segment = self._segments.pop(snapshot_id, None)
        if segment is not None:
            try:
                segment.close()
                segment.unlink()
            except Exception:
                pass
        drop_snapshot(snapshot_id)

    # ------------------------------------------------------------------
    # Introspection / teardown
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Lifecycle counters (pool-reuse tests and docs assertions)."""
        return {
            "start_method": self.start_method,
            "alive": sum(1 for w in self._workers if w.alive()),
            "idle": len(self._idle),
            "busy": sum(1 for w in self._workers if w.current is not None),
            "spawned_total": self.spawned_total,
            "tasks_dispatched": self.tasks_dispatched,
            "snapshots_published": self.snapshots_published,
        }

    def shutdown(self) -> None:
        """Gracefully stop every worker and release published snapshots.

        Idle workers receive the exit sentinel and are joined (their
        atexit hooks — coverage, profilers — run); stragglers and busy
        workers are killed after a grace period.
        """
        for snapshot_id in list(self._segments):
            self.retire_snapshot(snapshot_id)
        for worker in list(self._workers):
            if worker.current is None and worker.alive():
                try:
                    worker.conn.send(None)
                except (OSError, ValueError):
                    pass
        deadline = time.monotonic() + 2.0
        for worker in list(self._workers):
            worker.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=5.0)
            self._reap(worker)
        self._idle.clear()


#: One pool per resolved start method, shared process-wide.
_POOLS: dict[str, WorkerPool] = {}


def get_pool(start_method: str | None = None) -> WorkerPool:
    """The process-wide persistent pool for ``start_method``.

    ``None`` resolves to the platform default context.  Pools are
    created lazily, reused by every comparison, and torn down at
    interpreter exit (or explicitly via :func:`shutdown_pools`).
    """
    import multiprocessing as mp

    key = (
        mp.get_context(start_method).get_start_method()
        if start_method
        else mp.get_context().get_start_method()
    )
    pool = _POOLS.get(key)
    if pool is None:
        pool = WorkerPool(start_method)
        _POOLS[key] = pool
    return pool


def shutdown_pools() -> None:
    """Gracefully shut down every process-wide pool (idempotent)."""
    for pool in list(_POOLS.values()):
        pool.shutdown()
    _POOLS.clear()


atexit.register(shutdown_pools)
