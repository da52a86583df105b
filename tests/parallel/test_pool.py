"""Lifecycle tests for the persistent worker pool (:mod:`repro.parallel.pool`).

The pool's contract is amortization without leaks: workers outlive any
single comparison (start cost is paid once per process), yet a fault or
budget trip mid-comparison must never strand a busy worker, a shared
snapshot, or a shared-memory segment.  These tests drive the pool
through the public engine entry points and audit its bookkeeping
(:meth:`WorkerPool.stats`, the snapshot registry) between calls.
"""

from __future__ import annotations

import pytest

from repro.exceptions import BudgetExceededError
from repro.guard import Budget
from repro.parallel import (
    compare_many,
    compare_parallel,
    get_pool,
    shutdown_pools,
)
from repro.parallel.pool import _SNAPSHOT_DATA, _SNAPSHOT_OBJECTS

from tests.parallel.test_parallel import canonical, make_firewall, serial_summary


@pytest.fixture(autouse=True)
def _fresh_pools():
    """Each test starts and ends with no live pools (and proves that a
    torn-down pool restarts transparently on next use)."""
    shutdown_pools()
    yield
    shutdown_pools()


def _pair():
    return make_firewall(61, 10), make_firewall(62, 10)


class TestPoolReuse:
    def test_workers_survive_across_comparisons(self):
        fw_a, fw_b = _pair()
        expected = canonical(serial_summary(fw_a, fw_b))
        for _ in range(3):
            par = compare_parallel(
                fw_a, fw_b, jobs=2, start_method="fork"
            )
            assert canonical(par.summary()) == expected
        stats = get_pool("fork").stats()
        assert stats["spawned_total"] == 2, "pool respawned between comparisons"
        assert stats["alive"] == stats["idle"] == 2
        assert stats["busy"] == 0

    def test_workers_survive_across_compare_many_calls(self):
        team = [make_firewall(70 + i, 6) for i in range(3)]
        first = compare_many(team, jobs=2, start_method="fork")
        spawned_after_first = get_pool("fork").stats()["spawned_total"]
        second = compare_many(team, jobs=2, start_method="fork")
        assert get_pool("fork").stats()["spawned_total"] == spawned_after_first
        assert {k: v.disputed_packets for k, v in first.items()} == {
            k: v.disputed_packets for k, v in second.items()
        }

    def test_compare_many_publishes_one_snapshot_per_policy(self):
        # The pair matrix must share policy snapshots: t publications
        # for t team versions, never one per pair (t choose 2) and never
        # a per-pair re-publish.
        team = [make_firewall(80 + i, 6) for i in range(4)]
        pairs = len(team) * (len(team) - 1) // 2
        results = compare_many(team, jobs=2, start_method="fork")
        assert len(results) == pairs
        stats = get_pool("fork").stats()
        assert stats["snapshots_published"] == len(team), (
            f"expected one snapshot per policy ({len(team)}), got "
            f"{stats['snapshots_published']} — the pair matrix is "
            "re-publishing per pair"
        )
        # All retired afterwards: nothing leaks across calls.
        assert not _SNAPSHOT_DATA
        assert not _SNAPSHOT_OBJECTS
        assert not get_pool("fork")._segments
        # And the shared-snapshot numbers are the serial engine's.
        from repro.fdd.fast import compare_fast

        for (i, j), pc in results.items():
            assert (
                pc.disputed_packets
                == compare_fast(team[i], team[j]).disputed_packet_count()
            )

    def test_spawn_pool_parity_and_reuse(self):
        # Spawn re-imports everything worker-side: proves snapshot
        # payloads and tasks survive a cold interpreter, not just fork
        # memory inheritance.
        fw_a, fw_b = _pair()
        expected = canonical(serial_summary(fw_a, fw_b))
        for _ in range(2):
            par = compare_parallel(
                fw_a, fw_b, jobs=2, start_method="spawn"
            )
            assert canonical(par.summary()) == expected
        stats = get_pool("spawn").stats()
        assert stats["spawned_total"] == 2
        assert stats["busy"] == 0


class TestNoLeaks:
    def test_budget_trip_leaves_no_busy_workers(self):
        fw_a, fw_b = _pair()
        with pytest.raises(BudgetExceededError):
            compare_parallel(
                fw_a,
                fw_b,
                jobs=2,
                start_method="fork",
                budget=Budget(max_nodes=2),
            )
        stats = get_pool("fork").stats()
        assert stats["busy"] == 0, "worker left mid-task after budget trip"
        assert stats["alive"] == stats["idle"]
        # The pool remains serviceable: the next comparison is correct
        # without a restart.
        par = compare_parallel(
            fw_a, fw_b, jobs=2, start_method="fork"
        )
        assert canonical(par.summary()) == canonical(serial_summary(fw_a, fw_b))

    def test_snapshots_are_retired_after_success(self):
        fw_a, fw_b = _pair()
        compare_parallel(fw_a, fw_b, jobs=2, start_method="fork")
        assert not _SNAPSHOT_DATA, "snapshot registry leaked entries"
        assert not _SNAPSHOT_OBJECTS, "live snapshot objects leaked"
        assert not get_pool("fork")._segments, "shared-memory segment leaked"

    def test_snapshots_are_retired_after_budget_trip(self):
        fw_a, fw_b = _pair()
        with pytest.raises(BudgetExceededError):
            compare_parallel(
                fw_a,
                fw_b,
                jobs=2,
                start_method="fork",
                budget=Budget(max_nodes=2),
            )
        assert not _SNAPSHOT_DATA
        assert not get_pool("fork")._segments


class TestTransports:
    def test_bytes_fallback_matches_shared_memory(self, monkeypatch):
        # Force publish_snapshot's pickled-bytes fallback by making
        # shared-memory segment creation unavailable, exactly as on a
        # platform without /dev/shm.
        import multiprocessing.shared_memory as shm

        def _unavailable(*args, **kwargs):
            raise OSError("shared memory disabled for this test")

        monkeypatch.setattr(shm, "SharedMemory", _unavailable)
        fw_a, fw_b = _pair()
        par = compare_parallel(
            fw_a, fw_b, jobs=2, start_method="fork"
        )
        assert canonical(par.summary()) == canonical(serial_summary(fw_a, fw_b))
        assert get_pool("fork").stats()["snapshots_published"] >= 1


class TestShutdown:
    def test_shutdown_is_graceful_and_restartable(self):
        fw_a, fw_b = _pair()
        compare_parallel(fw_a, fw_b, jobs=2, start_method="fork")
        pool = get_pool("fork")
        workers = list(pool._workers)
        assert workers and all(w.alive() for w in workers)
        shutdown_pools()
        for worker in workers:
            worker.process.join(timeout=10)
            assert not worker.process.is_alive()
            # close()+join(), never terminate(): a SIGTERM'd worker
            # reports a negative exitcode and would have skipped its
            # atexit hooks (coverage, profilers).
            assert worker.process.exitcode == 0
        # A fresh pool lazily restarts on the next call.
        par = compare_parallel(
            fw_a, fw_b, jobs=2, start_method="fork"
        )
        assert canonical(par.summary()) == canonical(serial_summary(fw_a, fw_b))
        assert get_pool("fork").stats()["alive"] == 2
