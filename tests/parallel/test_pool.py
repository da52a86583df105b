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
from repro.fdd.fast import compare_fast
from repro.parallel import compare_parallel, get_pool, shutdown_pools
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

    def test_workers_survive_across_different_pairs(self):
        # One pool serves every pair of a team: the second sweep over
        # the pairs spawns nothing and gives the same answers.
        team = [make_firewall(70 + i, 6) for i in range(3)]
        pairs = [(0, 1), (0, 2), (1, 2)]

        def sweep():
            return {
                (i, j): compare_parallel(
                    team[i], team[j], jobs=2, start_method="fork"
                ).disputed_packets
                for i, j in pairs
            }

        first = sweep()
        spawned_after_first = get_pool("fork").stats()["spawned_total"]
        assert sweep() == first
        assert get_pool("fork").stats()["spawned_total"] == spawned_after_first

    def test_compare_parallel_publishes_one_snapshot_per_call(self):
        # A comparison ships its piece roots as one snapshot, never one
        # per shard or per task, and retires it before returning.
        team = [make_firewall(80 + i, 6) for i in range(4)]
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        results = {
            (i, j): compare_parallel(
                team[i], team[j], jobs=2, start_method="fork"
            )
            for i, j in pairs
        }
        stats = get_pool("fork").stats()
        assert stats["snapshots_published"] == len(pairs), (
            f"expected one snapshot per comparison ({len(pairs)}), got "
            f"{stats['snapshots_published']}"
        )
        # All retired afterwards: nothing leaks across calls.
        assert not _SNAPSHOT_DATA
        assert not _SNAPSHOT_OBJECTS
        assert not get_pool("fork")._segments
        # And the shared-snapshot numbers are the serial engine's.
        for (i, j), par in results.items():
            assert (
                par.disputed_packets
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
