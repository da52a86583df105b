"""Tests for the supervised worker pool (:mod:`repro.parallel.supervisor`).

The chaos suite (``tests/chaos``) exercises the supervisor through the
full comparison engine; these tests drive :func:`supervise` directly
with tiny deterministic workers, so each failure class — crash, stall,
worker error, fatal error — is pinned down in isolation.  Workers that
must fail *once* and then succeed coordinate through marker files (the
only cross-process state a SIGKILLed worker can leave behind).
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.exceptions import BudgetExceededError
from repro.parallel import Degradation, SupervisorConfig, supervise

# ----------------------------------------------------------------------
# Workers (module-level: they cross the pipe by reference under spawn)
# ----------------------------------------------------------------------


def _first_visit(marker: str) -> bool:
    """Atomically claim ``marker``; True for exactly one caller ever."""
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        return True
    except FileExistsError:
        return False


def _double(value):
    return value * 2


def _kill_on_first_attempt(task):
    value, marker = task
    if _first_visit(marker):
        os.kill(os.getpid(), signal.SIGKILL)
    return value * 10


def _stall_on_first_attempt(task):
    value, marker = task
    if _first_visit(marker):
        time.sleep(60.0)
    return value * 10


def _succeed_only_in_process(task):
    value, pid = task
    if os.getpid() != pid:
        raise ValueError(f"wrong process {os.getpid()}")
    return value + 1


class _UnpicklableError(Exception):
    def __init__(self):
        super().__init__("carries a lambda")
        self.callback = lambda: None


def _unpicklable_error_outside_parent(task):
    value, pid = task
    if os.getpid() != pid:
        raise _UnpicklableError()
    return value + 1


def _raise_budget_error(task):
    raise BudgetExceededError(
        "node budget exceeded: 3 > 2",
        resource="fdd-nodes",
        spent=3,
        limit=2,
    )


#: Retry fast, detect fast — keeps every test subsecond-ish.
_QUICK = SupervisorConfig(
    max_retries=2, backoff_base_s=0.01, heartbeat_interval_s=0.05
)


class TestHappyPath:
    def test_results_arrive_in_task_order(self):
        results, degradations, failures = supervise(
            _double, list(range(7)), jobs=2, config=_QUICK, start_method="fork"
        )
        assert results == [0, 2, 4, 6, 8, 10, 12]
        assert degradations == [] and failures == []

    def test_spawn_workers(self):
        # Spawn re-imports the worker by qualified name: proves the
        # worker loop and this module's workers are spawn-safe.
        results, degradations, _failures = supervise(
            _double, [3, 4], jobs=2, config=_QUICK, start_method="spawn"
        )
        assert results == [6, 8]
        assert degradations == []

    def test_empty_task_list(self):
        assert supervise(_double, [], jobs=2) == ([], [], [])


class TestRetry:
    def test_sigkilled_worker_is_retried(self, tmp_path):
        marker = str(tmp_path / "kill.marker")
        results, degradations, failures = supervise(
            _kill_on_first_attempt,
            [(4, marker)],
            jobs=2,
            config=_QUICK,
            start_method="fork",
        )
        assert results == [40]
        assert degradations == []
        assert [f.reason for f in failures] == ["worker-crash"]
        assert failures[0].shard_index == 0 and failures[0].attempt == 0

    def test_shard_deadline_kills_stalled_worker(self, tmp_path):
        # The stalled worker still heartbeats (its heartbeat thread is
        # alive) — only the per-shard deadline can catch it.
        marker = str(tmp_path / "stall.marker")
        config = SupervisorConfig(
            max_retries=2,
            backoff_base_s=0.01,
            heartbeat_interval_s=0.05,
            heartbeat_timeout_s=30.0,
            shard_deadline_s=0.5,
        )
        results, degradations, failures = supervise(
            _stall_on_first_attempt,
            [(5, marker)],
            jobs=1,
            config=config,
            start_method="fork",
        )
        assert results == [50]
        assert degradations == []
        assert [f.reason for f in failures] == ["shard-deadline"]

    def test_other_tasks_complete_while_one_retries(self, tmp_path):
        marker = str(tmp_path / "mixed.marker")
        tasks = [(1, marker), (2, str(tmp_path / "unused1")), (3, str(tmp_path / "unused2"))]
        # Pre-claim the unused markers so only task 0 ever faults.
        _first_visit(tasks[1][1])
        _first_visit(tasks[2][1])
        results, degradations, failures = supervise(
            _kill_on_first_attempt,
            tasks,
            jobs=2,
            config=_QUICK,
            start_method="fork",
        )
        assert results == [10, 20, 30]
        assert degradations == []
        assert {f.shard_index for f in failures} == {0}


class TestDegradation:
    def test_exhausted_retries_fall_back_to_parent_process(self):
        # The worker only succeeds in the parent's own process: every
        # pool dispatch raises, and the serial fallback completes it.
        results, degradations, failures = supervise(
            _succeed_only_in_process,
            [(10, os.getpid()), (20, os.getpid())],
            jobs=2,
            config=SupervisorConfig(max_retries=1, backoff_base_s=0.01),
            start_method="fork",
        )
        assert results == [11, 21]
        assert len(degradations) == 2
        for item in degradations:
            assert isinstance(item, Degradation)
            assert item.reason == "worker-error"
            assert item.retries == 2  # attempts 0 and 1 both dispatched
            assert "re-ran serially" in item.describe()
        # Every dispatch failed before the fallback: 2 shards x 2 attempts.
        assert len(failures) == 4

    def test_unpicklable_worker_error_is_wrapped_and_degrades(self):
        # The worker loop replaces an exception that does not pickle
        # with a SupervisionError, so the failure is still classified.
        results, degradations, failures = supervise(
            _unpicklable_error_outside_parent,
            [(5, os.getpid())],
            jobs=2,
            config=SupervisorConfig(max_retries=0, backoff_base_s=0.01),
            start_method="fork",
        )
        assert results == [6]
        assert [d.reason for d in degradations] == ["worker-error"]
        assert "SupervisionError" in failures[0].detail
        assert "did not pickle" in failures[0].detail


class TestFatalErrors:
    def test_budget_error_propagates_without_retry(self):
        with pytest.raises(BudgetExceededError) as excinfo:
            supervise(
                _raise_budget_error,
                ["t0", "t1"],
                jobs=2,
                config=_QUICK,
                start_method="fork",
            )
        assert excinfo.value.resource == "fdd-nodes"
        assert excinfo.value.limit == 2


class TestConfig:
    def test_backoff_is_deterministic_and_grows(self):
        config = SupervisorConfig(seed=7)
        first = config.backoff_s(0, 1)
        assert first == config.backoff_s(0, 1)  # same seed, same jitter
        assert first > 0
        assert config.backoff_s(0, 3) > config.backoff_s(0, 1)

    def test_jitter_desynchronizes_shards(self):
        config = SupervisorConfig(seed=7)
        values = {config.backoff_s(shard, 1) for shard in range(8)}
        assert len(values) > 1

    def test_zero_jitter_is_pure_exponential(self):
        config = SupervisorConfig(
            backoff_base_s=0.1, backoff_factor=2.0, backoff_jitter=0.0
        )
        assert config.backoff_s(3, 1) == pytest.approx(0.1)
        assert config.backoff_s(3, 2) == pytest.approx(0.2)
        assert config.backoff_s(3, 3) == pytest.approx(0.4)
