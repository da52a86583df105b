"""Parallel classification: artifact shipping, in-order merging, and
supervised dispatch."""

import os
import pickle
import signal
import time

import pytest

from repro.classify import compile_firewall
from repro.exceptions import BudgetExceededError, CancelledError
from repro.fields import PacketSampler
from repro.guard import Budget, GuardContext
from repro.parallel import classify_parallel, get_pool
from repro.synth import SyntheticFirewallGenerator


def _first_visit(marker: str) -> bool:
    """Atomically claim ``marker``; True for exactly one caller ever."""
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        return True
    except FileExistsError:
        return False


class _KillOnceMatcher:
    """A matcher whose first ``classify_batch`` call SIGKILLs its process.

    Module-level so it pickles into the published snapshot; the marker
    file is the only state a killed worker leaves behind.
    """

    def __init__(self, matcher, marker: str):
        self.matcher = matcher
        self.marker = marker

    def classify_batch(self, packets):
        if _first_visit(self.marker):
            os.kill(os.getpid(), signal.SIGKILL)
        return self.matcher.classify_batch(packets)


@pytest.fixture(scope="module")
def setup():
    firewall = SyntheticFirewallGenerator(seed=11).generate(40)
    matcher = compile_firewall(firewall)
    packets = PacketSampler(firewall.schema, seed=11).uniform_many(203)
    return matcher, packets, matcher.classify_batch(packets)


class TestInline:
    """Chunked fan-out through the fork pool: every chunking keeps order,
    and the empty and iterator inputs behave like a list."""

    def test_matches_serial_batch(self, setup):
        matcher, packets, expected = setup
        fanned = classify_parallel(matcher, packets, jobs=2, start_method="fork")
        assert fanned == expected

    def test_uneven_chunking_preserves_order(self, setup):
        matcher, packets, expected = setup
        # 203 packets across 4 jobs: chunks of 51/51/51/50.
        fanned = classify_parallel(matcher, packets, jobs=4, start_method="fork")
        assert fanned == expected

    def test_more_jobs_than_packets(self, setup):
        matcher, packets, expected = setup
        few = packets[:3]
        assert (
            classify_parallel(matcher, few, jobs=8, start_method="fork")
            == expected[:3]
        )

    def test_empty_batch(self, setup):
        matcher, _, _ = setup
        assert classify_parallel(matcher, [], jobs=4, start_method="fork") == []

    def test_iterable_input(self, setup):
        matcher, packets, expected = setup
        assert (
            classify_parallel(matcher, iter(packets), jobs=2, start_method="fork")
            == expected
        )


class TestPool:
    def test_worker_processes_match_serial(self, setup):
        matcher, packets, expected = setup
        assert classify_parallel(matcher, packets, jobs=2) == expected

    def test_artifact_round_trips_to_workers(self, setup):
        # The worker-side contract: what ships is the pickled artifact.
        matcher, packets, expected = setup
        clone = pickle.loads(pickle.dumps(matcher))
        assert classify_parallel(clone, packets, jobs=2) == expected


class TestSupervised:
    def test_worker_crash_is_recovered(self, setup, tmp_path):
        matcher, packets, expected = setup
        crashing = _KillOnceMatcher(matcher, str(tmp_path / "killed"))
        fanned = classify_parallel(crashing, packets, jobs=2, start_method="fork")
        assert fanned == expected
        assert (tmp_path / "killed").exists()
        assert get_pool("fork").stats()["busy"] == 0

    def test_cancelled_guard_raises(self, setup):
        matcher, packets, _ = setup
        guard = GuardContext(Budget())
        guard.cancel()
        with pytest.raises(CancelledError):
            classify_parallel(
                matcher, packets, jobs=2, start_method="fork", guard=guard
            )
        assert get_pool("fork").stats()["busy"] == 0

    def test_expired_guard_raises(self, setup):
        matcher, packets, _ = setup
        guard = GuardContext(Budget(deadline_s=0.001))
        time.sleep(0.01)
        with pytest.raises(BudgetExceededError):
            classify_parallel(
                matcher, packets, jobs=2, start_method="fork", guard=guard
            )
        assert get_pool("fork").stats()["busy"] == 0
