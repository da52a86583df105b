"""Parallel classification: artifact shipping and in-order merging."""

import pickle

import pytest

from repro.classify import compile_firewall
from repro.fields import PacketSampler
from repro.parallel import classify_parallel
from repro.synth import SyntheticFirewallGenerator


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
