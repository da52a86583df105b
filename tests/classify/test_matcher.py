"""Matcher behavior: pickling, equality, batch dispatch, tallies."""

import pickle

import pytest

from repro.classify import compile_firewall
from repro.classify.kernels import HAVE_NUMPY
from repro.classify.matcher import (
    _KERNEL_UNBUILT,
    FORMAT_VERSION,
    KERNEL_CROSSOVER_BATCH,
    KERNEL_MIN_BATCH,
)
from repro.fields import PacketSampler, toy_schema
from repro.policy import ACCEPT, DISCARD, Firewall, Rule
from repro.synth import SyntheticFirewallGenerator


@pytest.fixture
def firewall():
    schema = toy_schema(9, 9, 9)
    return Firewall(
        schema,
        [
            Rule.build(schema, DISCARD, F1=(2, 4)),
            Rule.build(schema, ACCEPT, F2=(3, 7), F3=(0, 4)),
            Rule.build(schema, ACCEPT),
        ],
    )


@pytest.fixture
def matcher(firewall):
    return compile_firewall(firewall)


@pytest.fixture
def packets(firewall):
    return PacketSampler(firewall.schema, seed=5).uniform_many(200)


class TestPickle:
    def test_round_trip_equal_and_behaviorally_identical(self, matcher, packets):
        clone = pickle.loads(pickle.dumps(matcher))
        assert clone == matcher
        assert hash(clone) == hash(matcher)
        assert clone.classify_batch(packets) == matcher.classify_batch(packets)

    def test_kernel_cache_not_pickled(self, matcher, packets):
        matcher.batch_kernel()  # build the derived kernel
        state = matcher.__getstate__()
        assert "_kernel" not in state and "kernel" not in state

    def test_unknown_format_version_refused(self, matcher):
        state = matcher.__getstate__()
        state["format"] = FORMAT_VERSION + 1
        with pytest.raises(ValueError, match="format"):
            type(matcher).__new__(type(matcher)).__setstate__(state)


class TestEquality:
    def test_same_policy_compiles_equal(self, firewall):
        assert compile_firewall(firewall) == compile_firewall(firewall)

    def test_different_policy_compiles_unequal(self, firewall, matcher):
        schema = firewall.schema
        other = Firewall(schema, [Rule.build(schema, DISCARD)])
        assert compile_firewall(other) != matcher

    def test_not_equal_to_other_types(self, matcher):
        assert matcher != object() and matcher != 3


class TestBatchDispatch:
    def test_small_batches_never_touch_the_kernel(self, matcher, packets):
        small = packets[: KERNEL_MIN_BATCH - 1]
        boom = pytest.fail  # any kernel use would call into this

        class Exploding:
            def classify_batch(self, _):
                boom("scalar-size batch routed through the kernel")

        matcher._kernel = Exploding()
        assert matcher.classify_batch(small) == [
            matcher.classify(p) for p in small
        ]

    def test_batch_matches_scalar_loop(self, matcher, packets):
        assert matcher.classify_batch(packets) == [
            matcher.classify(p) for p in packets
        ]

    def test_iterables_accepted(self, matcher, packets):
        assert matcher.classify_batch(iter(packets)) == matcher.classify_batch(
            packets
        )

    def test_empty_batch(self, matcher):
        assert matcher.classify_batch([]) == []

    def test_tally_matches_batch(self, matcher, packets):
        decisions = matcher.classify_batch(packets)
        expected: dict = {}
        for decision in decisions:
            expected[decision] = expected.get(decision, 0) + 1
        assert matcher.tally(packets) == expected

    def test_call_is_classify(self, matcher, packets):
        assert matcher(packets[0]) == matcher.classify(packets[0])


class TestKernelRouting:
    """The kernel serves a batch only where it repays its set-up."""

    def test_batch_below_crossover_builds_no_kernel(self, matcher, packets):
        assert KERNEL_MIN_BATCH <= len(packets) < KERNEL_CROSSOVER_BATCH
        assert matcher.classify_batch(packets) == [matcher.classify(p) for p in packets]
        assert matcher.tally(packets)
        assert matcher._kernel is _KERNEL_UNBUILT

    def test_built_kernel_serves_every_batch_from_min_size(self, matcher, packets):
        calls = []

        class Recording:
            def classify_batch(self, batch):
                calls.append(len(batch))
                return [matcher.classify(p) for p in batch]

        matcher._kernel = Recording()
        for size in (KERNEL_MIN_BATCH - 1, KERNEL_MIN_BATCH, len(packets)):
            assert matcher.classify_batch(packets[:size]) == [
                matcher.classify(p) for p in packets[:size]
            ]
        assert calls == [KERNEL_MIN_BATCH, len(packets)]

    def test_decisions_agree_on_both_sides_of_the_crossover(self, matcher, packets):
        below = [tuple(p) for p in packets] * (KERNEL_CROSSOVER_BATCH // len(packets))
        if len(below) == KERNEL_CROSSOVER_BATCH:
            below.pop()
        at = below + [tuple(packets[0])]
        assert len(at) == KERNEL_CROSSOVER_BATCH
        scalar = matcher.classify_batch(below)
        assert matcher._kernel is _KERNEL_UNBUILT
        routed = matcher.classify_batch(at)
        assert (matcher._kernel is not None) == HAVE_NUMPY
        assert routed == scalar + [matcher.classify(packets[0])]
        assert matcher.classify_batch(below) == scalar

    def test_every_path_classifies_without_numpy(self, firewall, packets, monkeypatch):
        import repro.classify.kernels as kernels

        monkeypatch.setattr(kernels, "_np", None)
        monkeypatch.setattr(kernels, "HAVE_NUMPY", False)
        matcher = compile_firewall(firewall)
        big = [tuple(p) for p in packets] * (KERNEL_CROSSOVER_BATCH // len(packets) + 1)
        for batch in (packets[: KERNEL_MIN_BATCH - 1], packets, big):
            expected = [matcher.classify(p) for p in batch]
            assert matcher.classify_batch(batch) == expected
            assert sum(matcher.tally(batch).values()) == len(batch)
        assert matcher.batch_kernel() is None


class TestStandardSchema:
    def test_batch_parity_on_synthetic_policy(self):
        firewall = SyntheticFirewallGenerator(seed=17).generate(60)
        matcher = compile_firewall(firewall)
        packets = PacketSampler(firewall.schema, seed=17).uniform_many(500)
        assert matcher.classify_batch(packets) == [
            firewall.evaluate(p) for p in packets
        ]

    def test_repr_mentions_shape(self):
        firewall = SyntheticFirewallGenerator(seed=17).generate(10)
        matcher = compile_firewall(firewall)
        text = repr(matcher)
        assert "nodes" in text and "segments" in text
