"""PolicyServer: content-addressed sharing, LRU bounds, budgets."""

import pytest

from repro.exceptions import BudgetExceededError
from repro.fields import PacketSampler, toy_schema
from repro.guard import Budget
from repro.policy import ACCEPT, DISCARD, Firewall, Rule
from repro.serve import PolicyServer
from repro.synth import SyntheticFirewallGenerator


@pytest.fixture
def schema():
    return toy_schema(9, 9)


@pytest.fixture
def twin_policies(schema):
    """Two syntactically different, semantically identical policies."""
    one = Firewall(
        schema,
        [Rule.build(schema, ACCEPT, F1=(0, 3)), Rule.build(schema, DISCARD)],
    )
    two = Firewall(
        schema,
        [Rule.build(schema, DISCARD, F1=(4, 9)), Rule.build(schema, ACCEPT)],
    )
    return one, two


def _distinct_policies(schema, count):
    out = []
    for i in range(count):
        out.append(
            Firewall(
                schema,
                [
                    Rule.build(schema, ACCEPT, F1=(0, i)),
                    Rule.build(schema, DISCARD),
                ],
            )
        )
    return out


class TestContentAddressing:
    def test_semantic_twins_share_one_artifact(self, twin_policies):
        server = PolicyServer()
        fp_a = server.load(twin_policies[0], name="a")
        fp_b = server.load(twin_policies[1], name="b")
        assert fp_a == fp_b
        assert server.matcher("a") is server.matcher("b")
        assert server.stats()["compiles"] == 1

    def test_lookup_by_name_or_fingerprint(self, twin_policies):
        server = PolicyServer()
        fingerprint = server.load(twin_policies[0], name="a")
        assert server.matcher(fingerprint) is server.matcher("a")

    def test_unknown_key_raises(self):
        server = PolicyServer()
        with pytest.raises(KeyError, match="no policy loaded"):
            server.matcher("nope")

    def test_distinct_policies_get_distinct_artifacts(self, schema):
        server = PolicyServer()
        first, second = _distinct_policies(schema, 2)
        assert server.load(first) != server.load(second)
        assert server.stats()["compiles"] == 2


class TestEviction:
    def test_lru_evicts_and_recompiles(self, schema):
        server = PolicyServer(capacity=1)
        policies = _distinct_policies(schema, 3)
        fingerprints = [server.load(p) for p in policies]
        stats = server.stats()
        assert stats["artifacts"] == 1
        assert stats["evictions"] == 2
        assert server.cached_fingerprints() == (fingerprints[-1],)
        # The evicted policy is still servable: recompiled on demand.
        before = server.stats()["compiles"]
        matcher = server.matcher(fingerprints[0])
        assert server.stats()["compiles"] == before + 1
        assert matcher.classify((0, 0)) == ACCEPT

    def test_eviction_never_loses_registrations(self, schema):
        server = PolicyServer(capacity=1)
        policies = _distinct_policies(schema, 3)
        for i, policy in enumerate(policies):
            server.load(policy, name=f"p{i}")
        assert set(server.names) == {"p0", "p1", "p2"}
        assert len(server.fingerprints) == 3


class TestCounters:
    def test_hit_and_miss_accounting(self, twin_policies):
        server = PolicyServer()
        server.load(twin_policies[0], name="a")  # miss + compile
        server.load(twin_policies[1], name="b")  # hit (same fingerprint)
        server.matcher("a")  # hit
        stats = server.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 2
        assert stats["compiles"] == 1
        assert stats["size_bytes"] > 0

    def test_repr_summarizes(self, twin_policies):
        server = PolicyServer()
        server.load(twin_policies[0])
        assert "artifacts" in repr(server)


class TestBudget:
    def test_budget_trip_leaves_cache_untouched(self):
        firewall = SyntheticFirewallGenerator(seed=3).generate(50)
        server = PolicyServer(budget=Budget(max_nodes=2))
        with pytest.raises(BudgetExceededError):
            server.load(firewall)
        assert server.stats()["artifacts"] == 0

    def test_budget_is_per_operation_not_cumulative(self, schema):
        server = PolicyServer(budget=Budget(max_nodes=10_000))
        for policy in _distinct_policies(schema, 4):
            server.load(policy)
        assert server.stats()["artifacts"] == 4


class TestClassification:
    def test_classify_paths_agree_with_firewall(self, twin_policies):
        server = PolicyServer()
        server.load(twin_policies[0], name="a")
        packets = PacketSampler(twin_policies[0].schema, seed=9).uniform_many(100)
        expected = [twin_policies[0].evaluate(p) for p in packets]
        assert server.classify_batch("a", packets) == expected
        assert server.classify("a", packets[0]) == expected[0]
        tally = server.tally("a", packets)
        assert sum(tally.values()) == len(packets)

    def test_batches_build_the_kernel_once(self, twin_policies):
        from repro.classify.kernels import HAVE_NUMPY

        server = PolicyServer()
        server.load(twin_policies[0], name="a")
        packets = PacketSampler(twin_policies[0].schema, seed=9).uniform_many(100)
        server.classify_batch("a", packets)
        kernel = server.matcher("a")._kernel
        assert (kernel is not None) == HAVE_NUMPY
        server.tally("a", packets)
        assert server.matcher("a")._kernel is kernel
