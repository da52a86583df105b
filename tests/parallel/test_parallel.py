"""Tests for the sharded parallel comparison engine (:mod:`repro.parallel`).

The core correctness property is *summary parity*: the merged result of
a sharded run must be byte-identical (as canonical JSON) to the serial
engine's summary, for any shard count, including under guard budgets and
injected faults.  ``jobs=1`` runs the very task list the pool runs
(pieces, then snapshot shards) serially in process, which makes that
property testable; small targeted tests then check that the pool
dispatcher gives the same answer and spend, and cover the real
fork/spawn pools, budget aggregation, and exception transport.
"""

from __future__ import annotations

import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import (
    BudgetExceededError,
    CancelledError,
    FaultInjectedError,
    NotComprehensiveError,
    ParseError,
    SchemaError,
    SupervisionError,
)
from repro.fdd.fast import compare_fast
from repro.fields import toy_schema
from repro.guard import Budget, FaultInjector
from repro.intervals import IntervalSet
from repro.parallel import (
    compare_parallel,
    compare_sharded,
    comparison_summary,
    get_pool,
    plan_shards,
    restrict_to_shard,
)
from tests.conftest import brute_force_diff, firewalls

SCHEMA = toy_schema(29, 9, 9)


def make_firewall(seed: int, n_rules: int = 6, schema=SCHEMA):
    """Deterministic random comprehensive firewall (no hypothesis)."""
    import random

    from repro.policy import ACCEPT, DISCARD, Firewall, Predicate, Rule

    rng = random.Random(seed)
    rules = []
    for _ in range(n_rules - 1):
        sets = []
        for field in schema:
            hi_max = field.domain.hi
            lo = rng.randint(0, hi_max)
            hi = rng.randint(lo, hi_max)
            values = IntervalSet.span(lo, hi)
            if rng.random() < 0.3:
                lo2 = rng.randint(0, hi_max)
                values = values.union(IntervalSet.span(lo2, rng.randint(lo2, hi_max)))
            sets.append(values)
        rules.append(Rule(Predicate(schema, tuple(sets)), rng.choice([ACCEPT, DISCARD])))
    rules.append(Rule(Predicate(schema, tuple(f.domain_set for f in schema)), rng.choice([ACCEPT, DISCARD])))
    return Firewall(schema, rules)


def serial_summary(fw_a, fw_b) -> dict:
    return comparison_summary(compare_fast(fw_a, fw_b))


def canonical(summary: dict) -> str:
    return json.dumps(summary, sort_keys=True)


# ----------------------------------------------------------------------
# Shard planning
# ----------------------------------------------------------------------


class TestPlanShards:
    @given(
        firewalls(SCHEMA, max_rules=6),
        firewalls(SCHEMA, max_rules=6),
        st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=60, deadline=None)
    def test_shards_partition_the_root_domain(self, fw_a, fw_b, jobs):
        shards = plan_shards(fw_a, fw_b, jobs)
        assert 1 <= len(shards) <= jobs
        union = IntervalSet.empty()
        for shard in shards:
            assert not shard.is_empty()
            assert shard.intersect(union).is_empty()
            union = union.union(shard)
        assert union == SCHEMA.domain(0)
        # shards ascend in field 0
        maxima = [shard.max() for shard in shards]
        assert maxima == sorted(maxima)

    def test_mismatched_schemas_rejected(self):
        fw = make_firewall(1)
        other = make_firewall(2, schema=toy_schema(5, 5))
        with pytest.raises(SchemaError):
            plan_shards(fw, other, 2)


class TestRestrictToShard:
    @given(firewalls(SCHEMA, max_rules=6))
    @settings(max_examples=40, deadline=None)
    def test_restriction_preserves_semantics_inside_the_shard(self, fw):
        shard = IntervalSet.span(5, 14)
        restricted = restrict_to_shard(fw, shard)
        for v0 in (5, 9, 14):
            for v1 in (0, 9):
                packet = (v0, v1, 3)
                assert restricted(packet) == fw(packet)


# ----------------------------------------------------------------------
# Summary parity (the tentpole property)
# ----------------------------------------------------------------------


class TestSummaryParity:
    @given(
        firewalls(SCHEMA, max_rules=6),
        firewalls(SCHEMA, max_rules=6),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_sharded_summary_is_byte_identical_to_serial(self, fw_a, fw_b, jobs):
        serial = serial_summary(fw_a, fw_b)
        par = compare_sharded(fw_a, fw_b, plan_shards(fw_a, fw_b, jobs))
        assert canonical(par.summary()) == canonical(serial)

    @given(
        firewalls(toy_schema(7, 5), max_rules=4),
        firewalls(toy_schema(7, 5), max_rules=4),
    )
    @settings(max_examples=30, deadline=None)
    def test_disputed_count_matches_brute_force(self, fw_a, fw_b):
        par = compare_sharded(fw_a, fw_b, plan_shards(fw_a, fw_b, 3))
        assert par.disputed_packets == len(brute_force_diff(fw_a, fw_b))

    @given(
        firewalls(SCHEMA, max_rules=5),
        firewalls(SCHEMA, max_rules=5),
    )
    @settings(max_examples=30, deadline=None)
    def test_discrepancy_volumes_match_serial(self, fw_a, fw_b):
        diff = compare_fast(fw_a, fw_b)
        par = compare_sharded(
            fw_a, fw_b, plan_shards(fw_a, fw_b, 4), enumerate_discrepancies=True
        )
        assert sum(d.size() for d in par.discrepancies) == sum(
            d.size() for d in diff.discrepancies()
        )

    def test_single_edge_collapse_is_reanchored(self):
        # Policies that ignore field 0 entirely: the product walk collapses
        # the root level, which over-counted shards before re-anchoring.
        from repro.policy import ACCEPT, DISCARD, Rule

        fw_a = type(self)._const_fw(ACCEPT)
        fw_b = type(self)._const_fw(DISCARD, narrow=True)
        serial = serial_summary(fw_a, fw_b)
        for jobs in (2, 5):
            par = compare_sharded(fw_a, fw_b, plan_shards(fw_a, fw_b, jobs))
            assert canonical(par.summary()) == canonical(serial)

    @staticmethod
    def _const_fw(default, *, narrow=False):
        from repro.policy import ACCEPT, Firewall, Rule

        rules = []
        if narrow:
            rules.append(Rule.build(SCHEMA, ACCEPT, F2=(2, 4)))
        rules.append(Rule.build(SCHEMA, default))
        return Firewall(SCHEMA, rules)


# ----------------------------------------------------------------------
# Guard propagation
# ----------------------------------------------------------------------


class TestGuardPropagation:
    def _pair(self):
        return make_firewall(11, 8), make_firewall(12, 8)

    def test_tiny_budget_trips(self):
        fw_a, fw_b = self._pair()
        with pytest.raises(BudgetExceededError) as excinfo:
            compare_sharded(
                fw_a, fw_b, plan_shards(fw_a, fw_b, 3), budget=Budget(max_nodes=2)
            )
        assert excinfo.value.resource == "fdd-nodes"

    def test_aggregate_spend_is_enforced_across_shards(self):
        # Each shard individually fits in the budget, but their sum does
        # not: the merge-side re-ticking must trip.
        fw_a, fw_b = self._pair()
        unguarded = compare_sharded(
            fw_a, fw_b, plan_shards(fw_a, fw_b, 4), budget=Budget(max_nodes=10**9)
        )
        total = unguarded.outcome["nodes_expanded"]
        per_shard = max(
            shard.progress["nodes_expanded"] for shard in unguarded.shards
        )
        if per_shard >= total:  # pragma: no cover - single-shard plan
            pytest.skip("plan produced one dominant shard")
        with pytest.raises(BudgetExceededError):
            # Generous enough for the largest single shard (each worker
            # gets the parent's remaining headroom, which shrinks as the
            # merge re-ticks), never for the aggregate.
            compare_sharded(
                fw_a,
                fw_b,
                plan_shards(fw_a, fw_b, 4),
                budget=Budget(max_nodes=total - 1),
            )

    def test_within_budget_outcome_aggregates_shard_spend(self):
        fw_a, fw_b = self._pair()
        par = compare_sharded(
            fw_a, fw_b, plan_shards(fw_a, fw_b, 3), budget=Budget(max_nodes=10**9)
        )
        assert par.outcome is not None
        assert par.outcome["exhausted"] is None
        # The piece tasks' construction spend ticks the parent first
        # (``construction``), then every shard's product-walk spend.
        assert par.outcome["nodes_expanded"] == par.construction.get(
            "nodes_expanded", 0
        ) + sum(shard.progress["nodes_expanded"] for shard in par.shards)
        assert canonical(par.summary()) == canonical(serial_summary(fw_a, fw_b))

    def test_injected_fault_trips_like_serial(self):
        fw_a, fw_b = self._pair()
        serial_fault = FaultInjector()
        serial_fault.arm("fast.rule", after=2)
        with pytest.raises(FaultInjectedError):
            from repro.fdd.fast import construct_fdd_fast
            from repro.guard import GuardContext

            guard = GuardContext(Budget.unlimited(), fault=serial_fault)
            construct_fdd_fast(fw_a, guard=guard)
            construct_fdd_fast(fw_b, guard=guard)

        parallel_fault = FaultInjector()
        parallel_fault.arm("fast.rule", after=2)
        with pytest.raises(FaultInjectedError) as excinfo:
            compare_sharded(
                fw_a, fw_b, plan_shards(fw_a, fw_b, 3), fault=parallel_fault
            )
        assert excinfo.value.site == "fast.rule"


# ----------------------------------------------------------------------
# Real process pools
# ----------------------------------------------------------------------


class TestProcessPools:
    def _pair(self):
        return make_firewall(21, 10), make_firewall(22, 10)

    def test_fork_pool_matches_serial(self):
        fw_a, fw_b = self._pair()
        par = compare_parallel(
            fw_a, fw_b, jobs=2, start_method="fork"
        )
        assert canonical(par.summary()) == canonical(serial_summary(fw_a, fw_b))

    def test_spawn_pool_matches_serial(self):
        # Spawn re-imports everything in the worker: proves all shipped
        # objects (firewalls, budgets, tasks) are truly picklable.
        fw_a, fw_b = self._pair()
        par = compare_parallel(
            fw_a, fw_b, jobs=2, start_method="spawn"
        )
        assert canonical(par.summary()) == canonical(serial_summary(fw_a, fw_b))

    def test_budget_trip_crosses_process_boundary(self):
        fw_a, fw_b = self._pair()
        with pytest.raises(BudgetExceededError) as excinfo:
            compare_parallel(
                fw_a,
                fw_b,
                jobs=2,
                start_method="fork",
                budget=Budget(max_nodes=2),
            )
        assert excinfo.value.resource == "fdd-nodes"
        assert excinfo.value.limit == 2


# ----------------------------------------------------------------------
# Dispatchers: jobs picks where the tasks run, never what they compute
# ----------------------------------------------------------------------


def _counters(progress: dict) -> dict:
    """A guard's spend counters, without its wall-clock reading."""
    return {key: value for key, value in progress.items() if key != "elapsed_s"}


class TestDispatchers:
    def test_compare_sharded_same_answer_and_spend(self):
        fw_a, fw_b = make_firewall(91, 10), make_firewall(92, 10)
        shards = plan_shards(fw_a, fw_b, 4)

        def run(**options):
            return compare_sharded(
                fw_a,
                fw_b,
                shards,
                budget=Budget(max_nodes=10**9),
                enumerate_discrepancies=True,
                **options,
            )

        pool = get_pool("fork")
        before = pool.stats()["tasks_dispatched"]
        serial = run(jobs=1)
        assert pool.stats()["tasks_dispatched"] == before
        pooled = run(jobs=2, start_method="fork")
        assert pool.stats()["tasks_dispatched"] > before
        assert canonical(serial.summary()) == canonical(pooled.summary())
        assert serial.discrepancies == pooled.discrepancies
        assert (
            serial.outcome["nodes_expanded"] == pooled.outcome["nodes_expanded"]
        )
        assert _counters(serial.construction) == _counters(pooled.construction)
        assert [_counters(shard.progress) for shard in serial.shards] == [
            _counters(shard.progress) for shard in pooled.shards
        ]


@pytest.mark.parametrize("jobs", [0, -2])
@pytest.mark.parametrize(
    "call",
    [
        lambda fw_a, fw_b, jobs: compare_parallel(fw_a, fw_b, jobs=jobs),
        lambda fw_a, fw_b, jobs: compare_sharded(
            fw_a, fw_b, plan_shards(fw_a, fw_b, 2), jobs=jobs
        ),
    ],
    ids=["compare_parallel", "compare_sharded"],
)
def test_jobs_below_one_is_rejected(call, jobs):
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        call(make_firewall(1), make_firewall(2), jobs)


# ----------------------------------------------------------------------
# Exception transport (pickling through Pool result queues)
# ----------------------------------------------------------------------


#: Every picklable guard/transport exception, with all attributes set.
_PICKLABLE_ERRORS = [
    BudgetExceededError(
        "node budget exceeded: 11 > 10",
        resource="fdd-nodes",
        spent=11,
        limit=10,
        progress={"nodes_expanded": 11},
    ),
    CancelledError(site="fast.rule"),
    FaultInjectedError("fast.product"),
    NotComprehensiveError("no rule matches", witness=(1, 2, 3)),
    ParseError("bad token", line=7),
    SupervisionError(
        "shard 3 failed after 2 attempt(s): worker-crash",
        shard=3,
        reason="worker-crash",
        attempts=2,
    ),
]

#: Attributes the round trip must preserve (whichever exist per error).
_PRESERVED_ATTRS = (
    "resource",
    "spent",
    "limit",
    "progress",
    "site",
    "witness",
    "line",
    "shard",
    "reason",
    "attempts",
)


def _round_trip_error(error):
    """Worker target: re-pickle the exception in a child process."""
    return pickle.loads(pickle.dumps(error))


def _raise_error(error):
    """Worker target: raise the exception (Pool pickles it back)."""
    raise error


def _assert_clone(clone, error) -> None:
    assert type(clone) is type(error)
    assert str(clone) == str(error)
    for attr in _PRESERVED_ATTRS:
        if hasattr(error, attr):
            assert getattr(clone, attr) == getattr(error, attr)


class TestExceptionPickling:
    @pytest.mark.parametrize("error", _PICKLABLE_ERRORS)
    def test_round_trip_preserves_attributes(self, error):
        _assert_clone(pickle.loads(pickle.dumps(error)), error)

    def test_spawn_worker_round_trip_preserves_attributes(self):
        # Fork inherits the parent's memory, so only spawn proves the
        # reduce hooks rebuild these errors in a fresh interpreter —
        # both as return values and raised through the result queue.
        import multiprocessing as mp

        ctx = mp.get_context("spawn")
        with ctx.Pool(1) as pool:
            for error in _PICKLABLE_ERRORS:
                _assert_clone(pool.apply(_round_trip_error, (error,)), error)
                with pytest.raises(type(error)) as excinfo:
                    pool.apply(_raise_error, (error,))
                _assert_clone(excinfo.value, error)
