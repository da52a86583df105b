"""Differential oracle: the sharded merge vs the serial difference diagram.

``compare --jobs N`` cuts field 0's domain into shards, compares each
shard's restriction of the two policies, and adds the shards' results
up.  The serial engine (:func:`repro.fdd.fast.compare_fast`) builds one
difference diagram for the whole domain.  Their disputed-packet total
and their disputed volume per ``(decision_a, decision_b)`` pair are
functions of the two policies alone, so they must be equal for every
shard plan: arbitrary field-0 cuts here, not only the weight-balanced
plans :func:`~repro.parallel.engine.plan_shards` makes.  ``jobs=1`` runs
the same piece and shard tasks as a pool would, in this process.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fdd.fast import compare_fast
from repro.fields import toy_schema
from repro.intervals import IntervalSet
from repro.parallel.engine import compare_sharded

from tests.conftest import firewalls

SCHEMAS = (toy_schema(19, 9), toy_schema(9, 9, 9), toy_schema(5, 3, 9, 3))


@st.composite
def sharded_pairs(draw):
    schema = draw(st.sampled_from(SCHEMAS))
    fw_a = draw(firewalls(schema, max_rules=6, include_log=True))
    fw_b = draw(firewalls(schema, max_rules=6, include_log=True))
    top = schema[0].max_value
    cuts = sorted(draw(st.sets(st.integers(1, top), max_size=4)))
    bounds = [0, *cuts, top + 1]
    shards = [IntervalSet.span(lo, hi - 1) for lo, hi in zip(bounds, bounds[1:])]
    return fw_a, fw_b, shards


@settings(max_examples=150, deadline=None)
@given(sharded_pairs())
def test_sharded_merge_is_the_serial_comparison(case):
    fw_a, fw_b, shards = case
    serial = compare_fast(fw_a, fw_b)
    merged = compare_sharded(fw_a, fw_b, shards, jobs=1)
    assert merged.disputed_packets == serial.disputed_packet_count()
    assert merged.by_decisions == serial.disputed_by_decisions()
