"""Shared fixtures and hypothesis strategies for the test suite.

The central testing idea mirrors the paper's own correctness argument:
for *small* schemas every algorithm can be checked against brute force
(enumerate or sample packets, evaluate the rule list directly), so the
suite generates random firewalls over toy schemas and verifies each
pipeline stage preserves exact semantics.
"""

from __future__ import annotations

import pytest
from hypothesis import strategies as st

from repro.fields import FieldSchema, toy_schema
from repro.intervals import Interval, IntervalSet
from repro.policy import ACCEPT, ACCEPT_LOG, DISCARD, DISCARD_LOG, Firewall, Predicate, Rule

# ----------------------------------------------------------------------
# Plain fixtures
# ----------------------------------------------------------------------


@pytest.fixture
def schema2() -> FieldSchema:
    """Two tiny fields: enough for most algebraic tests."""
    return toy_schema(15, 15)


@pytest.fixture
def schema3() -> FieldSchema:
    """Three tiny fields: exercises field-skipping and deeper diagrams."""
    return toy_schema(9, 9, 9)


# ----------------------------------------------------------------------
# Hypothesis strategies
# ----------------------------------------------------------------------


def intervals(max_value: int) -> st.SearchStrategy[Interval]:
    """A random interval within ``[0, max_value]``."""
    return st.tuples(
        st.integers(min_value=0, max_value=max_value),
        st.integers(min_value=0, max_value=max_value),
    ).map(lambda pair: Interval(min(pair), max(pair)))


def interval_sets(max_value: int, max_intervals: int = 3) -> st.SearchStrategy[IntervalSet]:
    """A random non-empty interval set within ``[0, max_value]``."""
    return st.lists(
        intervals(max_value), min_size=1, max_size=max_intervals
    ).map(IntervalSet)


def predicates(schema: FieldSchema) -> st.SearchStrategy[Predicate]:
    """A random predicate over ``schema`` (non-empty on every field)."""
    return st.tuples(
        *(interval_sets(field.max_value) for field in schema)
    ).map(lambda sets: Predicate(schema, sets))


def decisions(include_log: bool = False) -> st.SearchStrategy:
    options = [ACCEPT, DISCARD]
    if include_log:
        options += [ACCEPT_LOG, DISCARD_LOG]
    return st.sampled_from(options)


def rules(schema: FieldSchema, include_log: bool = False) -> st.SearchStrategy[Rule]:
    return st.builds(Rule, predicates(schema), decisions(include_log))


def firewalls(
    schema: FieldSchema,
    max_rules: int = 5,
    include_log: bool = False,
) -> st.SearchStrategy[Firewall]:
    """A random comprehensive firewall: random rules plus a catch-all."""

    def build(items: tuple[list[Rule], object]) -> Firewall:
        body, default = items
        catchall = Rule(Predicate.match_all(schema), default)
        return Firewall(schema, body + [catchall])

    return st.tuples(
        st.lists(rules(schema, include_log), min_size=0, max_size=max_rules),
        decisions(include_log),
    ).map(build)


# ----------------------------------------------------------------------
# Brute-force oracles
# ----------------------------------------------------------------------


def brute_force_diff(fw_a: Firewall, fw_b: Firewall) -> set[tuple[int, ...]]:
    """All packets (enumerated) on which two small firewalls disagree."""
    from repro.fields import enumerate_universe

    return {
        tuple(packet)
        for packet in enumerate_universe(fw_a.schema)
        if fw_a(packet) != fw_b(packet)
    }


def covered_packets(discrepancies) -> set[tuple[int, ...]]:
    """Expand a discrepancy list into its packet set (small schemas only)."""
    out: set[tuple[int, ...]] = set()
    for disc in discrepancies:
        def rec(index: int, prefix: tuple[int, ...]):
            if index == len(disc.sets):
                out.add(prefix)
                return
            for value in disc.sets[index]:
                rec(index + 1, prefix + (value,))

        rec(0, ())
    return out


def _without_if_redundant(firewall: Firewall, index: int, root, store):
    """``firewall`` without rule ``index`` if that keeps its root ``root``.

    The candidate is built in ``store``, which interns each canonical
    reduced diagram once, so it is equivalent iff its root *is* ``root``.
    """
    from repro.exceptions import NotComprehensiveError

    if len(firewall) == 1:
        return None
    try:
        candidate = firewall.remove(index)
    except NotComprehensiveError:
        return None
    if store.construct(candidate).root is root:
        return candidate
    return None


def candidate_redundant(firewall: Firewall) -> list[int]:
    """Complete redundancy by construction: one candidate policy per rule."""
    from repro.fdd.store import NodeStore

    store = NodeStore()
    root = store.construct(firewall).root
    return [
        index
        for index in range(len(firewall))
        if _without_if_redundant(firewall, index, root, store) is not None
    ]


def candidate_remove(firewall: Firewall) -> Firewall:
    """The top-down greedy sweep to fixpoint, one construction per candidate:
    at each index drop the rule if the policy without it keeps its root."""
    from repro.fdd.store import NodeStore

    store = NodeStore()
    root = store.construct(firewall).root
    current = firewall
    changed = True
    while changed:
        changed = False
        index = 0
        while index < len(current):
            candidate = _without_if_redundant(current, index, root, store)
            if candidate is None:
                index += 1
            else:
                # Stay at the same index: the next rule shifted into it.
                current = candidate
                changed = True
    return current
