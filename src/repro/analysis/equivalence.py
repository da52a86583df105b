"""Semantic equivalence of firewalls.

Two firewalls are equivalent iff they define the same mapping from packets
to decisions (Section 3.1, ``f1 == f2``).  Equivalence reduces to the
comparison returning no discrepancies — the completeness of the three
algorithms makes this an exact decision procedure, not a sampler.

Both run on the hash-consed difference diagram
(:func:`repro.fdd.fast.compare_fast`): equivalence is a short-circuiting
reachability test on it, and the disputed-packet count a weighted model
count — no cell enumeration.  The tests cross-validate both against the
paper-literal construct/shape/compare pipeline on the synthesized corpus.
"""

from __future__ import annotations

from repro.fdd.fast import compare_fast
from repro.guard.context import GuardContext
from repro.policy.firewall import Firewall

__all__ = ["equivalent", "disputed_packet_count"]


def equivalent(
    fw_a: Firewall,
    fw_b: Firewall,
    *,
    guard: GuardContext | None = None,
) -> bool:
    """True iff the two firewalls decide every packet identically.

    ``guard`` bounds the underlying comparison; a budget trip raises
    :class:`~repro.exceptions.BudgetExceededError` rather than returning
    a possibly-wrong verdict — equivalence is all-or-nothing.

    >>> from repro.fields import toy_schema
    >>> from repro.policy import Firewall, Rule, ACCEPT, DISCARD
    >>> schema = toy_schema(9)
    >>> fw1 = Firewall(schema, [Rule.build(schema, ACCEPT, F1=(0, 3)),
    ...                         Rule.build(schema, DISCARD)])
    >>> fw2 = Firewall(schema, [Rule.build(schema, DISCARD, F1=(4, 9)),
    ...                         Rule.build(schema, ACCEPT)])
    >>> equivalent(fw1, fw2)
    True
    """
    return not compare_fast(fw_a, fw_b, guard=guard).has_discrepancy()


def disputed_packet_count(
    fw_a: Firewall,
    fw_b: Firewall,
    *,
    guard: GuardContext | None = None,
) -> int:
    """Number of packets on which the two firewalls disagree.

    Exact: a weighted model count over the difference diagram.
    """
    return compare_fast(fw_a, fw_b, guard=guard).disputed_packet_count()
