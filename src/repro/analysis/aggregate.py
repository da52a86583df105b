"""Aggregation of discrepancies into maximal human-readable regions.

The raw comparison algorithm reports one discrepancy per differing
decision path of the shaped FDDs.  Shaping splits edges aggressively, so
semantically-one region often arrives as many slivers; the paper's
Table 3 presents the *merged* regions.  This pass coalesces discrepancies
that carry the same decision pair and agree on every field but one —
their union is again a box, because the disagreeing field's interval sets
simply union.  Sweeping each field in turn until a fixpoint yields maximal
boxes independent of input order.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

from repro.analysis.discrepancy import Discrepancy
from repro.intervals.intervalset import IntervalSet

__all__ = ["aggregate_discrepancies"]


def aggregate_discrepancies(
    discrepancies: Sequence[Discrepancy],
) -> list[Discrepancy]:
    """Merge discrepancy slivers into maximal boxes.

    Returns a new list covering exactly the same packets with the same
    decision pairs, sorted by decision pair and then by field values, so
    output is deterministic.

    >>> from repro.fields import toy_schema
    >>> from repro.policy import ACCEPT, DISCARD
    >>> schema = toy_schema(9, 9)
    >>> cells = [
    ...     Discrepancy(schema, (IntervalSet.of((0, 4)), IntervalSet.of((2, 3))),
    ...                 ACCEPT, DISCARD),
    ...     Discrepancy(schema, (IntervalSet.of((5, 9)), IntervalSet.of((2, 3))),
    ...                 ACCEPT, DISCARD),
    ... ]
    >>> [str(d.sets[0]) for d in aggregate_discrepancies(cells)]
    ['{[0, 9]}']
    """
    if not discrepancies:
        return []
    groups: dict[tuple, list[Discrepancy]] = defaultdict(list)
    for disc in discrepancies:
        groups[(disc.decision_a, disc.decision_b)].append(disc)

    merged: list[Discrepancy] = []
    for (dec_a, dec_b), members in groups.items():
        schema = members[0].schema
        boxes = [disc.sets for disc in members]
        boxes = _merge_boxes(boxes, len(schema))
        for sets in boxes:
            merged.append(Discrepancy(schema, sets, dec_a, dec_b))

    merged.sort(
        key=lambda d: (
            d.decision_a.name,
            d.decision_b.name,
            tuple(values.min() for values in d.sets),
            tuple(values.max() for values in d.sets),
        )
    )
    return merged


def _merge_boxes(
    boxes: list[tuple[IntervalSet, ...]], num_fields: int
) -> list[tuple[IntervalSet, ...]]:
    """Union boxes that agree on all fields but one, to a fixpoint."""
    changed = True
    while changed:
        changed = False
        for field in range(num_fields):
            buckets: dict[tuple, IntervalSet] = {}
            order: list[tuple] = []
            for sets in boxes:
                key = tuple(sets[i] for i in range(num_fields) if i != field)
                if key in buckets:
                    buckets[key] = buckets[key] | sets[field]
                    changed = True
                else:
                    buckets[key] = sets[field]
                    order.append(key)
            if len(order) != len(boxes):
                rebuilt: list[tuple[IntervalSet, ...]] = []
                for key in order:
                    values = buckets[key]
                    sets = list(key)
                    sets.insert(field, values)
                    rebuilt.append(tuple(sets))
                boxes = rebuilt
    return boxes
