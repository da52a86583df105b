"""Partition construction: the canonical reduced FDD, built top-down.

Section 3's construction (Fig. 7, :meth:`~repro.fdd.store.NodeStore.construct`)
folds the rules in one at a time, so every rule's intermediate diagram is
allocated on the way to the final one: on a 300-rule Fig. 13 policy the
store allocates ten nodes for every node the final diagram keeps.  The
final diagram itself depends only on how the rules overlap, which this
module reads off directly:

* a node for field ``i`` is reached with the ordered list of rules that
  still match the path so far (its *live* rules);
* the field's domain is cut at the live rules' set boundaries, and each
  elementary interval gets the ordered sublist of live rules that contain
  it; an interval no rule covers gets no edge, as in the fold;
* a rule is dropped from a sublist when an earlier kept rule's box, over
  the remaining fields, contains the rule's box (it can never be the
  first match there), so equal subproblems get equal sublists;
* the child of each interval is the diagram of ``(field i + 1, sublist)``,
  memoized for the call, and intervals leading to the same child merge
  into one edge label.

Every node is interned through the store, so the result is the same
canonical reduced diagram the fold builds — in one store, the very same
root object.  The fold stays where its intermediate roots are the point
(which rules take effect, :mod:`repro.analysis.effective`; complete
redundancy, :mod:`repro.analysis.redundancy`) and as the reference the
differential tests check this module against.

Rule sublists are Python ints used as bitsets: bit ``r`` is rule ``r``,
so ascending bit order is first-match order and a sublist is its own
memo key.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.fdd.fdd import FDD
from repro.fdd.node import Node
from repro.guard.context import GuardContext
from repro.intervals.interval import Interval
from repro.intervals.intervalset import IntervalSet
from repro.policy.firewall import Firewall

if TYPE_CHECKING:
    from repro.fdd.store import NodeStore

__all__ = ["build"]


def build(
    store: "NodeStore", firewall: Firewall, *, guard: GuardContext | None = None
) -> FDD:
    """The firewall's canonical reduced FDD, interned in ``store``.

    ``guard`` ticks one node per partition visit (every sublist whose
    child is looked up, memo hits included) and checkpoints the
    ``fast.rule`` site once per subproblem the call has not seen.
    """
    schema = firewall.schema
    num_fields = len(schema)
    rules = firewall.rules
    intern = store.intern_set
    sets = [tuple(map(intern, rule.predicate.sets)) for rule in rules]
    spans = [
        [tuple((iv.lo, iv.hi + 1) for iv in values.intervals) for values in row]
        for row in sets
    ]
    # bounds[r][i] = (min, max, one interval?) of rule r's field-i set.
    bounds = [
        [(values.min(), values.max(), values.is_single_interval()) for values in row]
        for row in sets
    ]
    # open_from[r]: the first field from which rule r matches every value.
    domains = [intern(fld.domain_set) for fld in schema]
    open_from = []
    for row in sets:
        start = num_fields
        while start > 0 and row[start - 1] is domains[start - 1]:
            start -= 1
        open_from.append(start)
    decisions = [rule.decision for rule in rules]
    terminal = store.terminal
    make_node = store._node

    # reach[r][p]: the first field from which rule p's box contains
    # rule r's box on every remaining field.
    reach: list[dict[int, int]] = [{} for _ in rules]

    def first_containing_field(p: int, r: int) -> int:
        row_p, row_r = sets[p], sets[r]
        bounds_p, bounds_r = bounds[p], bounds[r]
        field = num_fields
        while field > 0:
            k = field - 1
            outer, inner = row_p[k], row_r[k]
            if outer is not inner:
                lo_p, hi_p, single = bounds_p[k]
                lo_r, hi_r, _ = bounds_r[k]
                if lo_r < lo_p or hi_r > hi_p:
                    break
                if not single and not inner.issubset(outer):
                    break
            field = k
        return field

    def kept(candidates: int, field: int) -> int:
        """``candidates`` minus every rule an earlier kept rule's box
        contains over fields ``field ..``."""
        kept_rules: list[int] = []
        result = 0
        rest = candidates
        while rest:
            low = rest & -rest
            rest ^= low
            r = low.bit_length() - 1
            known = reach[r]
            for p in kept_rules:
                found = known.get(p)
                if found is None:
                    found = known[p] = first_containing_field(p, r)
                if found <= field:
                    break
            else:
                kept_rules.append(r)
                result |= low
                if open_from[r] <= field:
                    break
        return result

    memo: dict[tuple[int, int], Node] = {}

    def child(field: int, candidates: int) -> Node:
        """The diagram over fields ``field ..`` of the rules in ``candidates``."""
        if guard is not None:
            guard.tick_nodes()
        if field == num_fields:
            return terminal(decisions[(candidates & -candidates).bit_length() - 1])
        key = (field, candidates)
        found = memo.get(key)
        if found is not None:
            return found
        live = kept(candidates, field)
        found = memo.get((field, live))
        if found is None:
            if guard is not None:
                guard.checkpoint("fast.rule")
            found = partition(field, live)
            memo[(field, live)] = found
        memo[key] = found
        return found

    def partition(field: int, live: int) -> Node:
        # Toggle masks at each cut point: a rule's bit flips on where one
        # of its intervals starts and off just past where it ends.
        toggles: dict[int, int] = {}
        rest = live
        while rest:
            low = rest & -rest
            rest ^= low
            for lo, end in spans[low.bit_length() - 1][field]:
                toggles[lo] = toggles.get(lo, 0) ^ low
                toggles[end] = toggles.get(end, 0) ^ low
        points = sorted(toggles)
        next_field = field + 1
        labels: dict[int, list] = {}
        active = 0
        for at in range(len(points) - 1):
            lo = points[at]
            active ^= toggles[lo]
            if not active:
                continue
            target = child(next_field, active)
            hi = points[at + 1] - 1
            slot = labels.get(id(target))
            if slot is None:
                labels[id(target)] = [target, [lo, hi]]
            elif slot[1][-1] + 1 == lo:
                slot[1][-1] = hi
            else:
                slot[1].extend((lo, hi))
        edges = []
        for target, flat in labels.values():
            label = IntervalSet._from_canonical(
                tuple(Interval(flat[k], flat[k + 1]) for k in range(0, len(flat), 2))
            )
            edges.append((intern(label), target))
        return make_node(field, edges)

    root = child(0, (1 << len(rules)) - 1)
    return FDD(schema, root)
