"""Approximate comparison: the budget-exhausted degraded mode.

The exact pipeline is complete — Theorem 1's ``(2n - 1)^d`` path bound
also means it can exceed any budget on adversarial inputs.  When that
happens, :func:`compare_with_fallback` degrades to **stratified random
packet sampling** instead of crashing: evaluate both rule lists directly
(linear per packet, no FDD at all) on packets drawn from strata chosen to
maximize the chance of catching a disagreement, and report the packets
that differ as single-packet discrepancy cells.

The strata, drawn via :class:`repro.synth.traces.BoundaryTraceGenerator`:

* **boundary of A** — packets biased to firewall A's rule-interval
  endpoints, where A's decisions flip;
* **boundary of B** — likewise for firewall B (a discrepancy region's
  corners lie on one of the two policies' boundaries);
* **uniform** — unbiased draws over the whole universe, so huge
  discrepancy regions far from any boundary are still likely sampled.

The result is explicitly second-class and says so: the report is flagged
``approximate=True`` and carries a ``coverage`` estimate (the fraction of
the packet universe actually evaluated — honest and usually tiny).  An
empty approximate report does **not** prove equivalence; see
``docs/robustness.md`` for the exact semantics and the CLI exit codes.
"""

from __future__ import annotations

from repro.analysis.discrepancy import ComparisonReport, Discrepancy
from repro.exceptions import BudgetExceededError, SchemaError
from repro.guard.budget import Budget
from repro.guard.context import GuardContext
from repro.intervals.intervalset import IntervalSet
from repro.policy.firewall import Firewall
from repro.synth.traces import BoundaryTraceGenerator

__all__ = ["approximate_compare", "compare_with_fallback"]


def approximate_compare(
    fw_a: Firewall,
    fw_b: Firewall,
    *,
    samples: int = 2000,
    seed: int = 0,
    guard: GuardContext | None = None,
) -> ComparisonReport:
    """Sample-based comparison (degraded mode; never builds an FDD).

    Draws ``samples`` packets from the three strata described in the
    module docstring (40% boundary-of-A, 40% boundary-of-B, 20% uniform),
    evaluates both rule lists on each, and returns the disagreeing
    packets as single-packet :class:`Discrepancy` cells in a report
    flagged ``approximate=True``.  Deterministic for a given ``seed``.

    Cost is ``O(samples * (|a| + |b|))`` — bounded by construction, no
    budget needed.  A ``guard`` is honoured anyway (one node tick per
    packet) so a caller-wide deadline still covers the fallback.

    >>> from repro.fields import toy_schema
    >>> from repro.policy import Firewall, Rule, ACCEPT, DISCARD
    >>> schema = toy_schema(9)
    >>> fa = Firewall(schema, [Rule.build(schema, ACCEPT)])
    >>> fb = Firewall(schema, [Rule.build(schema, DISCARD, F1=(0, 4)),
    ...                        Rule.build(schema, ACCEPT)])
    >>> report = approximate_compare(fa, fb, samples=200, seed=1)
    >>> report.approximate, len(report.discrepancies) > 0
    (True, True)
    """
    if fw_a.schema != fw_b.schema:
        raise SchemaError("cannot compare firewalls over different field schemas")
    if guard is not None:
        guard.checkpoint("approximate.sample")
    schema = fw_a.schema
    boundary_share = (2 * samples) // 5
    plan = (
        (BoundaryTraceGenerator(fw_a, seed=seed, uniform_p=0.0), boundary_share),
        (BoundaryTraceGenerator(fw_b, seed=seed + 1, uniform_p=0.0), boundary_share),
        (
            BoundaryTraceGenerator(fw_a, seed=seed + 2, uniform_p=1.0),
            samples - 2 * boundary_share,
        ),
    )
    seen: set[tuple[int, ...]] = set()
    disagreements: list[Discrepancy] = []
    for generator, count in plan:
        for _ in range(count):
            packet = tuple(generator.packet())
            if packet in seen:
                continue
            seen.add(packet)
            if guard is not None:
                guard.tick_nodes()
            dec_a = fw_a(packet)
            dec_b = fw_b(packet)
            if dec_a != dec_b:
                if guard is not None:
                    guard.tick_discrepancies()
                sets = tuple(
                    IntervalSet.span(value, value) for value in packet
                )
                disagreements.append(Discrepancy(schema, sets, dec_a, dec_b))
    coverage = min(1.0, len(seen) / schema.universe_size())
    return ComparisonReport(
        discrepancies=tuple(disagreements),
        approximate=True,
        coverage=coverage,
        sampled_packets=len(seen),
        outcome=guard.outcome() if guard is not None else None,
    )


def compare_with_fallback(
    fw_a: Firewall,
    fw_b: Firewall,
    *,
    budget: Budget | None = None,
    guard: GuardContext | None = None,
    samples: int = 2000,
    seed: int = 0,
) -> ComparisonReport:
    """Exact comparison under a budget, degrading to sampling on trip.

    Runs the exact comparison (:func:`repro.fdd.fast.compare_fast`)
    under ``budget`` (or an explicit ``guard``).  Within budget, the
    returned report is exact (``approximate=False``, ``coverage=1.0``).
    If the budget trips, the partial exact state is discarded — nothing
    half-built leaks — and :func:`approximate_compare` produces a flagged
    partial report whose ``outcome`` records which resource was exhausted
    and how far the exact attempt got.  The function only raises for *non-budget* errors
    (schema mismatch, cancellation, ...).

    >>> from repro.fields import toy_schema
    >>> from repro.policy import Firewall, Rule, ACCEPT
    >>> schema = toy_schema(9)
    >>> fw = Firewall(schema, [Rule.build(schema, ACCEPT)])
    >>> compare_with_fallback(fw, fw).proves_equivalence()
    True
    """
    from repro.fdd.fast import compare_fast

    if guard is None:
        guard = GuardContext(budget if budget is not None else Budget.unlimited())
    try:
        discrepancies = compare_fast(fw_a, fw_b, guard=guard).discrepancies(guard=guard)
    except BudgetExceededError:
        report = approximate_compare(fw_a, fw_b, samples=samples, seed=seed)
        # Replace the sampler's (empty) outcome with the exact attempt's,
        # which records the tripped resource and the progress witness.
        return ComparisonReport(
            discrepancies=report.discrepancies,
            approximate=True,
            coverage=report.coverage,
            sampled_packets=report.sampled_packets,
            outcome=guard.outcome(),
        )
    return ComparisonReport(
        discrepancies=tuple(discrepancies),
        approximate=False,
        coverage=1.0,
        sampled_packets=0,
        outcome=guard.outcome(),
    )
