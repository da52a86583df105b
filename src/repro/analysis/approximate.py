"""Approximate comparison: the budget-exhausted degraded mode.

The exact pipeline is complete — Theorem 1's ``(2n - 1)^d`` path bound
also means it can exceed any budget on adversarial inputs.  When that
happens, ``repro compare``, ``equivalent`` and ``impact`` with
``--approx-fallback`` degrade to :func:`approximate_compare`,
**stratified random packet sampling**, instead of crashing: evaluate
both rule lists directly (linear per packet, no FDD at all) on packets
drawn from strata chosen to maximize the chance of catching a
disagreement, and report the packets that differ as single-packet
discrepancy cells.

The strata, drawn via :class:`repro.synth.traces.BoundaryTraceGenerator`:

* **boundary of A** — packets biased to firewall A's rule-interval
  endpoints, where A's decisions flip;
* **boundary of B** — likewise for firewall B (a discrepancy region's
  corners lie on one of the two policies' boundaries);
* **uniform** — unbiased draws over the whole universe, so huge
  discrepancy regions far from any boundary are still likely sampled.

The result is explicitly second-class and says so: the report carries a
``coverage`` estimate (the fraction of the packet universe actually
evaluated — honest and usually tiny).  An
empty approximate report does **not** prove equivalence; see
``docs/robustness.md`` for the exact semantics and the CLI exit codes.
"""

from __future__ import annotations

from repro.analysis.discrepancy import ComparisonReport, Discrepancy
from repro.exceptions import SchemaError
from repro.guard.context import GuardContext
from repro.intervals.intervalset import IntervalSet
from repro.policy.firewall import Firewall
from repro.synth.traces import BoundaryTraceGenerator

__all__ = ["approximate_compare"]


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
    packets as single-packet :class:`Discrepancy` cells with the
    sample's coverage.  Deterministic for a given ``seed``.

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
    >>> report.coverage, len(report.discrepancies)  # a 10-packet universe
    (1.0, 5)
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
        coverage=coverage,
        sampled_packets=len(seen),
    )

