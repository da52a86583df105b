"""Firewall change impact analysis (Sections 1.3 and 8.1).

"The impact of the changes can literally be defined as the functional
discrepancies between the firewall before changes and the firewall after
changes."  This module runs the comparison pipeline on the before/after
pair, classifies each discrepancy by its security meaning, and renders an
administrator-facing report:

* **newly allowed** — packets that were blocked and now pass (the change
  may have opened a hole);
* **newly blocked** — packets that passed and are now dropped (the change
  may have broken a business flow);
* **handling changed** — the permit/deny outcome is unchanged but the
  decision differs (e.g. logging was added or removed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from repro.analysis.aggregate import aggregate_discrepancies
from repro.analysis.discrepancy import (
    Discrepancy,
    format_discrepancy_table,
    label_formatter,
)
from repro.fdd.fast import compare_fast
from repro.guard.context import GuardContext
from repro.policy.firewall import Firewall

__all__ = ["ImpactKind", "ChangeImpactReport", "analyze_change"]

#: Partition visits, both sides together, that a ``jobs > 1`` comparison
#: builds serially before it starts a worker pool.  A pair whose two
#: builds finish below it is compared in this process.  The value is
#: the pool's fixed first-call cost divided by the fastest partition
#: visit, both measured on the same machine (docs/performance.md,
#: "When --jobs stays serial"), so below it the serial build costs
#: less than starting the pool alone.
FANOUT_MIN_VISITS = 40_000


class ImpactKind:
    """Classification labels for a change-impact discrepancy."""

    NEWLY_ALLOWED = "newly allowed"
    NEWLY_BLOCKED = "newly blocked"
    HANDLING_CHANGED = "handling changed"

    @staticmethod
    def classify(disc: Discrepancy) -> str:
        """Classify a before(``a``)/after(``b``) discrepancy."""
        before, after = disc.decision_a, disc.decision_b
        if not before.permits and after.permits:
            return ImpactKind.NEWLY_ALLOWED
        if before.permits and not after.permits:
            return ImpactKind.NEWLY_BLOCKED
        return ImpactKind.HANDLING_CHANGED


@dataclass
class ChangeImpactReport:
    """The full impact of a policy change."""

    before: Firewall
    after: Firewall
    discrepancies: list[Discrepancy] = field(default_factory=list)
    #: Supervised-parallel degradation records (``jobs > 1`` only): one
    #: JSON-safe dict per shard re-run serially after its worker
    #: dispatches failed.  Empty for serial and fault-free runs; the
    #: discrepancy list is exact either way.
    degradations: list[dict] = field(default_factory=list)

    @property
    def is_noop(self) -> bool:
        """True when the change did not alter the policy's semantics."""
        return not self.discrepancies

    def by_kind(self) -> dict[str, list[Discrepancy]]:
        """Group the discrepancies by impact classification."""
        groups: dict[str, list[Discrepancy]] = {
            ImpactKind.NEWLY_ALLOWED: [],
            ImpactKind.NEWLY_BLOCKED: [],
            ImpactKind.HANDLING_CHANGED: [],
        }
        for disc in self.discrepancies:
            groups[ImpactKind.classify(disc)].append(disc)
        return groups

    def affected_packets(self) -> int:
        """Total number of packets whose decision changed (exact)."""
        return sum(disc.size() for disc in self.discrepancies)

    def render(self) -> str:
        """Multi-line administrator-facing report."""
        name_before = self.before.name or "before"
        name_after = self.after.name or "after"
        lines = [f"change impact: {name_before!r} -> {name_after!r}"]
        if self.degradations:
            lines.append(
                f"  note: {len(self.degradations)} comparison shard(s)"
                " degraded to serial execution (result still exact)"
            )
        if self.is_noop:
            lines.append("  the change has no semantic effect (policies equivalent)")
            return "\n".join(lines)
        lines.append(
            f"  {len(self.discrepancies)} discrepancy region(s),"
            f" {self.affected_packets()} packet(s) affected"
        )
        fmt = label_formatter(self.discrepancies[0].schema)
        for kind, discs in self.by_kind().items():
            if not discs:
                continue
            lines.append(f"  {kind} ({len(discs)} region(s)):")
            for disc in discs:
                lines.append(
                    f"    {disc.predicate.describe(format_value=fmt)}:"
                    f" {disc.decision_a} -> {disc.decision_b}"
                )
        return "\n".join(lines)

    def table(self) -> str:
        """The discrepancies as a Table 3-style fixed-width table."""
        return format_discrepancy_table(
            self.discrepancies,
            name_a=self.before.name or "before",
            name_b=self.after.name or "after",
        )


class _FanOut(Exception):
    """The serial build reached :data:`FANOUT_MIN_VISITS`."""


class _FanoutProbe(GuardContext):
    """The guard a ``jobs > 1`` comparison builds both sides under.

    Partition construction calls only :meth:`tick_nodes` and
    :meth:`checkpoint`.  Both go to the caller's guard first, so a
    ``--max-nodes`` or ``--deadline`` keeps its meaning (and wins a tie);
    the probe itself only counts partition visits and raises
    :class:`_FanOut` when they reach :data:`FANOUT_MIN_VISITS`.  The
    route therefore depends on the pair's visits alone, never on time.
    """

    __slots__ = ("outer",)

    def __init__(self, outer: GuardContext | None):
        super().__init__()
        self.outer = outer

    def tick_nodes(self, count: int = 1) -> None:
        if self.outer is not None:
            self.outer.tick_nodes(count)
        self.nodes_expanded += count
        if self.nodes_expanded >= FANOUT_MIN_VISITS:
            raise _FanOut

    def checkpoint(self, site: str) -> None:
        if self.outer is not None:
            self.outer.checkpoint(site)


def analyze_change(
    before: Firewall,
    after: Firewall,
    *,
    aggregate: bool = True,
    guard=None,
    jobs: int | None = None,
) -> ChangeImpactReport:
    """Compute the impact of changing ``before`` into ``after``.

    The comparison runs on the hash-consed difference diagram
    (:func:`repro.fdd.fast.compare_fast`).  ``jobs > 1`` builds both
    sides the same way, under a probe: a pair that needs
    :data:`FANOUT_MIN_VISITS` partition visits or more is instead
    sharded across worker processes via
    :func:`repro.parallel.compare_parallel` (identical cells, merged),
    with whatever budget the probe left ``guard``.  ``aggregate=False``
    keeps the raw cells.  The tests cross-validate the report against
    the paper-literal construct/shape/compare pipeline.

    >>> from repro.fields import toy_schema
    >>> from repro.policy import Firewall, Rule, ACCEPT, DISCARD
    >>> schema = toy_schema(9)
    >>> before = Firewall(schema, [Rule.build(schema, ACCEPT)], name="v1")
    >>> after = before.prepend(Rule.build(schema, DISCARD, F1=(0, 1))).with_name("v2")
    >>> report = analyze_change(before, after)
    >>> report.is_noop, len(report.by_kind()["newly blocked"])
    (False, 1)
    """
    degradations: list[dict] = []
    fan_out = jobs is not None and jobs > 1
    try:
        diff = compare_fast(
            before,
            after,
            guard=guard,
            build_guard=_FanoutProbe(guard) if fan_out else None,
        )
    except _FanOut:
        from repro.parallel import compare_parallel

        par = compare_parallel(
            before,
            after,
            jobs=jobs,
            budget=guard.remaining_budget() if guard is not None else None,
            enumerate_discrepancies=True,
        )
        raw = list(par.discrepancies)
        degradations = par.degradation_report()
    else:
        raw = diff.discrepancies(guard=guard)
    discs = aggregate_discrepancies(raw) if aggregate else raw
    return ChangeImpactReport(
        before=before, after=after, discrepancies=discs, degradations=degradations
    )
