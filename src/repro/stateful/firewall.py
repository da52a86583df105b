"""The stateful firewall model of [11], on top of the stateless engine.

The model (Gouda & Liu, *A Model of Stateful Firewalls*): a firewall is
two sections.

* The **stateful section** consults the state table and annotates the
  packet with the check's outcome — here a synthetic ``state`` field
  (``1`` when the packet belongs to a tracked connection, ``0``
  otherwise).
* The **stateless section** is an ordinary first-match rule sequence
  over the packet fields *plus* the ``state`` field — i.e. exactly a
  :class:`repro.policy.Firewall` over :func:`stateful_schema`, so every
  analysis in this library (comparison, impact, queries, redundancy)
  applies to stateful policies unchanged.

State *creation* is part of the policy: accepted packets matching a
**tracking predicate** insert their reverse flow into the table, which
is how "allow outbound connections plus their return traffic" is
expressed (the canonical stateful policy; see the tests and
``examples/stateful_gateway.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.exceptions import SchemaError
from repro.fields.schema import Field, FieldKind, FieldSchema, standard_schema
from repro.policy.decision import Decision
from repro.policy.firewall import Firewall
from repro.policy.predicate import Predicate
from repro.stateful.table import ConnectionTable, FlowKey

__all__ = ["stateful_schema", "STATE_NEW", "STATE_ESTABLISHED", "StatefulFirewall"]

#: ``state`` field values: packet not in / in the state table.
STATE_NEW = 0
STATE_ESTABLISHED = 1


def stateful_schema() -> FieldSchema:
    """The standard five fields plus the synthetic ``state`` field.

    ``state`` is placed *first* so that established-vs-new splits near
    the FDD root, where real stateful policies branch first.
    """
    base = standard_schema()
    return FieldSchema((Field("state", FieldKind.GENERIC, 1, "E"),) + base.fields)


@dataclass(frozen=True)
class _Verdict:
    """One processed packet: the decision plus state bookkeeping."""

    decision: Decision
    was_established: bool
    tracked: bool


class StatefulFirewall:
    """A stateless section over :func:`stateful_schema` plus a state table.

    ``tracking`` lists predicates (over the *stateful* schema); when an
    accepted packet matches any of them, the reverse of its flow is
    inserted into the state table, admitting the connection's return
    traffic as ``state=1``.

    >>> from repro.policy import Firewall, Rule, ACCEPT, DISCARD
    >>> schema = stateful_schema()
    >>> policy = Firewall(schema, [
    ...     Rule.build(schema, ACCEPT, state=STATE_ESTABLISHED),
    ...     Rule.build(schema, ACCEPT, src_ip="10.0.0.0/8"),   # outbound
    ...     Rule.build(schema, DISCARD),
    ... ])
    >>> fw = StatefulFirewall(policy,
    ...     tracking=[Predicate.from_fields(schema, src_ip="10.0.0.0/8")])
    >>> from repro.addr import ip_to_int
    >>> inside, outside = ip_to_int("10.0.0.5"), ip_to_int("192.0.2.1")
    >>> fw.process((inside, outside, 4000, 80, 6), now=0.0).name
    'accept'
    >>> fw.process((outside, inside, 80, 4000, 6), now=1.0).name  # reply
    'accept'
    >>> fw.process((outside, inside, 80, 4001, 6), now=1.0).name  # unsolicited
    'discard'
    """

    def __init__(
        self,
        stateless: Firewall,
        *,
        tracking: Iterable[Predicate] = (),
        table: ConnectionTable | None = None,
    ):
        if stateless.schema != stateful_schema():
            raise SchemaError(
                "the stateless section must use stateful_schema()"
                " (state + the standard five fields)"
            )
        self.stateless = stateless
        self.tracking = tuple(tracking)
        for predicate in self.tracking:
            if predicate.schema != stateless.schema:
                raise SchemaError("tracking predicates must use the stateful schema")
        self.table = table if table is not None else ConnectionTable()

    # ------------------------------------------------------------------
    def _annotate(self, packet: Sequence[int], now: float) -> tuple[int, ...]:
        """The stateful section: prepend the state bit."""
        reverse = FlowKey.of_packet(packet).reversed()
        established = self.table.lookup(reverse, now)
        return (STATE_ESTABLISHED if established else STATE_NEW,) + tuple(packet)

    def process(self, packet: Sequence[int], now: float) -> Decision:
        """Decide one packet and update the state table.

        ``packet`` is a bare five-field tuple (src, dst, sport, dport,
        proto); the state bit is computed here, not supplied.
        """
        annotated = self._annotate(packet, now)
        decision = self.stateless.evaluate(annotated)
        if decision.permits and any(
            predicate.matches(annotated) for predicate in self.tracking
        ):
            # Track the flow so its replies arrive as state=1.  (Insert
            # the *forward* key; arrival-side lookup reverses.)
            self.table.insert(FlowKey.of_packet(packet), now)
        return decision

    def simulate(
        self, timed_packets: Iterable[tuple[float, Sequence[int]]]
    ) -> list[Decision]:
        """Process a timestamped packet stream in order."""
        return [self.process(packet, now) for now, packet in timed_packets]

    # ------------------------------------------------------------------
    def stateless_view(self) -> Firewall:
        """The stateless section, for the library's analyses.

        Comparing two stateful firewalls reduces to comparing their
        stateless sections over the stateful schema — the state bit is
        just another field, so the paper's algorithms carry over (this is
        the reduction [11] builds on).
        """
        return self.stateless
