"""Synthetic packet traces: workloads for evaluation and sampled comparison.

Two generators, both seeded and deterministic:

* :class:`BoundaryTraceGenerator` — packets biased toward rule-interval
  *boundaries*, where decisions flip.  Uniform sampling of a 2^104
  universe almost never lands near a rule edge; boundary bias makes
  differential testing (two policies, same packets) actually exercise
  the policy structure.
* :class:`FlowTraceGenerator` — timestamped bidirectional *flows*
  (request packets followed by replies), the natural input for the
  stateful firewall model (:mod:`repro.stateful`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.fields.packet import Packet
from repro.fields.schema import FieldSchema
from repro.policy.firewall import Firewall

__all__ = ["BoundaryTraceGenerator", "FlowTraceGenerator", "TimedPacket"]


class BoundaryTraceGenerator:
    """Packets drawn around the interval endpoints of a policy's rules.

    For each field, the pool of interesting values contains every rule
    interval's ``lo``, ``hi``, and their +/-1 neighbours (clamped to the
    domain); packets mix pool draws with uniform draws at ``uniform_p``.

    >>> from repro.synth import SyntheticFirewallGenerator
    >>> fw = SyntheticFirewallGenerator(seed=1).generate(10)
    >>> gen = BoundaryTraceGenerator(fw, seed=2)
    >>> packets = gen.packets(100)
    >>> len(packets), len(packets[0]) == len(fw.schema)
    (100, True)
    """

    def __init__(self, firewall: Firewall, *, seed: int | None = None, uniform_p: float = 0.2):
        self.schema: FieldSchema = firewall.schema
        self._rng = random.Random(seed)
        self.uniform_p = uniform_p
        self._pools: list[list[int]] = [[] for _ in self.schema]
        for rule in firewall.rules:
            for index, values in enumerate(rule.predicate.sets):
                pool = self._pools[index]
                maximum = self.schema[index].max_value
                for interval in values.intervals:
                    for candidate in (
                        interval.lo - 1,
                        interval.lo,
                        interval.hi,
                        interval.hi + 1,
                    ):
                        if 0 <= candidate <= maximum:
                            pool.append(candidate)
        # Deduplicate, keep deterministic order.
        self._pools = [sorted(set(pool)) for pool in self._pools]

    def packet(self) -> Packet:
        """One boundary-biased packet."""
        values = []
        for field, pool in zip(self.schema, self._pools):
            if not pool or self._rng.random() < self.uniform_p:
                values.append(self._rng.randint(0, field.max_value))
            else:
                values.append(self._rng.choice(pool))
        return Packet(tuple(values))

    def packets(self, count: int) -> list[Packet]:
        """``count`` independent boundary-biased packets."""
        return [self.packet() for _ in range(count)]

    def differential(self, fw_a: Firewall, fw_b: Firewall, count: int) -> list[Packet]:
        """Packets from this trace on which the two firewalls disagree."""
        return [
            packet
            for packet in self.packets(count)
            if fw_a(packet) != fw_b(packet)
        ]


@dataclass(frozen=True)
class TimedPacket:
    """One packet with an arrival timestamp (seconds)."""

    time: float
    packet: tuple[int, ...]


class FlowTraceGenerator:
    """Bidirectional flow traces for stateful simulation.

    Each flow: a client inside ``client_space`` opens a connection to a
    server drawn from ``servers`` (a list of ``(ip, port, protocol)``),
    sending ``requests`` packets with replies interleaved.  Timestamps
    advance by exponential-ish jitter.

    >>> gen = FlowTraceGenerator(seed=3)
    >>> trace = list(gen.flows(5))
    >>> len(trace) > 10
    True
    """

    def __init__(
        self,
        *,
        seed: int | None = None,
        client_space: tuple[int, int] = (0x0A000000, 0x0AFFFFFF),  # 10/8
        servers: Sequence[tuple[int, int, int]] = (
            (0xC6336414, 443, 6),  # 198.51.100.20:443/tcp
            (0xC6336415, 80, 6),
            (0xC6336416, 53, 17),
        ),
        requests_per_flow: int = 3,
        reply_probability: float = 0.9,
    ):
        self._rng = random.Random(seed)
        self.client_space = client_space
        self.servers = list(servers)
        self.requests_per_flow = requests_per_flow
        self.reply_probability = reply_probability

    def flows(self, count: int, *, start: float = 0.0) -> Iterator[TimedPacket]:
        """Yield the interleaved packets of ``count`` flows, time-ordered."""
        now = start
        for _ in range(count):
            client = self._rng.randint(*self.client_space)
            client_port = self._rng.randint(1024, 65535)
            server_ip, server_port, protocol = self._rng.choice(self.servers)
            for _request in range(self.requests_per_flow):
                now += self._rng.random() * 0.5
                yield TimedPacket(
                    now, (client, server_ip, client_port, server_port, protocol)
                )
                if self._rng.random() < self.reply_probability:
                    now += self._rng.random() * 0.2
                    yield TimedPacket(
                        now, (server_ip, client, server_port, client_port, protocol)
                    )

    def with_scanner(
        self, count: int, *, scanner_ip: int = 0xCB007142, ports: Sequence[int] = (22, 23, 3389)
    ) -> Iterator[TimedPacket]:
        """The flow trace with an interleaved inbound port scan.

        The scanner probes clients directly — unsolicited inbound traffic
        a stateful gateway must drop.
        """
        scan_times = sorted(self._rng.uniform(0, count) for _ in range(count))
        scans = iter(scan_times)
        next_scan = next(scans, None)
        for timed in self.flows(count):
            while next_scan is not None and next_scan <= timed.time:
                target = self._rng.randint(*self.client_space)
                yield TimedPacket(
                    next_scan,
                    (scanner_ip, target, 54321, self._rng.choice(list(ports)), 6),
                )
                next_scan = next(scans, None)
            yield timed
