"""Synthetic firewall generation (Section 8.2.2).

The paper's scaling experiments use synthetic firewalls "generated ...
based on the characteristics of real-life firewalls reported in [13]"
(Gupta's study of real packet classifiers).  The salient characteristics,
reproduced as generator knobs:

* five fields: source/destination IP, source/destination port, protocol;
* IP fields are CIDR-prefix shaped, drawn from a bounded pool of networks
  (real policies talk about the same few dozen networks over and over),
  with a mix of host (/32), subnet, and wildcard rules;
* source ports are almost always wildcard; destination ports are mostly
  single well-known services, sometimes ranges (e.g. ephemeral), rarely
  wildcard;
* protocol is TCP for ~2/3 of rules, else UDP or wildcard;
* decisions are a mix of accept and discard, and the policy ends with a
  catch-all default.

Pool-bounded field values keep constructed-FDD sizes realistic — exactly
the property that makes the paper's algorithms "practical despite the
worst case" (Section 7.4).  All randomness is seeded and reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.addr.ipv4 import IPV4_MAX
from repro.addr.ports import PORT_MAX
from repro.fields.schema import FieldSchema, standard_schema
from repro.intervals.intervalset import IntervalSet
from repro.policy.decision import ACCEPT, DISCARD, Decision
from repro.policy.firewall import Firewall
from repro.policy.predicate import Predicate
from repro.policy.rule import Rule

__all__ = [
    "GeneratorConfig",
    "SyntheticFirewallGenerator",
    "generate_firewall_pair",
    "uniform_interval_firewall",
]

#: Well-known destination ports weighted roughly by how often they appear
#: in real policies.
_COMMON_PORTS = (
    80, 443, 25, 53, 22, 21, 23, 110, 143, 123, 161, 389,
    993, 995, 1433, 3306, 3389, 5432, 8080, 8443,
)

_PORT_RANGES = (
    (0, 1023),          # privileged
    (1024, PORT_MAX),   # ephemeral
    (1024, 49151),      # registered
    (49152, PORT_MAX),  # dynamic
    (6000, 6063),       # X11
    (137, 139),         # NetBIOS
)


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for the synthetic rule mix.

    Probabilities are per-rule and per-field; see the module docstring for
    the real-life characteristics each knob models.
    """

    #: Number of distinct networks the policy talks about, per direction.
    network_pool_size: int = 24
    #: Number of named hosts per pooled network (servers rules point at).
    hosts_per_network: int = 4
    #: Prefix lengths networks are drawn with (uniform over the tuple).
    network_prefix_lengths: tuple[int, ...] = (8, 12, 16, 16, 24, 24)
    #: P(source IP is wildcard).
    src_wildcard_p: float = 0.35
    #: P(destination IP is wildcard).
    dst_wildcard_p: float = 0.10
    #: P(an IP conjunct narrows to a single host within its network).
    host_p: float = 0.25
    #: P(source port is wildcard) — ~0.9 in real policies [13].
    src_port_wildcard_p: float = 0.90
    #: P(destination port is wildcard).
    dst_port_wildcard_p: float = 0.15
    #: P(a non-wildcard destination port is a range rather than a service).
    dst_port_range_p: float = 0.20
    #: Protocol mix: (P(tcp), P(udp)); remainder is wildcard.
    tcp_p: float = 0.65
    udp_p: float = 0.25
    #: P(a rule's decision is accept).
    accept_p: float = 0.55
    #: Decision of the final catch-all rule.
    default_decision: Decision = DISCARD


class SyntheticFirewallGenerator:
    """Seeded generator of real-life-shaped firewalls.

    >>> gen = SyntheticFirewallGenerator(seed=7)
    >>> fw = gen.generate(50, name="synthetic-50")
    >>> len(fw), fw.has_catchall()
    (50, True)
    """

    def __init__(
        self,
        config: GeneratorConfig | None = None,
        seed: int | None = None,
        *,
        pool_seed: int | None = None,
    ):
        self.config = config or GeneratorConfig()
        self.schema: FieldSchema = standard_schema()
        self._rng = random.Random(seed)
        # The network pools get their own stream so that two generators can
        # share an address universe (same pool_seed) while drawing
        # independent rules — the realistic setting for two design teams
        # working from one requirement specification.
        pool_rng = random.Random(seed if pool_seed is None else pool_seed)
        self._src_networks = self._make_network_pool(pool_rng)
        self._dst_networks = self._make_network_pool(pool_rng)
        # Named hosts also come from the shared pool stream: real policies
        # mention the same servers over and over.
        self._hosts = {
            id(pool): {
                network: [
                    network + pool_rng.randrange(0, 1 << (32 - length))
                    for _ in range(self.config.hosts_per_network)
                ]
                for network, length in pool
                if length < 32
            }
            for pool in (self._src_networks, self._dst_networks)
        }

    # ------------------------------------------------------------------
    # Field-value pools
    # ------------------------------------------------------------------
    def _make_network_pool(self, pool_rng: random.Random) -> list[tuple[int, int]]:
        """Random ``(network, prefix_length)`` pairs."""
        pool = []
        for _ in range(self.config.network_pool_size):
            length = pool_rng.choice(self.config.network_prefix_lengths)
            host_bits = 32 - length
            network = pool_rng.randrange(0, IPV4_MAX + 1) & ~((1 << host_bits) - 1)
            pool.append((network, length))
        return pool

    def _ip_set(self, pool: list[tuple[int, int]], wildcard_p: float) -> IntervalSet:
        if self._rng.random() < wildcard_p:
            return IntervalSet.span(0, IPV4_MAX)
        network, length = self._rng.choice(pool)
        host_bits = 32 - length
        hosts = self._hosts[id(pool)].get(network)
        if hosts and self._rng.random() < self.config.host_p:
            return IntervalSet.single(self._rng.choice(hosts))
        return IntervalSet.span(network, network + (1 << host_bits) - 1)

    def _src_port_set(self) -> IntervalSet:
        if self._rng.random() < self.config.src_port_wildcard_p:
            return IntervalSet.span(0, PORT_MAX)
        lo, hi = self._rng.choice(_PORT_RANGES)
        return IntervalSet.span(lo, hi)

    def _dst_port_set(self) -> IntervalSet:
        if self._rng.random() < self.config.dst_port_wildcard_p:
            return IntervalSet.span(0, PORT_MAX)
        if self._rng.random() < self.config.dst_port_range_p:
            lo, hi = self._rng.choice(_PORT_RANGES)
            return IntervalSet.span(lo, hi)
        return IntervalSet.single(self._rng.choice(_COMMON_PORTS))

    def _protocol_set(self) -> IntervalSet:
        roll = self._rng.random()
        if roll < self.config.tcp_p:
            return IntervalSet.single(6)
        if roll < self.config.tcp_p + self.config.udp_p:
            return IntervalSet.single(17)
        return IntervalSet.span(0, 255)

    def _decision(self) -> Decision:
        return ACCEPT if self._rng.random() < self.config.accept_p else DISCARD

    # ------------------------------------------------------------------
    # Rule and firewall generation
    # ------------------------------------------------------------------
    def generate_rule(self) -> Rule:
        """One synthetic (non-catch-all) rule.

        Port constraints only make sense for TCP/UDP; rules whose
        protocol draw is neither get wildcard ports (real policies never
        constrain ports on e.g. ICMP, and device formats cannot express
        it).
        """
        protocol = self._protocol_set()
        has_ports = protocol.issubset(IntervalSet.of((6, 6), (17, 17)))
        full_ports = IntervalSet.span(0, PORT_MAX)
        sets = (
            self._ip_set(self._src_networks, self.config.src_wildcard_p),
            self._ip_set(self._dst_networks, self.config.dst_wildcard_p),
            self._src_port_set() if has_ports else full_ports,
            self._dst_port_set() if has_ports else full_ports,
            protocol,
        )
        return Rule(Predicate(self.schema, sets), self._decision())

    def generate(self, num_rules: int, *, name: str = "") -> Firewall:
        """A comprehensive firewall with ``num_rules`` rules.

        The last rule is always the catch-all default; the preceding
        ``num_rules - 1`` rules are drawn from the configured mix.
        """
        if num_rules < 1:
            raise ValueError("a firewall needs at least one rule")
        rules = [self.generate_rule() for _ in range(num_rules - 1)]
        rules.append(
            Rule(
                Predicate.match_all(self.schema),
                self.config.default_decision,
                "default",
            )
        )
        return Firewall(self.schema, rules, name=name)


def generate_firewall_pair(
    num_rules: int, *, seed: int = 0, config: GeneratorConfig | None = None
) -> tuple[Firewall, Firewall]:
    """Two independently generated firewalls of ``num_rules`` rules each.

    The Fig. 13 workload: "we first generated two firewalls independently
    and then ran the three algorithms on them."  The two rule streams are
    independent; the address/host pools are shared (same ``pool_seed``),
    because the paper's two firewalls describe the same network — two
    teams never invent disjoint address universes for one specification.
    """
    gen_a = SyntheticFirewallGenerator(config, seed=seed * 2 + 1, pool_seed=seed)
    gen_b = SyntheticFirewallGenerator(config, seed=seed * 2 + 2, pool_seed=seed)
    return (
        gen_a.generate(num_rules, name=f"synthetic-a-{num_rules}"),
        gen_b.generate(num_rules, name=f"synthetic-b-{num_rules}"),
    )


def uniform_interval_firewall(num_rules: int, *, seed: int = 0) -> Firewall:
    """A policy that is hard for the store engine (Section 7.4's worst case).

    Each of the ``num_rules`` rules matches one uniform random interval
    on every standard field and takes a random accept/discard decision;
    a discard catch-all ends the list.  Unlike the pool-bounded Fig. 13
    generator above, nothing keeps the rules' boundaries few, so almost
    every pair of rule boxes overlaps, and "Rules in Play" (PAPERS.md)
    ties a rule set's cost to exactly that overlap: partition visits,
    diagram nodes and edges grow steeply with ``num_rules``.  On a
    2-vCPU machine one policy builds in about 10 ms at 20 rules and
    0.7 s at 80, and two 80-rule seeds make a pair whose exact
    comparison a 2-second ``--deadline`` cannot finish.
    """
    rng = random.Random(seed)
    schema = standard_schema()
    body = []
    for _ in range(num_rules):
        sets = []
        for fld in schema:
            lo, hi = sorted(rng.randint(0, fld.max_value) for _ in range(2))
            sets.append(IntervalSet.span(lo, hi))
        body.append(Rule(Predicate(schema, sets), rng.choice([ACCEPT, DISCARD])))
    return Firewall(
        schema,
        body + [Rule(Predicate.match_all(schema), DISCARD)],
        name=f"uniform-{num_rules}-{seed}",
    )
