"""Canned workloads: the paper's running example and sized stand-ins for
its confidential real-life firewalls.

* :func:`team_a_firewall` / :func:`team_b_firewall` — Tables 1 and 2: two
  teams' firewalls for the mail-server requirement specification of
  Section 2.1, over the interface+5-field schema.
* :func:`paper_resolution_chooser` — the Table 4 resolution: malicious
  sources are blocked entirely; e-mail (port 25, any protocol) to the
  mail server is allowed from everywhere else; any other traffic to the
  mail server is blocked.
* :func:`university_661` / :func:`average_42` — deterministic stand-ins
  for the two real-life firewalls of Section 8.2.1 (661 and 42 rules; the
  originals are confidential, see DESIGN.md substitution table).
* :func:`campus_87` — a structured, fully-commented 87-rule policy
  standing in for the documented university firewall of the Section 8.1
  effectiveness experiment.
"""

from __future__ import annotations

from repro.addr.ipv4 import ip_to_int
from repro.fields.schema import FieldSchema, interface_schema
from repro.intervals.intervalset import IntervalSet
from repro.policy.decision import ACCEPT, DISCARD
from repro.policy.firewall import Firewall
from repro.policy.rule import Rule
from repro.policy.decision import Decision
from repro.synth.generator import SyntheticFirewallGenerator

__all__ = [
    "mail_example_schema",
    "team_a_firewall",
    "team_b_firewall",
    "paper_resolution_chooser",
    "resolved_reference_firewall",
    "university_661",
    "average_42",
    "campus_87",
]

#: alpha/beta: the malicious domain 224.168.0.0/16 as integers (the paper's
#: shorthand), and the mail server 192.168.0.1.
MALICIOUS_LO = ip_to_int("224.168.0.0")
MALICIOUS_HI = ip_to_int("224.168.255.255")
MAIL_SERVER = ip_to_int("192.168.0.1")


def mail_example_schema() -> FieldSchema:
    """The running example's schema: I, S, D, N, P with P in {0: TCP, 1: UDP}."""
    return interface_schema(num_interfaces=2, protocol_max=1)


def team_a_firewall(schema: FieldSchema | None = None) -> Firewall:
    """Team A's firewall (paper Table 1).

    r1 accepts all e-mail to the mail server, r2 blocks the malicious
    domain, r3 accepts the rest.  Because r1 precedes r2, Team A
    (incorrectly, per the Table 4 resolution) lets malicious e-mail in.
    """
    schema = schema or mail_example_schema()
    return Firewall(
        schema,
        [
            Rule.build(
                schema,
                ACCEPT,
                "mail server receives e-mail",
                interface=0,
                dst_ip=MAIL_SERVER,
                dst_port=25,
            ),
            Rule.build(
                schema,
                DISCARD,
                "block malicious domain 224.168.0.0/16",
                interface=0,
                src_ip=IntervalSet.span(MALICIOUS_LO, MALICIOUS_HI),
            ),
            Rule.build(schema, ACCEPT, "default: accept"),
        ],
        name="Team A",
    )


def team_b_firewall(schema: FieldSchema | None = None) -> Firewall:
    """Team B's firewall (paper Table 2).

    Blocks the malicious domain first, then accepts only TCP e-mail to
    the mail server, blocks all other traffic to the mail server, and
    accepts the rest.
    """
    schema = schema or mail_example_schema()
    return Firewall(
        schema,
        [
            Rule.build(
                schema,
                DISCARD,
                "block malicious domain 224.168.0.0/16",
                interface=0,
                src_ip=IntervalSet.span(MALICIOUS_LO, MALICIOUS_HI),
            ),
            Rule.build(
                schema,
                ACCEPT,
                "mail server receives TCP e-mail",
                interface=0,
                dst_ip=MAIL_SERVER,
                dst_port=25,
                protocol=0,
            ),
            Rule.build(
                schema,
                DISCARD,
                "mail server receives nothing else",
                interface=0,
                dst_ip=MAIL_SERVER,
            ),
            Rule.build(schema, ACCEPT, "default: accept"),
        ],
        name="Team B",
    )


def paper_resolution_chooser(discrepancy) -> Decision:
    """The Table 4 resolution as a decision function over regions.

    * traffic from the malicious domain: **discard** (discrepancy 1 —
      Team A was wrong);
    * e-mail (destination port 25) to the mail server from elsewhere:
      **accept**, whatever the protocol (discrepancy 2 — Team B was
      wrong);
    * any other traffic to the mail server: **discard** (discrepancy 3 —
      Team A was wrong).
    """
    schema = discrepancy.schema
    src = discrepancy.sets[schema.index_of("src_ip")]
    dst_port = discrepancy.sets[schema.index_of("dst_port")]
    malicious = IntervalSet.span(MALICIOUS_LO, MALICIOUS_HI)
    if src.issubset(malicious):
        return DISCARD
    if dst_port.issubset(IntervalSet.single(25)):
        return ACCEPT
    return DISCARD


def resolved_reference_firewall(schema: FieldSchema | None = None) -> Firewall:
    """The unanimously-agreed policy the Table 4 resolution implies.

    Used by tests as ground truth: both resolution methods must produce a
    firewall equivalent to this one.
    """
    schema = schema or mail_example_schema()
    return Firewall(
        schema,
        [
            Rule.build(
                schema,
                DISCARD,
                "block malicious domain",
                interface=0,
                src_ip=IntervalSet.span(MALICIOUS_LO, MALICIOUS_HI),
            ),
            Rule.build(
                schema,
                ACCEPT,
                "e-mail to mail server, any protocol",
                interface=0,
                dst_ip=MAIL_SERVER,
                dst_port=25,
            ),
            Rule.build(
                schema,
                DISCARD,
                "nothing else reaches the mail server",
                interface=0,
                dst_ip=MAIL_SERVER,
            ),
            Rule.build(schema, ACCEPT, "default: accept"),
        ],
        name="resolved-reference",
    )


def university_661(seed: int = 661) -> Firewall:
    """A 661-rule stand-in for the paper's large real-life firewall."""
    generator = SyntheticFirewallGenerator(seed=seed)
    return generator.generate(661, name="university-661")


def average_42(seed: int = 42) -> Firewall:
    """A 42-rule stand-in for the paper's average-size real-life firewall."""
    generator = SyntheticFirewallGenerator(seed=seed)
    return generator.generate(42, name="average-42")


def campus_87(seed: int = 87) -> Firewall:
    """A structured, fully-commented 87-rule campus policy (Section 8.1).

    Built from an explicit inventory of subnets and services rather than
    random draws, so every rule carries a meaningful comment — the role
    the documented university firewall played in the paper's
    effectiveness experiment.  ``seed`` only varies the block-list
    addresses.
    """
    from random import Random

    rng = Random(seed)
    from repro.fields.schema import standard_schema

    schema = standard_schema()
    rules: list[Rule] = []

    def span(prefix: str, bits: int) -> IntervalSet:
        base = ip_to_int(prefix)
        return IntervalSet.span(base, base + (1 << (32 - bits)) - 1)

    campus = span("10.0.0.0", 8)
    dmz = span("10.1.0.0", 16)
    hosts = {
        "web server": ip_to_int("10.1.0.10"),
        "mail server": ip_to_int("10.1.0.25"),
        "dns server": ip_to_int("10.1.0.53"),
        "vpn gateway": ip_to_int("10.1.0.99"),
        "file server": ip_to_int("10.1.0.21"),
        "db server": ip_to_int("10.1.0.54"),
        "ntp server": ip_to_int("10.1.0.123"),
        "ldap server": ip_to_int("10.1.0.89"),
        "monitoring host": ip_to_int("10.1.0.161"),
        "staging web": ip_to_int("10.1.0.11"),
    }

    # 1) Block-list: 30 external networks caught abusing services.
    for i in range(30):
        bad = rng.randrange(0, 1 << 32) & ~0xFFFF
        rules.append(
            Rule.build(
                schema,
                DISCARD,
                f"block abusive external network #{i + 1}",
                src_ip=IntervalSet.span(bad, bad | 0xFFFF),
            )
        )

    # 2) Public DMZ services: one rule per advertised (host, port,
    #    protocol) triple — 30 rules.
    services: list[tuple[str, int, int]] = [
        ("web server", 80, 6), ("web server", 443, 6), ("web server", 8080, 6),
        ("mail server", 25, 6), ("mail server", 465, 6), ("mail server", 587, 6),
        ("mail server", 110, 6), ("mail server", 143, 6),
        ("mail server", 993, 6), ("mail server", 995, 6),
        ("dns server", 53, 6), ("dns server", 53, 17),
        ("vpn gateway", 500, 17), ("vpn gateway", 4500, 17),
        ("vpn gateway", 1194, 17),
        ("file server", 20, 6), ("file server", 21, 6),
        ("file server", 22, 6), ("file server", 873, 6),
        ("db server", 3306, 6), ("db server", 5432, 6), ("db server", 1433, 6),
        ("ntp server", 123, 17),
        ("ldap server", 389, 6), ("ldap server", 636, 6),
        ("monitoring host", 161, 17), ("monitoring host", 162, 17),
        ("staging web", 3000, 6), ("staging web", 8443, 6),
        ("staging web", 9090, 6),
    ]
    for name, port, proto in services:
        proto_name = "tcp" if proto == 6 else "udp"
        rules.append(
            Rule.build(
                schema,
                ACCEPT,
                f"allow {proto_name}/{port} to {name}",
                dst_ip=hosts[name],
                dst_port=port,
                protocol=proto,
            )
        )

    # 3) Campus-internal service access: 12 department subnets may reach
    #    the db server and ssh into the DMZ admin hosts (24 rules).
    for dept in range(12):
        subnet_base = ip_to_int("10.2.0.0") + (dept << 8)
        subnet = IntervalSet.span(subnet_base, subnet_base + 255)
        rules.append(
            Rule.build(
                schema,
                ACCEPT,
                f"department {dept + 1} reaches the db server",
                src_ip=subnet,
                dst_ip=hosts["db server"],
                dst_port=IntervalSet.of((3306, 3306), (5432, 5432)),
                protocol=6,
            )
        )
        rules.append(
            Rule.build(
                schema,
                ACCEPT,
                f"department {dept + 1} admin ssh to DMZ",
                src_ip=subnet,
                dst_ip=dmz,
                dst_port=22,
                protocol=6,
            )
        )

    # 4) DMZ hardening: nothing else reaches the DMZ (1 rule, after the
    #    internal-access exceptions above).
    rules.append(
        Rule.build(schema, DISCARD, "DMZ default-deny", dst_ip=dmz)
    )

    # 5) Egress and default policy (catch-all last).
    rules.append(
        Rule.build(
            schema,
            ACCEPT,
            "campus egress is unrestricted",
            src_ip=campus,
        )
    )
    rules.append(Rule.build(schema, DISCARD, "default: deny"))

    firewall = Firewall(schema, rules, name="campus-87")
    assert len(firewall) == 87, f"campus policy has {len(firewall)} rules, wanted 87"
    return firewall
