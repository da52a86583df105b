"""Backends: canonical IR → device-style configuration dialects.

"Most existing firewall devices take a sequence of rules as their
configuration" (Section 6.1) — the final step of diverse design is
deploying the agreed rule list on a real device.  Every backend here is
driven off the canonical :class:`~repro.policy.ir.IRPolicy` (per-field
interval sets, decision, provenance) and registered in the dialect
registry (:mod:`repro.policy.frontends`), so dialect emission is one
table — ``_BACKENDS`` at the bottom of this module — not a bespoke
module per format.  Callers never name a backend: they call
``emit_policy(firewall_or_ir, dialect, **options)``, whose keyword
options are the ``_emit_*`` keywords below (``chain``/``table_header``,
``name``, ``table``/``chain``, ``schema_key``):

* ``iptables`` — ``iptables-restore`` style append commands (with
  ``-m conntrack --ctstate`` for stateful-schema policies);
* ``cisco``    — Cisco extended-ACL statements (wildcard masks);
* ``nftables`` — ``nft`` ruleset text (``{ ... }`` sets carry
  multi-interval matches on a single line, ``ct state`` carries the
  stateful schema's state field);
* ``native``   — the repo's own DSL via :mod:`repro.policy.serializer`.

The backends are best-effort textual renderings, not
vendor-validated configs.  Conjuncts a format cannot express natively
(multi-interval sets, non-CIDR ranges) are expanded into several lines,
preserving first-match semantics exactly — each expansion of one rule
carries the same decision, so relative order within the expansion is
irrelevant.  Round trip through the matching frontend preserves
semantics exactly (property-tested in ``tests/policy``).
"""

from __future__ import annotations

from repro.addr.ipv4 import int_to_ip
from repro.addr.prefix import intervalset_to_prefixes
from repro.exceptions import PolicyError
from repro.fields.schema import FieldKind, interface_schema, standard_schema
from repro.intervals.interval import Interval
from repro.intervals.intervalset import IntervalSet
from repro.policy.frontends import register_backend
from repro.policy.ir import IRPolicy, IRRule

__all__: list[str] = []

_STANDARD_KINDS = [
    FieldKind.IP,
    FieldKind.IP,
    FieldKind.PORT,
    FieldKind.PORT,
    FieldKind.PROTOCOL,
]


def _schema_offset(ir: IRPolicy, format_name: str, *, allow_state: bool) -> int:
    """Field offset of the standard 5-tuple within the policy schema.

    Returns 0 for the standard schema and 1 for the stateful schema
    (state field first) when ``allow_state``; anything else is a
    :class:`PolicyError`.
    """
    fields = ir.schema.fields
    kinds = [f.kind for f in fields]
    if kinds == _STANDARD_KINDS:
        return 0
    if (
        len(fields) == 6
        and fields[0].name == "state"
        and kinds[1:] == _STANDARD_KINDS
    ):
        if allow_state:
            return 1
        raise PolicyError(
            f"{format_name} export cannot express connection state; "
            "emit to iptables or nftables instead"
        )
    raise PolicyError(
        f"{format_name} export requires the standard 5-field schema"
        " (src_ip, dst_ip, src_port, dst_port, protocol);"
        f" got fields {[f.name for f in fields]}"
    )


def _is_match_all(rule: IRRule, ir: IRPolicy) -> bool:
    return all(
        values == field.domain_set
        for values, field in zip(rule.matches, ir.schema.fields)
    )


def _port_atoms(values: IntervalSet, domain: IntervalSet) -> list[Interval | None]:
    """Port intervals to emit; ``None`` means "unconstrained"."""
    if values == domain:
        return [None]
    return list(values.intervals)


_PROTO_NAMES = {1: "icmp", 6: "tcp", 17: "udp"}


def _proto_atoms(values: IntervalSet, domain: IntervalSet) -> list[int | None]:
    if values == domain:
        return [None]
    atoms: list[int | None] = []
    for iv in values.intervals:
        atoms.extend(range(iv.lo, iv.hi + 1))
    return atoms


def _state_token(values: IntervalSet, domain: IntervalSet) -> str | None:
    """The conntrack keyword for a state match (``None``: unconstrained)."""
    if values == domain:
        return None
    if values == IntervalSet.single(0):
        return "NEW"
    if values == IntervalSet.single(1):
        return "ESTABLISHED"
    raise PolicyError(f"inexpressible connection-state set {values}")


# ----------------------------------------------------------------------
# iptables
# ----------------------------------------------------------------------


def _emit_iptables(
    ir: IRPolicy, *, chain: str = "FORWARD", table_header: bool = True
) -> str:
    """Render as iptables-restore style ``-A`` commands.

    The final catch-all rule (if any) becomes the chain policy; every
    other rule becomes one or more ``-A <chain>`` lines (ports only
    attach to TCP/UDP matches, mirroring iptables' own restriction: a
    port-constrained rule whose protocol is unconstrained expands into a
    TCP and a UDP line).  Stateful-schema policies emit
    ``-m conntrack --ctstate`` matches for constrained state fields.

    >>> from repro.policy import emit_policy
    >>> from repro.synth import SyntheticFirewallGenerator
    >>> fw = SyntheticFirewallGenerator(seed=1).generate(5)
    >>> emit_policy(fw, "iptables").startswith("*filter")
    True
    """
    offset = _schema_offset(ir, "iptables", allow_state=True)
    fields = ir.schema.fields
    port_domain = fields[offset + 2].domain_set
    proto_domain = fields[offset + 4].domain_set
    state_domain = fields[0].domain_set if offset else None

    rules = list(ir.rules)
    policy = "ACCEPT"
    if (
        rules
        and _is_match_all(rules[-1], ir)
        and "+log" not in rules[-1].decision.name
    ):
        policy = "ACCEPT" if rules[-1].decision.permits else "DROP"
        rules = rules[:-1]

    lines: list[str] = []
    if table_header:
        lines.append("*filter")
        lines.append(f":{chain} {policy} [0:0]")
    for rule in rules:
        lines.extend(
            _iptables_rule_lines(
                rule, chain, offset, port_domain, proto_domain, state_domain
            )
        )
    if table_header:
        lines.append("COMMIT")
    return "\n".join(lines) + "\n"


def _iptables_rule_lines(
    rule: IRRule,
    chain: str,
    offset: int,
    port_domain: IntervalSet,
    proto_domain: IntervalSet,
    state_domain: IntervalSet | None,
) -> list[str]:
    sets = rule.matches[offset:]
    ip_domain = IntervalSet.span(0, (1 << 32) - 1)
    target = "ACCEPT" if rule.decision.permits else "DROP"
    log = "+log" in rule.decision.name
    comment = f' -m comment --comment "{rule.comment}"' if rule.comment else ""
    state_match = ""
    if state_domain is not None:
        token = _state_token(rule.matches[0], state_domain)
        if token is not None:
            state_match = f" -m conntrack --ctstate {token}"

    src_prefixes = (
        [None] if sets[0] == ip_domain else intervalset_to_prefixes(sets[0])
    )
    dst_prefixes = (
        [None] if sets[1] == ip_domain else intervalset_to_prefixes(sets[1])
    )
    sports = _port_atoms(sets[2], port_domain)
    dports = _port_atoms(sets[3], port_domain)
    protos = _proto_atoms(sets[4], proto_domain)

    ports_constrained = sports != [None] or dports != [None]
    lines: list[str] = []
    for proto in protos:
        proto_names: list[str]
        if proto is None:
            # iptables attaches --sport/--dport to a -p match only.
            proto_names = ["tcp", "udp"] if ports_constrained else [""]
        else:
            proto_names = [_PROTO_NAMES.get(proto, str(proto))]
        for proto_name in proto_names:
            if ports_constrained and proto_name not in ("tcp", "udp"):
                # Ports are meaningless for this protocol; skip the match
                # rather than emit an invalid line.
                continue
            for src in src_prefixes:
                for dst in dst_prefixes:
                    for sport in sports:
                        for dport in dports:
                            parts = [f"-A {chain}"]
                            if proto_name:
                                parts.append(f"-p {proto_name}")
                            if src is not None:
                                parts.append(f"-s {src}")
                            if dst is not None:
                                parts.append(f"-d {dst}")
                            if sport is not None:
                                parts.append(_port_match("--sport", sport))
                            if dport is not None:
                                parts.append(_port_match("--dport", dport))
                            suffix = state_match + comment
                            if log:
                                lines.append(
                                    " ".join(parts) + suffix + " -j LOG"
                                )
                            lines.append(
                                " ".join(parts) + suffix + f" -j {target}"
                            )
    return lines


def _port_match(flag: str, interval: Interval) -> str:
    if interval.is_single():
        return f"{flag} {interval.lo}"
    return f"{flag} {interval.lo}:{interval.hi}"


# ----------------------------------------------------------------------
# Cisco extended ACL
# ----------------------------------------------------------------------


def _emit_cisco(ir: IRPolicy, *, name: str | None = None) -> str:
    """Render as a Cisco extended named ACL.

    Prefixes become address/wildcard-mask pairs; single hosts use
    ``host``; the whole address space uses ``any``.  Port intervals
    render as ``eq``/``range``.  Protocol ``any`` renders as ``ip``
    unless ports are constrained, in which case the rule expands into
    tcp and udp lines, as on real devices.
    """
    _schema_offset(ir, "Cisco ACL", allow_state=False)
    acl_name = name or (ir.name.replace(" ", "_") or "FIREWALL")
    lines = [f"ip access-list extended {acl_name}"]
    for rule in ir.rules:
        lines.extend(_cisco_rule_lines(rule, ir))
    return "\n".join(lines) + "\n"


def _cisco_rule_lines(rule: IRRule, ir: IRPolicy) -> list[str]:
    sets = rule.matches
    fields = ir.schema.fields
    action = "permit" if rule.decision.permits else "deny"
    log = " log" if "+log" in rule.decision.name else ""
    remark = [f" remark {rule.comment}"] if rule.comment else []

    srcs = _cisco_addr_atoms(sets[0], fields[0].domain_set)
    dsts = _cisco_addr_atoms(sets[1], fields[1].domain_set)
    sports = _port_atoms(sets[2], fields[2].domain_set)
    dports = _port_atoms(sets[3], fields[3].domain_set)
    ports_constrained = sports != [None] or dports != [None]
    protos = _proto_atoms(sets[4], fields[4].domain_set)

    lines = list(remark)
    for proto in protos:
        if proto is None:
            proto_names = ["tcp", "udp"] if ports_constrained else ["ip"]
        else:
            proto_names = [_PROTO_NAMES.get(proto, str(proto))]
        for proto_name in proto_names:
            for src in srcs:
                for dst in dsts:
                    for sport in sports:
                        for dport in dports:
                            parts = [f" {action} {proto_name} {src}"]
                            if sport is not None and proto_name in ("tcp", "udp"):
                                parts.append(_cisco_port(sport))
                            parts.append(dst)
                            if dport is not None and proto_name in ("tcp", "udp"):
                                parts.append(_cisco_port(dport))
                            lines.append(" ".join(parts) + log)
    return lines


def _cisco_addr_atoms(values: IntervalSet, domain: IntervalSet) -> list[str]:
    if values == domain:
        return ["any"]
    atoms = []
    for prefix in intervalset_to_prefixes(values):
        if prefix.length == 32:
            atoms.append(f"host {int_to_ip(prefix.network)}")
        elif prefix.length == 0:
            atoms.append("any")
        else:
            wildcard = (1 << (32 - prefix.length)) - 1
            atoms.append(f"{int_to_ip(prefix.network)} {int_to_ip(wildcard)}")
    return atoms


def _cisco_port(interval: Interval) -> str:
    if interval.is_single():
        return f"eq {interval.lo}"
    return f"range {interval.lo} {interval.hi}"


# ----------------------------------------------------------------------
# nftables
# ----------------------------------------------------------------------


def _emit_nftables(
    ir: IRPolicy, *, table: str = "inet filter", chain: str = "forward"
) -> str:
    """Render as an ``nft`` ruleset (one table, one base chain).

    Multi-interval matches emit as ``{ ... }`` sets on a single line —
    nftables is the one dialect that needs no cross-product expansion.
    The final catch-all rule becomes the chain ``policy`` declaration;
    stateful-schema policies emit ``ct state`` matches.

    >>> from repro.policy import emit_policy
    >>> from repro.synth import SyntheticFirewallGenerator
    >>> fw = SyntheticFirewallGenerator(seed=1).generate(5)
    >>> emit_policy(fw, "nftables").startswith("table inet filter {")
    True
    """
    offset = _schema_offset(ir, "nftables", allow_state=True)
    state_domain = ir.schema.fields[0].domain_set if offset else None

    rules = list(ir.rules)
    policy = "accept"
    if (
        rules
        and _is_match_all(rules[-1], ir)
        and "+log" not in rules[-1].decision.name
    ):
        policy = "accept" if rules[-1].decision.permits else "drop"
        rules = rules[:-1]

    lines = [f"table {table} {{"]
    lines.append(f"\tchain {chain} {{")
    lines.append(
        f"\t\ttype filter hook {chain} priority 0; policy {policy};"
    )
    for rule in rules:
        lines.append("\t\t" + _nftables_rule_line(rule, offset, state_domain))
    lines.append("\t}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _nftables_value_set(atoms: list[str]) -> str:
    if len(atoms) == 1:
        return atoms[0]
    return "{ " + ", ".join(atoms) + " }"


def _nftables_addr(values: IntervalSet) -> str:
    atoms = []
    for prefix in intervalset_to_prefixes(values):
        if prefix.length == 32:
            atoms.append(int_to_ip(prefix.network))
        else:
            atoms.append(f"{int_to_ip(prefix.network)}/{prefix.length}")
    return _nftables_value_set(atoms)


def _nftables_ports(values: IntervalSet) -> str:
    atoms = []
    for iv in values.intervals:
        atoms.append(str(iv.lo) if iv.is_single() else f"{iv.lo}-{iv.hi}")
    return _nftables_value_set(atoms)


def _nftables_rule_line(
    rule: IRRule, offset: int, state_domain: IntervalSet | None
) -> str:
    sets = rule.matches[offset:]
    fields_domains = [
        IntervalSet.span(0, (1 << 32) - 1),
        IntervalSet.span(0, (1 << 32) - 1),
        IntervalSet.span(0, 65535),
        IntervalSet.span(0, 65535),
        IntervalSet.span(0, 255),
    ]
    parts: list[str] = []

    if state_domain is not None:
        token = _state_token(rule.matches[0], state_domain)
        if token is not None:
            parts.append(f"ct state {token.lower()}")

    if sets[0] != fields_domains[0]:
        parts.append(f"ip saddr {_nftables_addr(sets[0])}")
    if sets[1] != fields_domains[1]:
        parts.append(f"ip daddr {_nftables_addr(sets[1])}")

    proto = sets[4]
    sport_constrained = sets[2] != fields_domains[2]
    dport_constrained = sets[3] != fields_domains[3]
    # tcp/udp single-protocol matches fold the protocol into the port
    # selector; anything else keeps an explicit ip protocol match and
    # generic th port selectors.
    if proto == IntervalSet.single(6) and (sport_constrained or dport_constrained):
        port_prefix = "tcp"
        emit_proto = False
    elif proto == IntervalSet.single(17) and (
        sport_constrained or dport_constrained
    ):
        port_prefix = "udp"
        emit_proto = False
    else:
        port_prefix = "th"
        emit_proto = proto != fields_domains[4]
    if emit_proto:
        atoms = []
        for iv in proto.intervals:
            for number in range(iv.lo, iv.hi + 1):
                atoms.append(_PROTO_NAMES.get(number, str(number)))
        parts.append(f"ip protocol {_nftables_value_set(atoms)}")
    if sport_constrained:
        parts.append(f"{port_prefix} sport {_nftables_ports(sets[2])}")
    if dport_constrained:
        parts.append(f"{port_prefix} dport {_nftables_ports(sets[3])}")

    if "+log" in rule.decision.name:
        parts.append("log")
    parts.append("accept" if rule.decision.permits else "drop")
    if rule.comment:
        escaped = rule.comment.replace('"', "'")
        parts.append(f'comment "{escaped}"')
    return " ".join(parts)


# ----------------------------------------------------------------------
# native
# ----------------------------------------------------------------------


def _native_schema_key(ir: IRPolicy) -> str | None:
    if ir.schema == standard_schema():
        return "standard"
    if ir.schema == interface_schema():
        return "interface"
    from repro.stateful.firewall import stateful_schema

    if ir.schema == stateful_schema():
        return "stateful"
    return None


def _emit_native(ir: IRPolicy, *, schema_key: str | None = None) -> str:
    """Render in the repo's own DSL with a self-describing header.

    The schema header key is auto-detected for the standard, interface,
    and stateful schemas; other schemas emit without a header (such
    documents need an explicit schema to parse back).
    """
    from repro.policy.serializer import dumps

    firewall = ir.to_firewall(require_comprehensive=False)
    key = schema_key if schema_key is not None else _native_schema_key(ir)
    return dumps(firewall, schema_key=key)


# ----------------------------------------------------------------------
# The dialect emission table
# ----------------------------------------------------------------------

_BACKENDS: dict[str, tuple[object, str]] = {
    "native": (_emit_native, "the repo's own policy DSL"),
    "iptables": (_emit_iptables, "iptables-restore append commands"),
    "cisco": (_emit_cisco, "Cisco extended ACL statements"),
    "nftables": (_emit_nftables, "nft ruleset text"),
}

for _name, (_fn, _description) in _BACKENDS.items():
    register_backend(_name, _fn, description=_description)  # type: ignore[arg-type]
