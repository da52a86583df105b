"""Dialect registry and frontends: concrete syntax → canonical IR.

Every supported policy dialect registers here under one name.  A
*frontend* parses that dialect's text into an
:class:`~repro.policy.ir.IRPolicy`; a *backend* (registered by
:mod:`repro.policy.export`) emits IR back into the dialect.  The
registry makes dialect handling one table: the CLI, the simplifier, and
the round-trip tests all go through :func:`parse_policy` /
:func:`emit_policy` and never name a parser function directly.

Registered dialects:

* ``native``   — the repo's own DSL (:mod:`repro.policy.parser`).
* ``iptables`` — ``iptables-save`` dumps, extended beyond the basic
  subset with ``!`` negation, ``-m multiport`` port lists, and
  ``-m conntrack --ctstate`` mapped onto :mod:`repro.stateful`'s
  state field.
* ``cisco``    — Cisco extended ACLs.
* ``nftables`` — ``nft list ruleset`` style dumps (``ip saddr``,
  ``!=`` negation, ``{ ... }`` sets, ``ct state``).

Error provenance is part of the contract: every
:class:`~repro.exceptions.ParseError` raised here names the dialect and
the 1-based line in the original dump, and every parsed rule carries
``source_line`` so downstream diagnostics (``repro lint``) point at real
lines in the imported file.
"""

from __future__ import annotations

import shlex
from dataclasses import dataclass, replace
from typing import Callable

from repro.addr.ipv4 import IPV4_MAX, ascii_digits, ip_to_int
from repro.addr.ports import PORT_MAX
from repro.addr.prefix import parse_prefix
from repro.exceptions import AddressError, ParseError, PolicyError
from repro.fields.schema import FieldKind, FieldSchema, standard_schema
from repro.intervals.interval import Interval
from repro.intervals.intervalset import IntervalSet
from repro.policy.decision import (
    ACCEPT,
    ACCEPT_LOG,
    DISCARD,
    DISCARD_LOG,
    Decision,
)
from repro.policy.ir import IRPolicy, IRRule

__all__ = [
    "Dialect",
    "register_frontend",
    "register_backend",
    "get_dialect",
    "dialect_names",
    "parse_policy",
    "emit_policy",
    "parse_native",
    "parse_iptables",
    "parse_cisco",
    "parse_nftables",
]

FrontendFn = Callable[..., IRPolicy]
BackendFn = Callable[..., str]


@dataclass
class Dialect:
    """One registered policy dialect: a name plus parse/emit hooks."""

    name: str
    description: str = ""
    parse: FrontendFn | None = None
    emit: BackendFn | None = None


_REGISTRY: dict[str, Dialect] = {}


def _dialect(name: str) -> Dialect:
    if name not in _REGISTRY:
        _REGISTRY[name] = Dialect(name)
    return _REGISTRY[name]


def register_frontend(
    name: str, fn: FrontendFn, *, description: str = ""
) -> None:
    entry = _dialect(name)
    entry.parse = fn
    if description:
        entry.description = description


def register_backend(name: str, fn: BackendFn, *, description: str = "") -> None:
    entry = _dialect(name)
    entry.emit = fn
    if description and not entry.description:
        entry.description = description


def get_dialect(name: str) -> Dialect:
    _ensure_backends()
    if name not in _REGISTRY:
        known = ", ".join(dialect_names())
        raise PolicyError(f"unknown dialect {name!r}; registered: {known}")
    return _REGISTRY[name]


def dialect_names() -> tuple[str, ...]:
    """Return the registered dialect names, sorted."""
    _ensure_backends()
    return tuple(sorted(_REGISTRY))


def _ensure_backends() -> None:
    # Backends live in repro.policy.export and register on import; pull
    # them in lazily so the registry is complete without a cycle.
    import repro.policy.export  # noqa: F401


def parse_policy(
    text: str,
    dialect: str,
    *,
    schema: FieldSchema | None = None,
    name: str = "",
    chain: str | None = None,
) -> IRPolicy:
    """Parse ``text`` in the named dialect into canonical IR."""
    entry = get_dialect(dialect)
    if entry.parse is None:
        raise PolicyError(f"dialect {dialect!r} has no frontend (emit-only)")
    return entry.parse(text, schema=schema, name=name, chain=chain)


def emit_policy(source: object, dialect: str, **options: object) -> str:
    """Emit a policy (a ``Firewall`` or an ``IRPolicy``) in a dialect."""
    entry = get_dialect(dialect)
    if entry.emit is None:
        raise PolicyError(f"dialect {dialect!r} has no backend (parse-only)")
    if isinstance(source, IRPolicy):
        ir = source
    else:
        from repro.policy.firewall import Firewall

        if not isinstance(source, Firewall):
            raise PolicyError(
                f"cannot emit a {type(source).__name__}; "
                "expected Firewall or IRPolicy"
            )
        ir = IRPolicy.from_firewall(source, dialect=dialect)
    return entry.emit(ir, **options)


# ----------------------------------------------------------------------
# Shared lowering helpers
# ----------------------------------------------------------------------

_PROTO_NUMBERS = {"icmp": 1, "tcp": 6, "udp": 17, "ip": None, "all": None}
_CTSTATE_VALUES = {"NEW": 0, "ESTABLISHED": 1, "RELATED": 1}
_STATE_MAX = 1

# Per-field domain ceilings for negation expansion (field objects are not
# always at hand mid-parse; the standard/stateful field domains are fixed).
_FIELD_MAX = {
    "src_ip": IPV4_MAX,
    "dst_ip": IPV4_MAX,
    "src_port": PORT_MAX,
    "dst_port": PORT_MAX,
    "protocol": 255,
    "state": _STATE_MAX,
}


def _err(dialect: str, message: str, line: int | None) -> ParseError:
    return ParseError(f"{dialect}: {message}", line)


def _negate(
    values: IntervalSet, field_name: str, dialect: str, line: int
) -> IntervalSet:
    out = values.complement(IntervalSet.span(0, _FIELD_MAX[field_name]))
    if out.is_empty():
        raise _err(
            dialect,
            f"negated {field_name} match covers the whole domain; "
            "the rule would match nothing",
            line,
        )
    return out


def _constrain(
    sets: dict[str, IntervalSet],
    field_name: str,
    values: IntervalSet,
    dialect: str,
    line: int,
) -> None:
    """Intersect a new per-field constraint into the rule under parse."""
    if field_name in sets:
        values = sets[field_name] & values
        if values.is_empty():
            raise _err(
                dialect,
                f"contradictory {field_name} matches; "
                "the rule would match nothing",
                line,
            )
    sets[field_name] = values


def _port_set(token: str, dialect: str, line: int, sep: str = ":") -> IntervalSet:
    """One port atom: ``N`` or ``lo<sep>hi``."""
    if sep in token:
        lo_text, _, hi_text = token.partition(sep)
        if not (ascii_digits(lo_text) and ascii_digits(hi_text)):
            raise _err(dialect, f"bad port range {token!r}", line)
        lo, hi = int(lo_text), int(hi_text)
        if lo > hi or hi > PORT_MAX:
            raise _err(dialect, f"bad port range {token!r}", line)
        return IntervalSet.span(lo, hi)
    if not ascii_digits(token) or int(token) > PORT_MAX:
        raise _err(dialect, f"bad port {token!r}", line)
    return IntervalSet.single(int(token))


def _port_list_set(
    token: str, dialect: str, line: int, sep: str = ":"
) -> IntervalSet:
    """A multiport-style comma list of ports and ranges."""
    atoms = [a for a in token.split(",") if a]
    if not atoms:
        raise _err(dialect, f"empty port list {token!r}", line)
    return IntervalSet.union_all(
        _port_set(atom, dialect, line, sep) for atom in atoms
    )


def _prefix_set(token: str, dialect: str, line: int) -> IntervalSet:
    try:
        return IntervalSet([parse_prefix(token).to_interval()])
    except AddressError as exc:
        raise _err(dialect, str(exc), line) from None


def _ctstate_set(token: str, dialect: str, line: int) -> IntervalSet:
    values = set()
    for atom in token.split(","):
        state = atom.strip().upper()
        if not state:
            continue
        if state not in _CTSTATE_VALUES:
            supported = ", ".join(sorted(set(_CTSTATE_VALUES)))
            raise _err(
                dialect,
                f"unsupported connection state {atom!r} "
                f"(supported: {supported})",
                line,
            )
        values.add(_CTSTATE_VALUES[state])
    if not values:
        raise _err(dialect, "empty connection-state list", line)
    return IntervalSet.from_values(values)


@dataclass
class _ParsedRule:
    """A dialect-neutral rule accumulated during a frontend scan."""

    sets: dict[str, IntervalSet]
    state: IntervalSet | None
    decision: Decision
    comment: str
    line: int


def _is_stateful_schema(schema: FieldSchema) -> bool:
    fields = schema.fields
    return (
        len(fields) == 6
        and fields[0].name == "state"
        and fields[0].kind is FieldKind.GENERIC
    )


def _assemble(
    parsed: list[_ParsedRule],
    base_schema: FieldSchema,
    explicit_schema: FieldSchema | None,
    dialect: str,
    name: str,
) -> IRPolicy:
    """Build the IR policy, upgrading to the stateful schema when any
    rule constrained connection state."""
    needs_state = any(r.state is not None for r in parsed)
    if explicit_schema is not None and _is_stateful_schema(explicit_schema):
        schema = explicit_schema
        needs_state = True
    elif needs_state:
        if explicit_schema is not None and explicit_schema != standard_schema():
            raise _err(
                dialect,
                "connection-state matches require the stateful schema; "
                "omit the explicit schema argument",
                next(r.line for r in parsed if r.state is not None),
            )
        from repro.stateful.firewall import stateful_schema

        schema = stateful_schema()
    else:
        schema = base_schema
    rules = []
    for record in parsed:
        constraints = dict(record.sets)
        if needs_state and record.state is not None:
            constraints["state"] = record.state
        rules.append(
            IRRule.from_fields(
                schema,
                constraints,
                record.decision,
                comment=record.comment,
                source_line=record.line,
            )
        )
    return IRPolicy(schema, tuple(rules), name, dialect)


# ----------------------------------------------------------------------
# native
# ----------------------------------------------------------------------


def parse_native(
    text: str,
    *,
    schema: FieldSchema | None = None,
    name: str = "",
    chain: str | None = None,
) -> IRPolicy:
    """Frontend for the repo's own DSL (delegates to the parser)."""
    from repro.policy.parser import loads

    try:
        firewall = loads(text, schema=schema)
    except ParseError as exc:
        raise _err("native", exc.raw_message, exc.line) from None
    ir = IRPolicy.from_firewall(firewall, dialect="native")
    if name:
        ir = replace(ir, name=name)
    return ir


# ----------------------------------------------------------------------
# iptables-save (extended subset)
# ----------------------------------------------------------------------


def parse_iptables(
    text: str,
    *,
    schema: FieldSchema | None = None,
    name: str = "",
    chain: str | None = "FORWARD",
) -> IRPolicy:
    """Parse iptables-save style input for one chain into canonical IR.

    Beyond the basic ``-s/-d/-p/--sport/--dport/-j`` subset this handles
    the features real dumps use:

    * ``!`` negation (both ``! -s ADDR`` and legacy ``-s ! ADDR``),
      expanded into complement interval sets;
    * ``-m multiport --sports/--dports`` comma lists of ports and
      ``lo:hi`` ranges, lowered into multi-interval sets on one rule;
    * ``-m conntrack --ctstate`` (and legacy ``-m state --state``)
      mapped onto :mod:`repro.stateful`'s state field — any such match
      upgrades the whole policy onto ``stateful_schema()``;
    * ``-j LOG`` folded into the next terminal rule with the same
      predicate (``accept+log`` / ``discard+log``).

    The chain's policy line (``:FORWARD DROP [0:0]``) supplies the final
    catch-all; without one the default is ACCEPT (iptables' own
    default).  Every rule records its 1-based dump line.
    """
    dialect = "iptables"
    chain = chain or "FORWARD"
    base_schema = schema if schema is not None else standard_schema()
    policy_decision: Decision = ACCEPT
    policy_line: int | None = None
    parsed: list[_ParsedRule] = []
    pending_log: tuple[dict[str, IntervalSet], IntervalSet | None] | None = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped in ("*filter", "COMMIT") or stripped.startswith("*"):
            continue
        if stripped.startswith(":"):
            parts = stripped[1:].split()
            if parts and parts[0] == chain and len(parts) >= 2:
                policy_decision = ACCEPT if parts[1] == "ACCEPT" else DISCARD
                policy_line = line_no
            continue
        if not stripped.startswith("-A"):
            raise _err(dialect, f"unsupported line {stripped!r}", line_no)
        tokens = shlex.split(stripped)
        if len(tokens) < 2 or tokens[0] != "-A":
            raise _err(dialect, f"malformed append {stripped!r}", line_no)
        if tokens[1] != chain:
            continue  # other chains are out of scope
        sets, state, target, comment = _parse_iptables_tokens(
            tokens[2:], line_no
        )
        if target == "LOG":
            pending_log = (sets, state)
            continue
        decision = ACCEPT if target == "ACCEPT" else DISCARD
        if pending_log is not None and pending_log == (sets, state):
            decision = ACCEPT_LOG if decision.permits else DISCARD_LOG
        pending_log = None
        parsed.append(_ParsedRule(sets, state, decision, comment, line_no))

    parsed.append(
        _ParsedRule({}, None, policy_decision, "chain policy", policy_line or 0)
    )
    if policy_line is None:
        parsed[-1] = replace(parsed[-1], line=len(text.splitlines()) or 1)
    return _assemble(
        parsed, base_schema, schema, dialect, name or f"iptables-{chain}"
    )


def _parse_iptables_tokens(
    tokens: list[str], line: int
) -> tuple[dict[str, IntervalSet], IntervalSet | None, str, str]:
    dialect = "iptables"
    sets: dict[str, IntervalSet] = {}
    state: IntervalSet | None = None
    target = ""
    comment = ""
    i = 0
    negate = False

    def take() -> str:
        nonlocal i
        if i >= len(tokens):
            raise _err(dialect, "truncated rule", line)
        value = tokens[i]
        i += 1
        return value

    def take_value() -> tuple[str, bool]:
        """The flag's value, honouring legacy ``-s ! ADDR`` negation."""
        nonlocal negate
        value = take()
        negated = negate
        negate = False
        if value == "!":
            negated = True
            value = take()
        return value, negated

    def add(field_name: str, values: IntervalSet, negated: bool) -> None:
        if negated:
            values = _negate(values, field_name, dialect, line)
        _constrain(sets, field_name, values, dialect, line)

    while i < len(tokens):
        flag = take()
        if flag == "!":
            negate = True
            continue
        if flag in ("-s", "--source"):
            value, negated = take_value()
            add("src_ip", _prefix_set(value, dialect, line), negated)
        elif flag in ("-d", "--destination"):
            value, negated = take_value()
            add("dst_ip", _prefix_set(value, dialect, line), negated)
        elif flag in ("-p", "--protocol"):
            value, negated = take_value()
            proto = value.lower()
            if ascii_digits(proto):
                number: int | None = int(proto)
                if number is not None and number > 255:
                    raise _err(dialect, f"bad protocol number {proto!r}", line)
            elif proto in _PROTO_NUMBERS:
                number = _PROTO_NUMBERS[proto]
            else:
                raise _err(dialect, f"unsupported protocol {proto!r}", line)
            if number is None:
                if negated:
                    raise _err(
                        dialect, f"cannot negate protocol {proto!r}", line
                    )
                continue
            add("protocol", IntervalSet.single(number), negated)
        elif flag == "--sport":
            value, negated = take_value()
            add("src_port", _port_set(value, dialect, line), negated)
        elif flag == "--dport":
            value, negated = take_value()
            add("dst_port", _port_set(value, dialect, line), negated)
        elif flag == "--sports":
            value, negated = take_value()
            add("src_port", _port_list_set(value, dialect, line), negated)
        elif flag == "--dports":
            value, negated = take_value()
            add("dst_port", _port_list_set(value, dialect, line), negated)
        elif flag == "--ports":
            raise _err(
                dialect,
                "multiport --ports matches source OR destination; that "
                "disjunction has no single-rule lowering — "
                "use --sports/--dports",
                line,
            )
        elif flag in ("--ctstate", "--state"):
            value, negated = take_value()
            ctset = _ctstate_set(value, dialect, line)
            if negated:
                ctset = _negate(ctset, "state", dialect, line)
            state = ctset if state is None else state & ctset
            if state.is_empty():
                raise _err(
                    dialect, "contradictory connection-state matches", line
                )
        elif flag == "-j":
            target = take()
            if target not in ("ACCEPT", "DROP", "REJECT", "LOG"):
                raise _err(dialect, f"unsupported target {target!r}", line)
        elif flag == "-m":
            module = take()
            if module not in ("comment", "multiport", "conntrack", "state"):
                raise _err(
                    dialect, f"unsupported match module {module!r}", line
                )
        elif flag == "--comment":
            comment = take()
        elif flag in ("--log-prefix", "--log-level"):
            take()  # cosmetic LOG options; the decision already says "log"
        else:
            raise _err(dialect, f"unsupported flag {flag!r}", line)
    if negate:
        raise _err(dialect, "dangling '!' with nothing to negate", line)
    if not target:
        raise _err(dialect, "rule has no -j target", line)
    return sets, state, target, comment


# ----------------------------------------------------------------------
# Cisco extended ACL
# ----------------------------------------------------------------------


def parse_cisco(
    text: str,
    *,
    schema: FieldSchema | None = None,
    name: str = "",
    chain: str | None = None,
) -> IRPolicy:
    """Parse Cisco extended-ACL statements into canonical IR.

    Cisco ACLs end with an implicit ``deny ip any any``; the frontend
    appends it, so the result is always comprehensive.  Every statement
    records its 1-based dump line.
    """
    dialect = "cisco"
    base_schema = schema if schema is not None else standard_schema()
    parsed: list[_ParsedRule] = []
    acl_name = ""
    pending_remark = ""
    last_line = 0

    for line_no, raw in enumerate(text.splitlines(), start=1):
        last_line = line_no
        stripped = raw.strip()
        if not stripped or stripped.startswith("!"):
            continue
        if stripped.startswith("ip access-list"):
            acl_name = stripped.split()[-1]
            continue
        tokens = stripped.split()
        if tokens[0] == "remark":
            pending_remark = " ".join(tokens[1:])
            continue
        if tokens[0] not in ("permit", "deny"):
            raise _err(dialect, f"unsupported ACL line {stripped!r}", line_no)
        parsed.append(
            _parse_cisco_statement(tokens, line_no, pending_remark)
        )
        pending_remark = ""

    parsed.append(
        _ParsedRule(
            {}, None, DISCARD, "implicit deny ip any any", last_line or 1
        )
    )
    return _assemble(
        parsed, base_schema, schema, dialect, name or acl_name or "cisco-acl"
    )


def _parse_cisco_statement(
    tokens: list[str], line: int, remark: str
) -> _ParsedRule:
    dialect = "cisco"
    i = 0

    def take() -> str:
        nonlocal i
        if i >= len(tokens):
            raise _err(dialect, "truncated ACL statement", line)
        value = tokens[i]
        i += 1
        return value

    def peek() -> str | None:
        return tokens[i] if i < len(tokens) else None

    action = take()
    log = False
    proto_text = take().lower()
    sets: dict[str, IntervalSet] = {}
    if proto_text not in _PROTO_NUMBERS and not ascii_digits(proto_text):
        raise _err(dialect, f"unsupported protocol {proto_text!r}", line)
    if ascii_digits(proto_text):
        sets["protocol"] = IntervalSet.single(int(proto_text))
    elif _PROTO_NUMBERS[proto_text] is not None:
        number = _PROTO_NUMBERS[proto_text]
        assert number is not None
        sets["protocol"] = IntervalSet.single(number)

    def take_address() -> IntervalSet | None:
        token = take()
        if token == "any":
            return None
        try:
            if token == "host":
                return IntervalSet.single(ip_to_int(take()))
            base = ip_to_int(token)
            wildcard = ip_to_int(take())
        except AddressError as exc:
            raise _err(dialect, str(exc), line) from None
        # Contiguous wildcard masks map to intervals; others are rare and
        # unsupported (strictness beats silent misparse).
        size = wildcard + 1
        if size & (size - 1):
            raise _err(dialect, f"non-contiguous wildcard mask {token}", line)
        if base & wildcard:
            raise _err(
                dialect, f"address {token} has bits inside the wildcard", line
            )
        return IntervalSet.span(base, base + wildcard)

    def take_ports() -> IntervalSet | None:
        token = peek()
        if token == "eq":
            take()
            return _port_set(take(), dialect, line)
        if token == "range":
            take()
            lo_text, hi_text = take(), take()
            if not (ascii_digits(lo_text) and ascii_digits(hi_text)):
                raise _err(
                    dialect, f"bad port range {lo_text} {hi_text}", line
                )
            return IntervalSet([Interval(int(lo_text), int(hi_text))])
        return None

    src = take_address()
    if src is not None:
        sets["src_ip"] = src
    sport = take_ports()
    if sport is not None:
        sets["src_port"] = sport
    dst = take_address()
    if dst is not None:
        sets["dst_ip"] = dst
    dport = take_ports()
    if dport is not None:
        sets["dst_port"] = dport
    while (token := peek()) is not None:
        if token == "log":
            take()
            log = True
        else:
            raise _err(dialect, f"unsupported ACL token {token!r}", line)

    if action == "permit":
        decision = ACCEPT_LOG if log else ACCEPT
    else:
        decision = DISCARD_LOG if log else DISCARD
    return _ParsedRule(sets, None, decision, remark, line)


# ----------------------------------------------------------------------
# nftables
# ----------------------------------------------------------------------


def parse_nftables(
    text: str,
    *,
    schema: FieldSchema | None = None,
    name: str = "",
    chain: str | None = None,
) -> IRPolicy:
    """Parse ``nft list ruleset`` style dumps into canonical IR.

    Supported rule vocabulary: ``ip saddr``/``ip daddr`` (prefixes, bare
    addresses, and ``{ ... }`` sets), ``ip protocol``, ``tcp``/``udp``
    ``sport``/``dport`` (ports, ``lo-hi`` ranges, sets; the protocol is
    constrained implicitly), ``th sport``/``th dport`` (ports without a
    protocol constraint), ``!=`` negation on any of those, ``ct state``
    (mapped onto :mod:`repro.stateful`), ``counter`` (ignored), ``log``,
    ``accept``/``drop``/``reject``, and ``comment "..."``.

    The base chain's ``policy accept;``/``policy drop;`` declaration
    supplies the final catch-all (default accept, like nft itself).
    ``chain`` selects which chain to import when the dump has several;
    by default the single chain, or the one with a ``type ... hook``
    line, is used.  Every rule records its 1-based dump line.
    """
    dialect = "nftables"
    base_schema = schema if schema is not None else standard_schema()

    @dataclass
    class _Chain:
        name: str
        rules: list[_ParsedRule]
        policy: Decision | None = None
        policy_line: int | None = None
        hooked: bool = False

    chains: list[_Chain] = []
    context: list[str] = []  # nesting: "table" / "chain"
    current: _Chain | None = None
    table_name = ""
    last_line = 0

    for line_no, raw in enumerate(text.splitlines(), start=1):
        last_line = line_no
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped == "}":
            if not context:
                raise _err(dialect, "unbalanced '}'", line_no)
            if context.pop() == "chain":
                current = None
            continue
        if stripped.startswith("table ") and stripped.endswith("{"):
            if context:
                raise _err(dialect, "nested table", line_no)
            parts = stripped[:-1].split()
            table_name = parts[-1] if len(parts) >= 2 else ""
            context.append("table")
            continue
        if stripped.startswith("chain ") and stripped.endswith("{"):
            if context != ["table"]:
                raise _err(dialect, "chain outside a table", line_no)
            chain_name = stripped[:-1].split()[1]
            current = _Chain(chain_name, [])
            chains.append(current)
            context.append("chain")
            continue
        if current is None:
            raise _err(dialect, f"unsupported line {stripped!r}", line_no)
        if stripped.startswith("type ") and "hook" in stripped:
            current.hooked = True
            declaration = stripped.rstrip(";")
            if "policy" in declaration.split():
                policy_word = declaration.split()[-1]
                if policy_word not in ("accept", "drop"):
                    raise _err(
                        dialect, f"unsupported chain policy {policy_word!r}",
                        line_no,
                    )
                current.policy = ACCEPT if policy_word == "accept" else DISCARD
                current.policy_line = line_no
            continue
        if stripped.startswith("policy ") and stripped.endswith(";"):
            policy_word = stripped[len("policy "):-1].strip()
            if policy_word not in ("accept", "drop"):
                raise _err(
                    dialect, f"unsupported chain policy {policy_word!r}",
                    line_no,
                )
            current.policy = ACCEPT if policy_word == "accept" else DISCARD
            current.policy_line = line_no
            continue
        current.rules.append(_parse_nftables_rule(stripped, line_no))

    if context:
        raise _err(dialect, "unterminated block (missing '}')", last_line)
    if not chains:
        raise _err(dialect, "no chain found", last_line or 1)
    if chain is not None:
        matches = [c for c in chains if c.name.lower() == chain.lower()]
        if not matches:
            known = ", ".join(c.name for c in chains)
            raise _err(
                dialect, f"chain {chain!r} not found (chains: {known})",
                last_line,
            )
        selected = matches[0]
    elif len(chains) == 1:
        selected = chains[0]
    else:
        hooked = [c for c in chains if c.hooked]
        if len(hooked) != 1:
            known = ", ".join(c.name for c in chains)
            raise _err(
                dialect,
                f"ambiguous dump with chains {known}; pass chain=",
                last_line,
            )
        selected = hooked[0]

    parsed = list(selected.rules)
    policy_decision = selected.policy if selected.policy is not None else ACCEPT
    parsed.append(
        _ParsedRule(
            {},
            None,
            policy_decision,
            "chain policy",
            selected.policy_line or last_line or 1,
        )
    )
    default_name = "-".join(
        part for part in ("nftables", table_name, selected.name) if part
    )
    return _assemble(parsed, base_schema, schema, dialect, name or default_name)


def _parse_nftables_rule(stripped: str, line: int) -> _ParsedRule:
    dialect = "nftables"
    try:
        tokens = shlex.split(stripped)
    except ValueError as exc:
        raise _err(dialect, str(exc), line) from None
    sets: dict[str, IntervalSet] = {}
    state: IntervalSet | None = None
    log = False
    verdict: str | None = None
    comment = ""
    i = 0

    def take() -> str:
        nonlocal i
        if i >= len(tokens):
            raise _err(dialect, "truncated rule", line)
        value = tokens[i]
        i += 1
        return value

    def peek() -> str | None:
        return tokens[i] if i < len(tokens) else None

    def take_negation() -> bool:
        if peek() == "!=":
            take()
            return True
        return False

    def take_values() -> list[str]:
        """One value, or a ``{ v, v, ... }`` set, or a comma list."""
        if peek() == "{":
            take()
            values: list[str] = []
            while True:
                token = peek()
                if token is None:
                    raise _err(dialect, "unterminated '{' set", line)
                take()
                if token == "}":
                    break
                values.extend(v for v in token.split(",") if v)
            if not values:
                raise _err(dialect, "empty set", line)
            return values
        return [v for v in take().split(",") if v]

    def add(field_name: str, values: IntervalSet, negated: bool) -> None:
        if negated:
            values = _negate(values, field_name, dialect, line)
        _constrain(sets, field_name, values, dialect, line)

    def addr_set(values: list[str]) -> IntervalSet:
        return IntervalSet.union_all(
            _prefix_set(v, dialect, line) for v in values
        )

    def port_atoms(values: list[str]) -> IntervalSet:
        return IntervalSet.union_all(
            _port_set(v, dialect, line, sep="-") for v in values
        )

    while i < len(tokens):
        token = take()
        if token == "ip":
            selector = take()
            if selector in ("saddr", "daddr"):
                negated = take_negation()
                field_name = "src_ip" if selector == "saddr" else "dst_ip"
                add(field_name, addr_set(take_values()), negated)
            elif selector == "protocol":
                negated = take_negation()
                numbers = set()
                for value in take_values():
                    proto = value.lower()
                    if ascii_digits(proto) and int(proto) <= 255:
                        numbers.add(int(proto))
                    elif proto in _PROTO_NUMBERS and _PROTO_NUMBERS[proto]:
                        number = _PROTO_NUMBERS[proto]
                        assert number is not None
                        numbers.add(number)
                    else:
                        raise _err(
                            dialect, f"unsupported protocol {value!r}", line
                        )
                add("protocol", IntervalSet.from_values(numbers), negated)
            else:
                raise _err(
                    dialect, f"unsupported ip selector {selector!r}", line
                )
        elif token in ("tcp", "udp"):
            selector = take()
            if selector not in ("sport", "dport"):
                raise _err(
                    dialect,
                    f"unsupported {token} selector {selector!r}",
                    line,
                )
            negated = take_negation()
            field_name = "src_port" if selector == "sport" else "dst_port"
            add(field_name, port_atoms(take_values()), negated)
            proto_number = _PROTO_NUMBERS[token]
            assert proto_number is not None
            _constrain(
                sets,
                "protocol",
                IntervalSet.single(proto_number),
                dialect,
                line,
            )
        elif token == "th":
            selector = take()
            if selector not in ("sport", "dport"):
                raise _err(
                    dialect, f"unsupported th selector {selector!r}", line
                )
            negated = take_negation()
            field_name = "src_port" if selector == "sport" else "dst_port"
            add(field_name, port_atoms(take_values()), negated)
        elif token == "ct":
            selector = take()
            if selector != "state":
                raise _err(
                    dialect, f"unsupported ct selector {selector!r}", line
                )
            negated = take_negation()
            ctset = _ctstate_set(",".join(take_values()), dialect, line)
            if negated:
                ctset = _negate(ctset, "state", dialect, line)
            state = ctset if state is None else state & ctset
            if state.is_empty():
                raise _err(
                    dialect, "contradictory connection-state matches", line
                )
        elif token == "counter":
            continue
        elif token == "log":
            log = True
        elif token in ("accept", "drop", "reject"):
            verdict = token
        elif token == "comment":
            comment = take()
        else:
            raise _err(dialect, f"unsupported token {token!r}", line)

    if verdict is None:
        raise _err(dialect, "rule has no accept/drop verdict", line)
    if verdict == "accept":
        decision = ACCEPT_LOG if log else ACCEPT
    else:
        decision = DISCARD_LOG if log else DISCARD
    return _ParsedRule(sets, state, decision, comment, line)


# ----------------------------------------------------------------------
# Registration
# ----------------------------------------------------------------------

_FRONTENDS: dict[str, tuple[FrontendFn, str]] = {
    "native": (parse_native, "the repo's own policy DSL"),
    "iptables": (
        parse_iptables,
        "iptables-save dumps (negation, multiport, conntrack)",
    ),
    "cisco": (parse_cisco, "Cisco extended ACLs"),
    "nftables": (parse_nftables, "nft list ruleset dumps"),
}

for _name, (_fn, _description) in _FRONTENDS.items():
    register_frontend(_name, _fn, description=_description)
