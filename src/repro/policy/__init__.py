"""The firewall policy model (Section 3.1 of the paper).

Rules are ``predicate -> decision``; a firewall is an ordered,
comprehensive rule sequence evaluated first-match.  A text format with a
parser/serializer round trip makes policies storable and diffable.

Device dialects flow through the canonical IR (:mod:`repro.policy.ir`)
and one registry: :func:`parse_policy` lowers any registered dialect
into :class:`IRPolicy` (``parse_policy(text, "iptables").to_firewall()``
imports a dump), and :func:`emit_policy` renders a firewall or IR back
out (``emit_policy(firewall, "cisco", name="EDGE")``).  The backends in
:mod:`repro.policy.export` register on first use.
"""

from repro.policy.frontends import (
    dialect_names,
    emit_policy,
    parse_policy,
)
from repro.policy.ir import IRPolicy, IRRule
from repro.policy.decision import (
    ACCEPT,
    ACCEPT_LOG,
    DISCARD,
    DISCARD_LOG,
    STANDARD_DECISIONS,
    Decision,
    parse_decision,
)
from repro.policy.firewall import Firewall
from repro.policy.parser import load, loads, parse_rule
from repro.policy.predicate import Predicate
from repro.policy.rule import Rule
from repro.policy.serializer import dump, dumps, rule_to_text, to_table

__all__ = [
    "ACCEPT",
    "ACCEPT_LOG",
    "DISCARD",
    "DISCARD_LOG",
    "Decision",
    "Firewall",
    "IRPolicy",
    "IRRule",
    "Predicate",
    "Rule",
    "STANDARD_DECISIONS",
    "dialect_names",
    "dump",
    "dumps",
    "emit_policy",
    "load",
    "loads",
    "parse_decision",
    "parse_policy",
    "parse_rule",
    "rule_to_text",
    "to_table",
]
