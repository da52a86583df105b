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

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.policy.frontends": ("dialect_names", "emit_policy", "parse_policy"),
        "repro.policy.ir": ("IRPolicy", "IRRule"),
        "repro.policy.decision": (
            "ACCEPT",
            "ACCEPT_LOG",
            "DISCARD",
            "DISCARD_LOG",
            "STANDARD_DECISIONS",
            "Decision",
            "parse_decision",
        ),
        "repro.policy.firewall": ("Firewall",),
        "repro.policy.parser": ("load", "loads", "parse_rule"),
        "repro.policy.predicate": ("Predicate",),
        "repro.policy.rule": ("Rule",),
        "repro.policy.serializer": ("dump", "dumps", "rule_to_text", "to_table"),
    },
)
