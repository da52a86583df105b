"""Serialization of policies back into the textual format and into tables.

The inverse of :mod:`repro.policy.parser`: output parses back to an
equal firewall (round-trip property, covered by tests).  Also provides the
fixed-width table rendering used by the examples and benchmarks to mimic
the paper's Tables 1/2/5/6/7.
"""

from __future__ import annotations

from repro.fields.schema import FieldSchema
from repro.policy.firewall import Firewall
from repro.policy.rule import Rule

__all__ = ["rule_to_text", "dumps", "dump", "to_table"]


def rule_to_text(rule: Rule) -> str:
    """Render one rule in the parser's line format."""
    parts = []
    for values, field in zip(rule.predicate.sets, rule.schema):
        if values == field.domain_set:
            continue
        rendered = field.format_value_set(values)
        # The parser separates in-conjunct alternatives with '|', and the
        # port formatter annotates well-known ports; strip both frictions.
        rendered = rendered.replace(", ", "|")
        if "(" in rendered:
            rendered = "|".join(
                atom.split(" (")[0] for atom in rendered.split("|")
            )
        parts.append(f"{field.name}={rendered}")
    predicate_text = ", ".join(parts) if parts else "any"
    line = f"{predicate_text} -> {rule.decision}"
    if rule.comment:
        line += f"  # {rule.comment}"
    return line


def dumps(firewall: Firewall, schema_key: str | None = None) -> str:
    """Render a policy document, optionally with a schema header.

    ``schema_key`` should be ``"standard"`` or ``"interface"`` to emit a
    self-describing header that :func:`repro.policy.parser.loads` accepts
    without an explicit schema argument.
    """
    lines = []
    if schema_key is not None:
        name_part = f' "{firewall.name}"' if firewall.name else ""
        lines.append(f"firewall{name_part} schema={schema_key}")
    elif firewall.name:
        lines.append(f"# firewall: {firewall.name}")
    for rule in firewall.rules:
        lines.append(rule_to_text(rule))
    return "\n".join(lines) + "\n"


def dump(firewall: Firewall, path, schema_key: str | None = None) -> None:
    """Write a policy document to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(firewall, schema_key))


def to_table(firewall: Firewall, *, title: str | None = None) -> str:
    """Fixed-width table rendering in the style of the paper's tables.

    One column per field (using field symbols as headers) plus a decision
    column; whole-domain cells render as ``all``.
    """
    schema: FieldSchema = firewall.schema
    headers = ["rule"] + [f.symbol for f in schema] + ["decision"]
    rows: list[list[str]] = []
    for i, rule in enumerate(firewall.rules, start=1):
        cells = [f"r{i}"]
        for values, field in zip(rule.predicate.sets, schema):
            cells.append(field.format_value_set(values))
        cells.append(str(rule.decision))
        rows.append(cells)
    widths = [
        max(len(headers[c]), *(len(row[c]) for row in rows))
        for c in range(len(headers))
    ]
    lines = []
    if title is None and firewall.name:
        title = firewall.name
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)
