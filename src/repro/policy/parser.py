"""Textual firewall policy format.

A small, explicit line format so policies (including the paper's examples)
can live in files and tests:

.. code-block:: text

    # Team B's firewall (paper Table 2)
    firewall "Team B" schema=interface
    interface=0, src_ip=224.168.0.0/16 -> discard
    interface=0, dst_ip=192.168.0.1, dst_port=25, protocol=0 -> accept
    interface=0, dst_ip=192.168.0.1 -> discard
    any -> accept      # catch-all

Grammar per rule line::

    <conjunct> ("," <conjunct>)* "->" <decision> ["#" comment]
    conjunct   = field "=" value-set | "any"

Value sets use each field's vocabulary (CIDR prefixes, service names,
protocol names, ``lo-hi`` ranges, comma-free atoms joined by ``|`` inside
one conjunct).  Whole-domain fields may simply be omitted.
"""

from __future__ import annotations

from repro.exceptions import ParseError, ReproError
from repro.fields.schema import FieldSchema, interface_schema, standard_schema
from repro.intervals.intervalset import IntervalSet
from repro.policy.decision import parse_decision
from repro.policy.firewall import Firewall
from repro.policy.predicate import Predicate
from repro.policy.rule import Rule

__all__ = ["parse_rule", "parse_firewall", "loads", "load"]

def _stateful_schema() -> FieldSchema:
    # Imported lazily: repro.stateful builds on repro.policy, so a
    # module-level import here would be a cycle.
    from repro.stateful.firewall import stateful_schema

    return stateful_schema()


_SCHEMAS = {
    "standard": standard_schema,
    "interface": interface_schema,
    "stateful": _stateful_schema,
}


def parse_rule(text: str, schema: FieldSchema, line: int | None = None) -> Rule:
    """Parse one rule line into a :class:`Rule`.

    >>> from repro.fields import standard_schema
    >>> r = parse_rule("dst_ip=10.0.0.0/8, dst_port=smtp -> accept", standard_schema())
    >>> str(r.decision)
    'accept'
    """
    body, _, comment = text.partition("#")
    body = body.strip()
    comment = comment.strip()
    if "->" not in body:
        raise ParseError(f"rule {body!r} is missing '->'", line)
    pred_text, _, dec_text = body.rpartition("->")
    dec_text = dec_text.strip()
    if not dec_text:
        raise ParseError(f"rule {body!r} has an empty decision", line)
    try:
        decision = parse_decision(dec_text)
    except KeyError as exc:
        raise ParseError(str(exc), line) from None

    pred_text = pred_text.strip()
    if pred_text.lower() in ("any", "all", "*", ""):
        predicate = Predicate.match_all(schema)
        return Rule(predicate, decision, comment, source_line=line)

    sets: list[IntervalSet | None] = [None] * len(schema)
    for conjunct in _split_conjuncts(pred_text):
        if "=" not in conjunct:
            raise ParseError(
                f"conjunct {conjunct!r} must look like field=value-set", line
            )
        name, _, value_text = conjunct.partition("=")
        name = name.strip()
        try:
            index = schema.index_of(name)
        except ReproError as exc:
            raise ParseError(str(exc), line) from None
        if sets[index] is not None:
            raise ParseError(f"field {name!r} constrained twice", line)
        # '|' joins alternatives inside one conjunct (',' separates fields).
        atoms = value_text.replace("|", ",")
        try:
            sets[index] = schema[index].parse_value_set(atoms)
        except ReproError as exc:
            raise ParseError(str(exc), line) from None
        except ValueError as exc:
            # Belt and braces: a field parser that lets a raw ValueError
            # escape (rather than an AddressError) must still surface as a
            # ParseError naming the offending line.
            raise ParseError(f"bad value set {value_text!r}: {exc}", line) from None
    full_sets = tuple(
        values if values is not None else field.domain_set
        for values, field in zip(sets, schema)
    )
    try:
        predicate = Predicate(schema, full_sets)
    except ReproError as exc:
        raise ParseError(str(exc), line) from None
    return Rule(predicate, decision, comment, source_line=line)


def _split_conjuncts(text: str) -> list[str]:
    """Split on commas, but a comma directly between digits inside the same
    ``field=...`` chunk separates alternative atoms of that field only when
    no ``=`` follows — in practice rule authors use ``|`` for alternatives,
    so this splitter simply splits on ``,`` where the next chunk contains
    ``=`` before any other separator."""
    parts: list[str] = []
    current: list[str] = []
    for piece in text.split(","):
        if "=" in piece or not current:
            parts.append(piece.strip())
            current = [piece]
        else:
            # continuation of the previous conjunct's value list
            parts[-1] = parts[-1] + "," + piece.strip()
    return [p for p in parts if p]


def loads(text: str, schema: FieldSchema | None = None) -> Firewall:
    """Parse a multi-line policy document into a :class:`Firewall`.

    The optional header line ``firewall "<name>" schema=<standard|interface>``
    selects a schema; otherwise ``schema`` must be supplied.
    """
    name = ""
    rules: list[Rule] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("firewall"):
            name, schema = _parse_header(stripped, schema, line_no)
            continue
        if schema is None:
            raise ParseError(
                "no schema: add a 'firewall ... schema=standard' header or pass schema=",
                line_no,
            )
        rules.append(parse_rule(stripped, schema, line_no))
    if schema is None:
        raise ParseError("empty document and no schema given")
    if not rules:
        raise ParseError("policy document contains no rules")
    return Firewall(schema, rules, name=name)


def _parse_header(
    line: str, schema: FieldSchema | None, line_no: int
) -> tuple[str, FieldSchema]:
    rest = line[len("firewall"):].strip()
    name = ""
    if rest.startswith('"'):
        end = rest.find('"', 1)
        if end == -1:
            raise ParseError("unterminated firewall name", line_no)
        name = rest[1:end]
        rest = rest[end + 1:].strip()
    for token in rest.split():
        if token.startswith("schema="):
            key = token[len("schema="):]
            if key not in _SCHEMAS:
                raise ParseError(
                    f"unknown schema {key!r}; known: {sorted(_SCHEMAS)}", line_no
                )
            schema = _SCHEMAS[key]()
        elif token:
            raise ParseError(f"unexpected header token {token!r}", line_no)
    if schema is None:
        raise ParseError("header must name a schema (schema=standard)", line_no)
    return name, schema


def load(path, schema: FieldSchema | None = None) -> Firewall:
    """Parse a policy file from ``path`` (str or Path)."""
    with open(path, "r", encoding="utf-8") as handle:
        return loads(handle.read(), schema)
