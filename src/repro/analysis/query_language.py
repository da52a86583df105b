"""A small textual query language over firewall policies.

Firewall Queries [20] (cited in Section 9) proposes SQL-like questions
against a policy.  This module parses that style of query and answers it
exactly via the FDD engine (:mod:`repro.analysis.queries`):

.. code-block:: text

    which packets accept where dst_ip=192.168.0.1 and dst_port=smtp
    count discard where src_ip=224.168.0.0/16
    any accept where src_ip=224.168.0.0/16 and dst_ip=192.168.0.1

Grammar::

    query     = verb decision ["where" condition ("and" condition)*]
    verb      = "which" "packets" | "count" | "any"
    decision  = accept | discard | accept+log | ... (parse_decision)
    condition = field "=" value-set        (field vocabulary applies)

Answers: ``which packets`` lists the matching regions rule-style;
``count`` returns the exact packet count; ``any`` returns a witness
region or "none".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.queries import QueryResult, query
from repro.exceptions import QueryError, ReproError
from repro.fdd.fast import construct_fdd_fast
from repro.fdd.fdd import FDD
from repro.intervals.intervalset import IntervalSet
from repro.policy.decision import Decision, parse_decision
from repro.policy.firewall import Firewall
from repro.policy.predicate import Predicate

__all__ = ["ParsedQuery", "parse_query", "run_query", "QuerySession"]

_VERBS = ("which", "count", "any")


@dataclass(frozen=True)
class ParsedQuery:
    """A parsed query: verb, target decision, and the region of interest."""

    verb: str
    decision: Decision
    region: Predicate

    def describe(self) -> str:
        """Canonical textual form of the query."""
        where = self.region.describe()
        suffix = "" if where == "any" else f" where {where}"
        noun = " packets" if self.verb == "which" else ""
        return f"{self.verb}{noun} {self.decision}{suffix}"


def parse_query(text: str, schema) -> ParsedQuery:
    """Parse a query string against a field schema.

    >>> from repro.fields import standard_schema
    >>> q = parse_query("count accept where dst_port=smtp", standard_schema())
    >>> (q.verb, str(q.decision))
    ('count', 'accept')
    """
    tokens = text.strip().split(None, 1)
    if not tokens:
        raise QueryError("empty query")
    verb = tokens[0].lower()
    rest = tokens[1] if len(tokens) > 1 else ""
    if verb == "which":
        noun, _, rest = rest.partition(" ")
        if noun.lower() != "packets":
            raise QueryError("expected 'which packets <decision> ...'")
    if verb not in _VERBS:
        raise QueryError(
            f"unknown verb {verb!r}; expected one of {', '.join(_VERBS)}"
        )
    decision_text, _, where_clause = rest.partition(" where ")
    decision_text = decision_text.strip()
    if not decision_text:
        raise QueryError("query is missing a decision (e.g. 'count accept')")
    try:
        decision = parse_decision(decision_text)
    except KeyError as exc:
        raise QueryError(str(exc)) from None

    sets: list[IntervalSet | None] = [None] * len(schema)
    if where_clause.strip():
        for condition in where_clause.split(" and "):
            condition = condition.strip()
            if "=" not in condition:
                raise QueryError(
                    f"condition {condition!r} must look like field=value-set"
                )
            name, _, value_text = condition.partition("=")
            try:
                index = schema.index_of(name.strip())
                values = schema[index].parse_value_set(value_text.strip())
            except ReproError as exc:
                raise QueryError(str(exc)) from None
            if sets[index] is not None:
                raise QueryError(f"field {name.strip()!r} constrained twice")
            sets[index] = values
    full = tuple(
        values if values is not None else field.domain_set
        for values, field in zip(sets, schema)
    )
    return ParsedQuery(verb, decision, Predicate(schema, full))


def run_query(text: str, firewall: Firewall | FDD) -> str:
    """Parse and answer a query; returns the human-readable answer.

    >>> from repro.fields import toy_schema
    >>> from repro.policy import Firewall, Rule, ACCEPT, DISCARD
    >>> schema = toy_schema(9)
    >>> fw = Firewall(schema, [Rule.build(schema, DISCARD, F1="0-3"),
    ...                        Rule.build(schema, ACCEPT)])
    >>> run_query("count discard", fw)
    '4'
    """
    schema = firewall.schema
    parsed = parse_query(text, schema)
    result: QueryResult = query(firewall, parsed.region, parsed.decision)
    if parsed.verb == "count":
        return str(result.packet_count())
    if parsed.verb == "any":
        if result.is_empty():
            return "none"
        return result.regions[0].describe()
    return result.describe()


class QuerySession:
    """Answers many queries against one policy, reusing its FDD.

    Constructing the FDD dominates single-query cost; a session builds it
    once.

    >>> from repro.fields import toy_schema
    >>> from repro.policy import Firewall, Rule, ACCEPT, DISCARD
    >>> schema = toy_schema(9)
    >>> fw = Firewall(schema, [Rule.build(schema, DISCARD, F1="0-3"),
    ...                        Rule.build(schema, ACCEPT)])
    >>> session = QuerySession(fw)
    >>> session.ask("count accept"), session.ask("any discard where F1=5-9")
    ('6', 'none')
    """

    def __init__(self, firewall: Firewall):
        self.firewall = firewall
        self.fdd = construct_fdd_fast(firewall)

    def ask(self, text: str) -> str:
        """Answer one query string."""
        return run_query(text, self.fdd)
