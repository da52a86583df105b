"""Canonical policy intermediate representation (IR).

Every dialect frontend (:mod:`repro.policy.frontends`) lowers its concrete
syntax into this one normalized form, and every backend
(:mod:`repro.policy.export`) emits from it.  The IR is deliberately tiny:
a policy is a schema plus an ordered list of first-match rules, and a
rule is one :class:`~repro.intervals.IntervalSet` per schema field, a
decision, and provenance (originating dialect + source line).

Normalization invariants, established at lowering time:

* **One interval set per field, always.**  An unconstrained field carries
  the field's full domain set; there is no "absent match" state.
* **Negation is expanded.**  ``! -s 10.0.0.0/8`` style matches are
  lowered via :func:`negate_match` into the complement interval set, so
  downstream consumers (FDD construction, backends, the simplifier)
  never see polarity.
* **Disjunction is an interval set, not a rule split.**  Multiport lists
  and nftables sets lower into multi-interval sets on a single rule.
* **Provenance survives.**  ``source_line`` is the 1-based line in the
  original dump, threaded through to :class:`~repro.policy.rule.Rule`
  so ``repro lint`` on imported policies points at real lines.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Iterable, Mapping

from repro.exceptions import PolicyError, SchemaError
from repro.fields.schema import Field, FieldSchema
from repro.intervals.intervalset import IntervalSet
from repro.policy.decision import Decision
from repro.policy.firewall import Firewall
from repro.policy.predicate import Predicate
from repro.policy.rule import Rule

__all__ = ["IRRule", "IRPolicy", "negate_match"]


def negate_match(values: IntervalSet, field: Field) -> IntervalSet:
    """Expand a negated match into its complement within ``field``.

    This is the single place dialect negation (iptables ``!``, nftables
    ``!=``) becomes plain interval sets.  Raises :class:`PolicyError`
    when the negation matches nothing (the original set covered the whole
    domain) because an empty per-field set cannot form a predicate.
    """
    out = values.complement(field.domain_set)
    if out.is_empty():
        raise PolicyError(
            f"negated {field.name} match covers the whole domain; "
            "the rule would match nothing"
        )
    return out


@dataclass(frozen=True)
class IRRule:
    """One normalized rule: per-field interval sets + decision + provenance."""

    matches: tuple[IntervalSet, ...]
    decision: Decision
    comment: str = ""
    source_line: int | None = None

    @classmethod
    def from_fields(
        cls,
        schema: FieldSchema,
        constraints: Mapping[str, IntervalSet],
        decision: Decision,
        *,
        comment: str = "",
        source_line: int | None = None,
    ) -> "IRRule":
        """Build a rule from a sparse ``field name -> IntervalSet`` map.

        Unnamed fields get their full domain set.  Unknown field names
        are a :class:`SchemaError` (frontend bugs should fail loudly).
        """
        known = {f.name for f in schema}
        for name in constraints:
            if name not in known:
                raise SchemaError(f"unknown field {name!r} for this schema")
        matches = tuple(
            constraints.get(f.name, f.domain_set) for f in schema
        )
        return cls(matches, decision, comment, source_line)

    def to_rule(self, schema: FieldSchema) -> Rule:
        """Lower into a concrete :class:`Rule` (validates domains)."""
        return Rule(
            Predicate(schema, self.matches),
            self.decision,
            self.comment,
            source_line=self.source_line,
        )


@dataclass(frozen=True)
class IRPolicy:
    """An ordered, first-match rule list over one schema.

    The canonical hand-off object between frontends and everything else:
    ``parse_policy`` returns one, :meth:`to_firewall` enters the core
    pipeline (FDD construction, analysis, simplification), and
    :meth:`from_firewall` re-enters the IR for backend emission.
    """

    schema: FieldSchema
    rules: tuple[IRRule, ...]
    name: str = ""
    dialect: str = dataclass_field(default="")

    def __post_init__(self) -> None:
        width = len(self.schema.fields)
        for i, rule in enumerate(self.rules):
            if len(rule.matches) != width:
                raise SchemaError(
                    f"IR rule {i + 1} has {len(rule.matches)} field matches, "
                    f"schema has {width}"
                )

    def __len__(self) -> int:
        return len(self.rules)

    def to_firewall(self, *, require_comprehensive: bool = True) -> Firewall:
        """Lower the whole policy into a :class:`Firewall`.

        Source-line provenance carries through: every produced
        :class:`Rule` keeps its originating dump line.
        """
        if not self.rules:
            raise PolicyError(
                f"{self.dialect or 'policy'} input contains no rules"
            )
        return Firewall(
            self.schema,
            [rule.to_rule(self.schema) for rule in self.rules],
            name=self.name,
            require_comprehensive=require_comprehensive,
        )

    @classmethod
    def from_firewall(cls, firewall: Firewall, *, dialect: str = "") -> "IRPolicy":
        """Lift a :class:`Firewall` back into the IR (for backends)."""
        rules = tuple(
            IRRule(
                rule.predicate.sets,
                rule.decision,
                rule.comment,
                rule.source_line,
            )
            for rule in firewall.rules
        )
        return cls(firewall.schema, rules, firewall.name, dialect)

    @classmethod
    def build(
        cls,
        schema: FieldSchema,
        rules: Iterable[IRRule],
        *,
        name: str = "",
        dialect: str = "",
    ) -> "IRPolicy":
        return cls(schema, tuple(rules), name, dialect)
