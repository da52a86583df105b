"""Firewall rules: ``<predicate> -> <decision>`` (Section 3.1)."""

from __future__ import annotations

from typing import Sequence

from repro.fields.packet import Packet
from repro.fields.schema import FieldSchema
from repro.intervals.interval import Interval
from repro.intervals.intervalset import IntervalSet
from repro.policy.decision import Decision
from repro.policy.predicate import Predicate

__all__ = ["Rule"]


class Rule:
    """An immutable firewall rule: a predicate and a decision.

    Rules carry an optional free-text ``comment`` — the paper's
    effectiveness experiment (Section 8.1) relied on per-rule comments
    serving as the requirement specification, so comments are first-class
    here and survive parsing/serialization.
    """

    __slots__ = ("_predicate", "_decision", "_comment", "_source_line", "_hash")

    def __init__(
        self,
        predicate: Predicate,
        decision: Decision,
        comment: str = "",
        *,
        source_line: int | None = None,
    ):
        self._predicate = predicate
        self._decision = decision
        self._comment = comment
        self._source_line = source_line
        self._hash: int | None = None

    @classmethod
    def build(
        cls,
        schema: FieldSchema,
        decision: Decision,
        comment: str = "",
        **conjuncts: IntervalSet | Interval | int | str,
    ) -> "Rule":
        """Keyword constructor mirroring :meth:`Predicate.from_fields`.

        >>> from repro.fields import standard_schema
        >>> from repro.policy import ACCEPT
        >>> r = Rule.build(standard_schema(), ACCEPT, dst_port="smtp", protocol="tcp")
        """
        return cls(Predicate.from_fields(schema, **conjuncts), decision, comment)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def predicate(self) -> Predicate:
        """The rule's predicate."""
        return self._predicate

    @property
    def decision(self) -> Decision:
        """The rule's decision."""
        return self._decision

    @property
    def comment(self) -> str:
        """Free-text documentation attached to the rule (may be empty)."""
        return self._comment

    @property
    def source_line(self) -> int | None:
        """One-based line number in the policy file this rule came from.

        Set by :func:`repro.policy.parser.loads`; ``None`` for rules built
        programmatically.  Like ``comment``, provenance is documentation:
        it is ignored by ``__eq__``/``__hash__`` and used by diagnostics
        (:mod:`repro.lint`) to anchor findings to source locations.
        """
        return self._source_line

    @property
    def schema(self) -> FieldSchema:
        """Schema of the rule's predicate."""
        return self._predicate.schema

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------
    def matches(self, packet: Packet | Sequence[int]) -> bool:
        """True if the packet satisfies the rule's predicate."""
        return self._predicate.matches(packet)

    def is_simple(self) -> bool:
        """True if the predicate is simple (one interval per field)."""
        return self._predicate.is_simple()

    def with_decision(self, decision: Decision) -> "Rule":
        """A copy of this rule with a different decision."""
        return Rule(
            self._predicate, decision, self._comment, source_line=self._source_line
        )

    def with_comment(self, comment: str) -> "Rule":
        """A copy of this rule with a different comment."""
        return Rule(
            self._predicate, self._decision, comment, source_line=self._source_line
        )

    def with_source_line(self, source_line: int | None) -> "Rule":
        """A copy of this rule with different source-line provenance."""
        return Rule(
            self._predicate, self._decision, self._comment, source_line=source_line
        )

    # ------------------------------------------------------------------
    # Value semantics / presentation
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rule):
            return NotImplemented
        # Comments are documentation, not semantics: ignored in equality.
        return self._predicate == other._predicate and self._decision == other._decision

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._predicate, self._decision))
        return self._hash

    def describe(self) -> str:
        """Human-readable ``predicate -> decision`` rendering."""
        return f"{self._predicate.describe()} -> {self._decision}"

    def __repr__(self) -> str:
        return f"Rule({self.describe()})"

    def __str__(self) -> str:
        return self.describe()
