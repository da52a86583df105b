"""Firewall policies: ordered rule sequences with first-match semantics.

"A firewall f over the d fields F1 ... Fd is a sequence of firewall rules"
that must be *comprehensive* (every packet matches at least one rule), and
"the decision for a packet p is the decision of the first (that is, the
highest priority) rule that p matches" (Section 3.1).

:class:`Firewall` enforces a shared schema across rules, checks
comprehensiveness symbolically (not by enumeration), evaluates packets, and
offers the structural edits (insert/remove/replace/reorder) used by the
change-impact workflows.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.exceptions import (
    BudgetExceededError,
    NotComprehensiveError,
    PolicyError,
    SchemaError,
)
from repro.fields.packet import Packet
from repro.fields.schema import FieldSchema
from repro.intervals.intervalset import IntervalSet
from repro.policy.decision import Decision
from repro.policy.rule import Rule

__all__ = ["Firewall"]

#: Cap on disjoint uncovered regions tracked by the symbolic
#: comprehensiveness check before it gives up with a
#: :class:`~repro.exceptions.BudgetExceededError`.
_REGION_BUDGET = 100_000


class Firewall:
    """An immutable, comprehensive, first-match rule sequence.

    All mutating operations return new :class:`Firewall` objects.  The
    comprehensiveness check can be disabled (``require_comprehensive=
    False``) for intermediate rule lists (e.g. while composing fixes in
    resolution Method 2 before the final policy is assembled).
    """

    __slots__ = ("_schema", "_rules", "_name")

    def __init__(
        self,
        schema: FieldSchema,
        rules: Iterable[Rule],
        *,
        name: str = "",
        require_comprehensive: bool = True,
    ):
        rules = tuple(rules)
        if not rules:
            raise PolicyError("a firewall needs at least one rule")
        for i, rule in enumerate(rules):
            if rule.schema != schema:
                raise SchemaError(
                    f"rule {i + 1} uses a different field schema than the firewall"
                )
        self._schema = schema
        self._rules = rules
        self._name = name
        if require_comprehensive:
            witness = self.find_unmatched_packet()
            if witness is not None:
                raise NotComprehensiveError(
                    "rule sequence is not comprehensive: packet "
                    f"({', '.join(map(str, witness))}) matches no rule; "
                    "append a catch-all rule (predicate 'any')",
                    witness=witness,
                )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def schema(self) -> FieldSchema:
        """The field schema shared by all rules."""
        return self._schema

    @property
    def rules(self) -> tuple[Rule, ...]:
        """The ordered rules (highest priority first)."""
        return self._rules

    @property
    def name(self) -> str:
        """Optional display name (e.g. ``"Team A"``)."""
        return self._name

    def __len__(self) -> int:
        """``|f|``: the number of rules (Section 3.1)."""
        return len(self._rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self._rules)

    def __getitem__(self, index: int) -> Rule:
        return self._rules[index]

    def __eq__(self, other: object) -> bool:
        """Syntactic equality (same rules in the same order).

        Semantic equivalence (the paper's ``f1 == f2`` over all packets) is
        :func:`repro.analysis.equivalence.equivalent`.
        """
        if not isinstance(other, Firewall):
            return NotImplemented
        return self._schema == other._schema and self._rules == other._rules

    def __hash__(self) -> int:
        return hash((self._schema, self._rules))

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------
    def evaluate(self, packet: Packet | Sequence[int]) -> Decision:
        """``f(p)``: decision of the first rule the packet matches."""
        for rule in self._rules:
            if rule.matches(packet):
                return rule.decision
        raise NotComprehensiveError(
            f"packet ({', '.join(map(str, packet))}) matches no rule", witness=packet
        )

    def __call__(self, packet: Packet | Sequence[int]) -> Decision:
        return self.evaluate(packet)

    def first_match_index(self, packet: Packet | Sequence[int]) -> int:
        """Zero-based index of the first rule the packet matches."""
        for i, rule in enumerate(self._rules):
            if rule.matches(packet):
                return i
        raise NotComprehensiveError(
            f"packet ({', '.join(map(str, packet))}) matches no rule", witness=packet
        )

    def decisions(self) -> tuple[Decision, ...]:
        """The distinct decisions appearing in the policy, in rule order."""
        seen: list[Decision] = []
        for rule in self._rules:
            if rule.decision not in seen:
                seen.append(rule.decision)
        return tuple(seen)

    def find_unmatched_packet(self) -> tuple[int, ...] | None:
        """Return a packet matched by no rule, or ``None`` if comprehensive.

        Fast path: any rule whose predicate matches everything (the
        conventional final catch-all, Section 3.1) makes the sequence
        comprehensive.  Otherwise the check is symbolic: it maintains the
        *uncovered* region as a list of disjoint per-field interval-set
        products and subtracts each rule's predicate.  The region count is
        capped; policies without a catch-all that fragment the space past
        the cap raise :class:`~repro.exceptions.BudgetExceededError`
        (``resource="uncovered-regions"``, with a progress witness saying
        how many rules were subtracted) rather than returning a wrong
        answer — the fix, appending a catch-all, is the paper's own
        convention anyway.
        """
        if any(rule.predicate.is_match_all() for rule in self._rules):
            return None
        universe = tuple(f.domain_set for f in self._schema)
        uncovered: list[tuple[IntervalSet, ...]] = [universe]
        for rule_index, rule in enumerate(self._rules):
            if not uncovered:
                return None
            pred = rule.predicate.sets
            next_uncovered: list[tuple[IntervalSet, ...]] = []
            for region in uncovered:
                overlap = [a & b for a, b in zip(region, pred)]
                if any(o.is_empty() for o in overlap):
                    next_uncovered.append(region)
                    continue
                # Subtract the rule box from the region box: standard box
                # difference, peeling one field at a time.
                remainder = list(region)
                for i in range(len(remainder)):
                    outside = remainder[i] - pred[i]
                    if not outside.is_empty():
                        piece = tuple(
                            outside if j == i else (overlap[j] if j < i else remainder[j])
                            for j in range(len(remainder))
                        )
                        next_uncovered.append(piece)
                    remainder[i] = overlap[i]
            uncovered = next_uncovered
            if len(uncovered) > _REGION_BUDGET:
                raise BudgetExceededError(
                    "comprehensiveness check exceeded its region budget on a"
                    " policy without a catch-all rule; append a final rule"
                    " with predicate 'any' (the paper's convention)",
                    resource="uncovered-regions",
                    spent=len(uncovered),
                    limit=_REGION_BUDGET,
                    progress={
                        "rules_processed": rule_index + 1,
                        "rules_total": len(self._rules),
                    },
                )
        if not uncovered:
            return None
        witness = tuple(values.min() for values in uncovered[0])
        return witness

    def is_comprehensive(self) -> bool:
        """True if every packet matches at least one rule."""
        return self.find_unmatched_packet() is None

    def has_catchall(self) -> bool:
        """True if the last rule matches every packet (paper's convention)."""
        return self._rules[-1].predicate.is_match_all()

    # ------------------------------------------------------------------
    # Structural edits (all return new firewalls)
    # ------------------------------------------------------------------
    def with_name(self, name: str) -> "Firewall":
        """A copy with a different display name."""
        return Firewall(self._schema, self._rules, name=name, require_comprehensive=False)

    def insert(self, index: int, rule: Rule) -> "Firewall":
        """Insert ``rule`` so it becomes the rule at position ``index``."""
        if not 0 <= index <= len(self._rules):
            raise PolicyError(f"insert index {index} out of range [0, {len(self._rules)}]")
        rules = self._rules[:index] + (rule,) + self._rules[index:]
        return Firewall(self._schema, rules, name=self._name)

    def prepend(self, *rules: Rule) -> "Firewall":
        """Add rules at the highest priority (used by resolution Method 2)."""
        return Firewall(self._schema, tuple(rules) + self._rules, name=self._name)

    def append(self, rule: Rule) -> "Firewall":
        """Add a rule at the lowest priority."""
        return Firewall(self._schema, self._rules + (rule,), name=self._name)

    def remove(self, index: int) -> "Firewall":
        """Remove the rule at ``index`` (may make the policy non-comprehensive)."""
        if not 0 <= index < len(self._rules):
            raise PolicyError(f"remove index {index} out of range [0, {len(self._rules) - 1}]")
        rules = self._rules[:index] + self._rules[index + 1:]
        return Firewall(self._schema, rules, name=self._name)

    def replace(self, index: int, rule: Rule) -> "Firewall":
        """Replace the rule at ``index``."""
        if not 0 <= index < len(self._rules):
            raise PolicyError(f"replace index {index} out of range [0, {len(self._rules) - 1}]")
        rules = self._rules[:index] + (rule,) + self._rules[index + 1:]
        return Firewall(self._schema, rules, name=self._name)

    def move(self, src: int, dst: int) -> "Firewall":
        """Move the rule at ``src`` so it ends up at position ``dst``."""
        if not 0 <= src < len(self._rules):
            raise PolicyError(f"move source {src} out of range")
        if not 0 <= dst < len(self._rules):
            raise PolicyError(f"move destination {dst} out of range")
        rules = list(self._rules)
        rule = rules.pop(src)
        rules.insert(dst, rule)
        return Firewall(self._schema, tuple(rules), name=self._name)

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Multi-line numbered rendering of the policy."""
        header = f"firewall {self._name!r} ({len(self._rules)} rules)" if self._name else (
            f"firewall ({len(self._rules)} rules)"
        )
        lines = [header]
        for i, rule in enumerate(self._rules, start=1):
            lines.append(f"  r{i}: {rule.describe()}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        label = f" {self._name!r}" if self._name else ""
        return f"<Firewall{label} with {len(self._rules)} rules>"
