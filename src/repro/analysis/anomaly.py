"""Pairwise rule anomaly detection (extension; in the style of [1]).

Al-Shaer & Hamed's anomaly taxonomy classifies ordered rule pairs.  The
paper notes these anomalies "are subjectively defined and may not be
deemed as errors" (Section 9) — they are hints for the design phase, not
verdicts; the comparison pipeline remains the ground truth.  ``repro
lint`` is the findings engine: it reports correlation and
generalization as its FW101/FW102 hints and decides shadowing and
redundancy exactly (FW001-FW003).  Definitions used here, for rules
``r_i`` before ``r_j``:

* **shadowing** — ``pred_j ⊆ pred_i`` with different decisions: the
  classic pairwise special case.  A rule covered only by the *union* of
  several earlier rules is caught by the exact cumulative check
  (:mod:`repro.analysis.effective`, lint's FW001), not here.
* **generalization** — ``pred_i ⊂ pred_j`` with different decisions:
  ``r_j`` is a more general rule whose exceptions are carved out by
  ``r_i``.  Usually intentional, flagged for review.
* **redundancy** — ``pred_j ⊆ pred_i`` with the same decision: ``r_j``
  repeats what ``r_i`` already decides.
* **correlation** — the predicates properly overlap (neither contains the
  other) with different decisions: the relative order of the two rules
  changes the policy's meaning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.policy.firewall import Firewall

__all__ = ["Anomaly", "find_anomalies"]

SHADOWING = "shadowing"
GENERALIZATION = "generalization"
REDUNDANCY = "redundancy"
CORRELATION = "correlation"


@dataclass(frozen=True)
class Anomaly:
    """One flagged rule pair: kind plus zero-based rule indices."""

    kind: str
    first: int
    second: int

    def describe(self, firewall: Firewall) -> str:
        """Human-readable rendering with the actual rules."""
        r_first = firewall[self.first]
        r_second = firewall[self.second]
        return (
            f"{self.kind}: r{self.first + 1} ({r_first.describe()})"
            f" vs r{self.second + 1} ({r_second.describe()})"
        )


def _classify(firewall: Firewall, i: int, j: int) -> str | None:
    """Classify the ordered pair ``(r_i, r_j)`` with ``i < j``."""
    first, second = firewall[i], firewall[j]
    if not first.predicate.overlaps(second.predicate):
        return None
    same_decision = first.decision == second.decision
    j_in_i = second.predicate.implies(first.predicate)
    i_in_j = first.predicate.implies(second.predicate)
    if j_in_i:
        return REDUNDANCY if same_decision else SHADOWING
    if i_in_j and not same_decision:
        return GENERALIZATION
    if not same_decision:
        return CORRELATION
    return None


def find_anomalies(firewall: Firewall) -> list[Anomaly]:
    """All pairwise anomalies in rule order.

    >>> from repro.fields import toy_schema
    >>> from repro.policy import Firewall, Rule, ACCEPT, DISCARD
    >>> schema = toy_schema(9)
    >>> fw = Firewall(schema, [Rule.build(schema, ACCEPT, F1=(0, 5)),
    ...                        Rule.build(schema, DISCARD, F1=(2, 4)),
    ...                        Rule.build(schema, DISCARD)])
    >>> [a.kind for a in find_anomalies(fw)]
    ['shadowing', 'generalization']
    """
    return list(_iter_anomalies(firewall))


def _iter_anomalies(firewall: Firewall) -> Iterator[Anomaly]:
    for i in range(len(firewall)):
        for j in range(i + 1, len(firewall)):
            kind = _classify(firewall, i, j)
            if kind is not None:
                yield Anomaly(kind, i, j)
