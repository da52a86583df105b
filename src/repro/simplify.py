"""Semantics-preserving policy simplification (the Diekmann move).

A rule list is one concrete syntax for a function ``packet → decision``;
this package round-trips any policy through the canonical diagram and
re-emits a *provably equivalent* rule list that is never larger — and
usually smaller — than the input:

1. **Effective-rule analysis** (:func:`repro.analysis.effective
   .effective_rules`): drop every rule no packet can
   first-match.  The final append root of this pass *is* the policy's
   canonical reduced ordered FDD — the semantic ground truth.
2. **Complete redundancy removal** (:func:`repro.analysis.redundancy
   .remove_redundant_rules`): greedily drop rules whose removal provably
   does not change the semantics.  This path preserves the surviving
   rules verbatim — comments and source-line provenance included.
3. **Diagram regeneration** (:func:`repro.fdd.generation
   .generate_firewall`): generate a fresh rule list straight from the
   reduced FDD.  On policies whose structure the original author
   scattered, this can beat slimming.

The smaller of (2) and (3) wins; ties go to (2) so provenance survives
whenever it can.  The result is then **verified**: its FDD is rebuilt in
the same hash-consed store and the canonical fingerprints must match
byte-for-byte — :class:`SimplifyError` (never a silently wrong policy)
otherwise.  Because both candidates are derived from removals or from
the diagram itself, ``rules_after <= rules_before`` always holds.

Combined with the dialect registry (:mod:`repro.policy.frontends`) this
gives "any dialect in, any dialect out, provably equivalent and
smaller": see :func:`simplify_text` and ``repro simplify``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.effective import effective_rules
from repro.analysis.redundancy import remove_redundant_rules
from repro.exceptions import SimplifyError
from repro.fdd.canonical import fingerprint_canonical
from repro.fdd.generation import generate_firewall
from repro.fields.schema import FieldSchema
from repro.guard.context import GuardContext
from repro.policy.firewall import Firewall
from repro.policy.frontends import emit_policy, parse_policy

__all__ = ["SimplifyResult", "simplify_firewall", "simplify_text"]


@dataclass(frozen=True)
class SimplifyResult:
    """A simplified policy plus the audit trail of how it got smaller."""

    #: The simplified, verified-equivalent policy.
    firewall: Firewall
    #: Canonical semantic fingerprint shared by input and output.
    fingerprint: str
    rules_before: int
    rules_after: int
    #: Rules dropped because no packet could ever first-match them.
    removed_dead: int
    #: Further rules dropped by complete redundancy removal.
    removed_redundant: int
    #: ``"slim"`` (provenance-preserving removals won) or
    #: ``"regenerate"`` (the diagram-generated list was smaller).
    strategy: str

    @property
    def reduced(self) -> bool:
        return self.rules_after < self.rules_before

    def summary(self) -> dict[str, object]:
        return {
            "rules_before": self.rules_before,
            "rules_after": self.rules_after,
            "removed_dead": self.removed_dead,
            "removed_redundant": self.removed_redundant,
            "strategy": self.strategy,
            "fingerprint": self.fingerprint,
        }


def simplify_firewall(
    firewall: Firewall, *, guard: GuardContext | None = None
) -> SimplifyResult:
    """Produce a provably equivalent policy with ``<=`` as many rules.

    Every candidate is checked against the input's canonical FDD
    fingerprint before being returned; a mismatch (which would indicate
    a bug in the analyses, not bad input) raises :class:`SimplifyError`.

    >>> from repro.fields import standard_schema
    >>> from repro.policy import ACCEPT, DISCARD, Firewall, Rule
    >>> schema = standard_schema()
    >>> fw = Firewall(schema, [
    ...     Rule.build(schema, ACCEPT, dst_port=(0, 1023)),
    ...     Rule.build(schema, ACCEPT, dst_port=(0, 80)),   # dead
    ...     Rule.build(schema, DISCARD),
    ... ])
    >>> result = simplify_firewall(fw)
    >>> result.rules_before, result.rules_after, result.removed_dead
    (3, 2, 1)
    """
    analysis = effective_rules(firewall, guard=guard)
    store = analysis.store
    baseline = fingerprint_canonical(analysis.fdd)

    dead = set(analysis.dead_indices())
    alive = Firewall(
        firewall.schema,
        [r for i, r in enumerate(firewall.rules) if i not in dead],
        name=firewall.name,
    )
    slim = remove_redundant_rules(alive, guard=guard)
    regenerated = generate_firewall(
        analysis.fdd,
        name=firewall.name,
        reduce=True,
        compact=True,
        guard=guard,
        store=store,
    )
    if len(regenerated.rules) < len(slim.rules):
        chosen, strategy = regenerated, "regenerate"
    else:
        chosen, strategy = slim, "slim"

    produced = fingerprint_canonical(store.construct(chosen, guard=guard))
    if produced != baseline:
        raise SimplifyError(
            "simplified policy is not equivalent to its input "
            f"(fingerprint {produced[:12]}… != {baseline[:12]}…); "
            "this is a bug in the simplifier, not in the input"
        )
    if len(chosen.rules) > len(firewall.rules):
        raise SimplifyError(
            f"simplification grew the policy ({len(firewall.rules)} -> "
            f"{len(chosen.rules)} rules); this is a bug in the simplifier"
        )
    return SimplifyResult(
        firewall=chosen,
        fingerprint=baseline,
        rules_before=len(firewall.rules),
        rules_after=len(chosen.rules),
        removed_dead=len(dead),
        removed_redundant=len(alive.rules) - len(slim.rules),
        strategy=strategy,
    )


def simplify_text(
    text: str,
    *,
    from_dialect: str,
    to_dialect: str,
    schema: FieldSchema | None = None,
    name: str = "",
    chain: str | None = None,
    guard: GuardContext | None = None,
) -> tuple[str, SimplifyResult]:
    """Dialect-to-dialect simplification: parse, simplify, emit.

    The returned text is the simplified policy rendered in
    ``to_dialect``; the :class:`SimplifyResult` carries the equivalence
    fingerprint and the reduction audit trail.
    """
    ir = parse_policy(text, from_dialect, schema=schema, name=name, chain=chain)
    result = simplify_firewall(ir.to_firewall(), guard=guard)
    emitted = emit_policy(result.firewall, to_dialect)
    return emitted, result
