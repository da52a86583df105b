"""The built-in check catalog (codes are stable; see docs/linting.md).

Semantic, FDD-exact checks (things the pairwise taxonomy cannot decide):

* ``FW001`` shadowed-rule — cumulative shadowing: the rule is covered by
  the **union** of earlier rules and some of its traffic is decided
  differently by them (exact, via effective-rule FDD construction).
* ``FW002`` unreachable-rule — dead rule: covered by earlier rules, all
  of which agree with its decision (dead weight, not a conflict).
* ``FW003`` redundant-rule — reachable but removable: deleting the rule
  provably preserves semantics (complete redundancy criterion [19]).
* ``FW004`` decision-never-taken — a decision named by rules but
  assigned to no packet by the policy.

Syntactic smells (heuristic, info/warning severity):

* ``FW101`` correlated-pair / ``FW102`` generalization-pair — the
  pairwise taxonomy's order-sensitivity hints, deduplicated against the
  exact findings above (pairs involving dead rules and pairs against the
  final catch-all are suppressed).
* ``FW201`` broad-accept — a permitting rule matching at least half of
  every field's domain.
* ``FW202`` permissive-catchall — the policy defaults to accept.
* ``FW203`` port-without-tcp-udp — a port constraint on a rule whose
  protocol set excludes both TCP and UDP.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.anomaly import CORRELATION, GENERALIZATION
from repro.fields.schema import FieldKind
from repro.lint.diagnostic import Diagnostic, Severity
from repro.lint.engine import LintContext, register_check

__all__: list[str] = []

#: IANA protocol numbers for TCP and UDP (ports are meaningful only for
#: these transports).
_TCP, _UDP = 6, 17


@register_check(
    "FW001",
    "shadowed-rule",
    Severity.ERROR,
    "rule covered by the union of earlier rules that decide some of its"
    " traffic differently (FDD-exact cumulative shadowing)",
)
def check_shadowed(ctx: LintContext) -> Iterator[Diagnostic]:
    info = ctx.checks["FW001"]
    for fact in ctx.effective.rules:
        if not fact.shadowed:
            continue
        witness = (
            f" (witness packet: {ctx.format_packet(fact.witness)})"
            if fact.witness is not None
            else ""
        )
        yield ctx.diagnostic(
            info,
            f"rule {ctx.rule_label(fact.index)} can never take effect: earlier"
            f" rules decide all of its traffic, and"
            f" {ctx.rule_list(fact.conflicting)} decide part of it differently"
            f" than its own decision"
            f" '{ctx.firewall[fact.index].decision}'{witness}",
            rule_index=fact.index,
            related=fact.conflicting,
            hint="move the rule above the conflicting rules or delete it",
        )


@register_check(
    "FW002",
    "unreachable-rule",
    Severity.WARNING,
    "dead rule: earlier rules cover its whole predicate and agree with"
    " its decision (FDD-exact)",
)
def check_unreachable(ctx: LintContext) -> Iterator[Diagnostic]:
    info = ctx.checks["FW002"]
    for fact in ctx.effective.rules:
        if fact.effective or fact.shadowed:
            continue  # shadowed rules are FW001's finding
        yield ctx.diagnostic(
            info,
            f"rule {ctx.rule_label(fact.index)} is unreachable: earlier rules"
            " cover its whole predicate with the same decision",
            rule_index=fact.index,
            hint="delete the rule; it cannot affect any packet",
        )


@register_check(
    "FW003",
    "redundant-rule",
    Severity.WARNING,
    "reachable rule whose removal provably preserves the policy's"
    " semantics (complete redundancy criterion)",
)
def check_redundant(ctx: LintContext) -> Iterator[Diagnostic]:
    info = ctx.checks["FW003"]
    for index in sorted(ctx.redundant):
        if index in ctx.dead:
            continue  # dead rules are FW001/FW002 findings
        yield ctx.diagnostic(
            info,
            f"rule {ctx.rule_label(index)} is redundant: removing it leaves"
            " the policy's semantics unchanged (later rules decide its"
            " traffic identically)",
            rule_index=index,
            hint="delete the rule to keep the policy minimal",
        )


@register_check(
    "FW004",
    "decision-never-taken",
    Severity.WARNING,
    "a decision named by some rule is assigned to no packet by the policy",
)
def check_decision_never_taken(ctx: LintContext) -> Iterator[Diagnostic]:
    info = ctx.checks["FW004"]
    for decision in ctx.effective.decisions_never_taken():
        holders = tuple(
            index
            for index, rule in enumerate(ctx.firewall.rules)
            if rule.decision == decision
        )
        yield ctx.diagnostic(
            info,
            f"decision '{decision}' is never taken: every rule using it"
            f" ({ctx.rule_list(holders)}) is dead",
            rule_index=holders[0],
            related=holders[1:],
            hint="remove the dead rules or reorder them above their cover",
        )


def _pair_candidates(ctx: LintContext, kind: str) -> Iterator[tuple[int, int]]:
    """Pairwise anomalies of ``kind``, minus pairs the exact checks own.

    Pairs involving a dead rule duplicate FW001/FW002 (the pairwise hint
    is moot once the rule provably never fires), and pairs whose later
    rule is the final catch-all would flag the paper's own convention on
    every policy — both are suppressed.
    """
    last = len(ctx.firewall) - 1
    has_catchall = ctx.firewall.has_catchall()
    for anomaly in ctx.anomalies:
        if anomaly.kind != kind:
            continue
        if anomaly.first in ctx.dead or anomaly.second in ctx.dead:
            continue
        if has_catchall and anomaly.second == last:
            continue
        yield anomaly.first, anomaly.second


@register_check(
    "FW101",
    "correlated-pair",
    Severity.INFO,
    "two overlapping rules with different decisions, neither containing"
    " the other: their relative order changes the policy's meaning",
)
def check_correlated(ctx: LintContext) -> Iterator[Diagnostic]:
    info = ctx.checks["FW101"]
    for first, second in _pair_candidates(ctx, CORRELATION):
        yield ctx.diagnostic(
            info,
            f"rules {ctx.rule_label(first)} and {ctx.rule_label(second)}"
            " overlap with different decisions; their relative order is"
            " load-bearing",
            rule_index=second,
            related=(first,),
            hint="make the rules disjoint, or document the intended order",
        )


@register_check(
    "FW102",
    "generalization-pair",
    Severity.INFO,
    "a later, more general rule whose exceptions are carved out by an"
    " earlier rule with a different decision",
)
def check_generalization(ctx: LintContext) -> Iterator[Diagnostic]:
    info = ctx.checks["FW102"]
    for first, second in _pair_candidates(ctx, GENERALIZATION):
        yield ctx.diagnostic(
            info,
            f"rule {ctx.rule_label(second)} generalizes"
            f" {ctx.rule_label(first)} with a different decision; verify the"
            " exception is intentional",
            rule_index=second,
            related=(first,),
        )


@register_check(
    "FW201",
    "broad-accept",
    Severity.WARNING,
    "a permitting rule (other than the catch-all) matching at least half"
    " of every field's domain",
)
def check_broad_accept(ctx: LintContext) -> Iterator[Diagnostic]:
    info = ctx.checks["FW201"]
    last = len(ctx.firewall) - 1
    for index, rule in enumerate(ctx.firewall.rules):
        if not rule.decision.permits:
            continue
        if index == last and rule.predicate.is_match_all():
            continue  # the permissive catch-all is FW202's finding
        if all(
            2 * values.count() >= field.domain_size()
            for values, field in zip(rule.predicate.sets, ctx.firewall.schema)
        ):
            yield ctx.diagnostic(
                info,
                f"rule {ctx.rule_label(index)} accepts at least half of every"
                " field's domain; overly broad accept rules are a common"
                " source of unintended exposure",
                rule_index=index,
                hint="narrow the predicate to the traffic actually required",
            )


@register_check(
    "FW202",
    "permissive-catchall",
    Severity.WARNING,
    "the final catch-all rule permits: the policy is default-allow",
)
def check_permissive_catchall(ctx: LintContext) -> Iterator[Diagnostic]:
    info = ctx.checks["FW202"]
    last = len(ctx.firewall) - 1
    rule = ctx.firewall[last]
    if rule.predicate.is_match_all() and rule.decision.permits:
        yield ctx.diagnostic(
            info,
            "the policy is default-allow: the final catch-all rule accepts"
            " every packet not matched above",
            rule_index=last,
            hint="prefer a default-deny catch-all with explicit accepts",
        )


@register_check(
    "FW203",
    "port-without-tcp-udp",
    Severity.WARNING,
    "a rule constrains a port field while its protocol set excludes both"
    " TCP and UDP",
)
def check_port_without_tcp_udp(ctx: LintContext) -> Iterator[Diagnostic]:
    info = ctx.checks["FW203"]
    schema = ctx.firewall.schema
    protocol_fields = [
        i for i, field in enumerate(schema) if field.kind is FieldKind.PROTOCOL
    ]
    port_fields = [
        i for i, field in enumerate(schema) if field.kind is FieldKind.PORT
    ]
    if not protocol_fields or not port_fields:
        return
    proto_index = protocol_fields[0]
    for index, rule in enumerate(ctx.firewall.rules):
        protocols = rule.predicate.sets[proto_index]
        if _TCP in protocols or _UDP in protocols:
            continue
        constrained = [
            schema[i].name
            for i in port_fields
            if rule.predicate.sets[i] != schema[i].domain_set
        ]
        if constrained:
            yield ctx.diagnostic(
                info,
                f"rule {ctx.rule_label(index)} constrains"
                f" {' and '.join(constrained)} but its protocol set excludes"
                " both TCP and UDP, so the port constraint never applies to"
                " port-bearing traffic",
                rule_index=index,
                hint="add tcp/udp to the protocol set or drop the port"
                " constraint",
            )
