"""The fleet audit pipeline: manifest in, aggregated results out.

One :func:`audit_fleet` call walks every policy in a
:class:`~repro.audit.manifest.FleetManifest` through the enabled stages
of a :class:`~repro.audit.checkset.CheckSet`:

* **lint** — the FW001–FW203 suite (:mod:`repro.lint`), run against the
  policy's single prebuilt reduced FDD;
* **compare** — the pairwise semantic comparison of the paper's Section 5
  against the policy's baseline, via the hash-consed difference diagram
  (:func:`repro.fdd.fast.build_difference`);
* **impact** — the Section 8.1 change-impact classification of that
  comparison (newly allowed / newly blocked / handling changed), a pure
  function of the compare stage's payload.

Results flow through the content-addressed
:class:`~repro.audit.cache.ResultCache` when one is given.  The pipeline
resolves each policy in three escalating tiers:

1. **memo hit, all stages cached** — the file's bytes resolve to a
   semantic fingerprint via the cache's source-digest memo, and every
   stage payload is already stored: the policy is served with *zero*
   parsing and *zero* FDD constructions;
2. **memo hit, some stage missing** — only the missing stages compute
   (a check-set version bump lands here);
3. **memo miss** — the file changed: fingerprints and all enabled
   stages recompute, and the memo + entries are refilled.

Stage payloads are plain JSON dicts and are the *single* source of truth
for rendering (:mod:`repro.audit.report`) in both the cached and the
computed path — cold and warm runs therefore report byte-identical
diagnostics by construction.

Execution is serial by default; ``jobs > 1`` fans uncached policies out
through the supervised persistent worker pool
(:func:`repro.parallel.supervise` leasing from
:func:`repro.parallel.get_pool`, so repeated fleet audits in one
process reuse live workers): worker crashes and hangs degrade to an
in-parent serial re-run, recorded on the report (the CLI maps a
degraded-but-correct audit to exit code 5).
Per-tenant guard budgets from the manifest bound each policy's audit; a
policy that exhausts its tenant budget is reported ``over-budget`` with
its partial guard spend, and the fleet continues.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.analysis.impact import ImpactKind
from repro.audit.cache import ResultCache
from repro.audit.checkset import CheckSet, resolve_checkset
from repro.audit.manifest import FleetManifest, PolicyEntry
from repro.exceptions import BudgetExceededError, ReproError
from repro.guard.budget import Budget
from repro.guard.context import GuardContext

__all__ = [
    "AuditStats",
    "FleetAuditReport",
    "PolicyAuditResult",
    "audit_fleet",
]

#: Discrepancy cells enumerated per comparison for the report's samples.
DEFAULT_SAMPLE_LIMIT = 10


@dataclass
class AuditStats:
    """Fleet-level counters proving what the audit actually did."""

    policies: int = 0
    #: Policies resolved entirely from the cache (tier 1: no parse, no
    #: FDD construction, no check execution).
    fully_cached: int = 0
    #: Policies that computed at least one stage.
    computed: int = 0
    over_budget: int = 0
    errors: int = 0
    #: FDD constructions performed fleet-wide (policy + baseline
    #: diagrams, across the parent and every worker).  The warm-run
    #: guarantee is exactly ``fdd_constructions == 0``.
    fdd_constructions: int = 0

    def to_dict(self) -> dict[str, int]:
        return {
            "policies": self.policies,
            "fully_cached": self.fully_cached,
            "computed": self.computed,
            "over_budget": self.over_budget,
            "errors": self.errors,
            "fdd_constructions": self.fdd_constructions,
        }


@dataclass
class PolicyAuditResult:
    """Everything the audit learned about one fleet member."""

    name: str
    path: str
    tenant: str
    #: ``ok`` | ``over-budget`` | ``error``.
    status: str = "ok"
    fingerprint: str | None = None
    baseline_path: str | None = None
    baseline_fingerprint: str | None = None
    #: Stage name -> JSON payload, for every stage that has one.
    stages: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: Stage name -> True when the payload came from the cache.
    cached: dict[str, bool] = field(default_factory=dict)
    guard_spend: dict[str, Any] = field(default_factory=dict)
    #: Human-readable failure detail for non-``ok`` statuses.
    detail: str = ""

    @property
    def fully_cached(self) -> bool:
        """True when every stage payload was served from the cache."""
        return bool(self.cached) and all(self.cached.values())

    @property
    def lint_findings(self) -> int:
        lint = self.stages.get("lint")
        return len(lint["diagnostics"]) if lint is not None else 0

    @property
    def diverged(self) -> bool:
        """True when the compare stage found the baseline disagreeing."""
        compare = self.stages.get("compare")
        return compare is not None and not compare["equivalent"]

    def worst_severity(self) -> str | None:
        """Highest lint severity present (``error``/``warning``/``info``)."""
        lint = self.stages.get("lint")
        if lint is None:
            return None
        for severity in ("error", "warning", "info"):
            if lint["summary"].get(severity, 0):
                return severity
        return None

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "path": self.path,
            "tenant": self.tenant,
            "status": self.status,
            "fingerprint": self.fingerprint,
            "stages": self.stages,
            "cached": self.cached,
        }
        if self.baseline_path is not None:
            out["baseline"] = {
                "path": self.baseline_path,
                "fingerprint": self.baseline_fingerprint,
            }
        if self.guard_spend:
            out["guard_spend"] = self.guard_spend
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass
class FleetAuditReport:
    """The aggregated outcome of one fleet audit."""

    root: str
    checkset: dict[str, Any]
    results: list[PolicyAuditResult]
    stats: AuditStats
    cache_stats: dict[str, int] | None = None
    #: Supervised-pool degradations (JSON-safe), empty when serial/clean.
    degradations: list[dict[str, Any]] = field(default_factory=list)

    def summary(self) -> dict[str, Any]:
        """Fleet-level rollup stamped into every output format."""
        findings = sum(r.lint_findings for r in self.results)
        diverged = sum(1 for r in self.results if r.diverged)
        severities = {"error": 0, "warning": 0, "info": 0}
        for result in self.results:
            lint = result.stages.get("lint")
            if lint is not None:
                for severity in severities:
                    severities[severity] += lint["summary"].get(severity, 0)
        return {
            "policies": self.stats.policies,
            "lint_findings": findings,
            "lint_by_severity": severities,
            "diverged_policies": diverged,
            "over_budget": self.stats.over_budget,
            "errors": self.stats.errors,
            "degraded_shards": len(self.degradations),
            "fully_cached": self.stats.fully_cached,
            "fdd_constructions": self.stats.fdd_constructions,
        }


# ----------------------------------------------------------------------
# Stage payload builders (the worker side)
# ----------------------------------------------------------------------
def _classify_pair(before: Any, after: Any) -> str:
    """Impact kind of a ``baseline -> policy`` decision change."""
    if not before.permits and after.permits:
        return ImpactKind.NEWLY_ALLOWED
    if before.permits and not after.permits:
        return ImpactKind.NEWLY_BLOCKED
    return ImpactKind.HANDLING_CHANGED


def _lint_payload(report: Any, firewall: Any) -> dict[str, Any]:
    """Serialize a :class:`~repro.lint.diagnostic.LintReport`.

    Carries everything the renderers need — including related rules'
    source lines, which ``Diagnostic.to_dict`` alone does not — so a
    cached payload renders identically to a fresh one.
    """
    diagnostics = []
    for diagnostic in report.diagnostics:
        record = diagnostic.to_dict()
        if diagnostic.related:
            record["related_lines"] = [
                firewall[index].source_line for index in diagnostic.related
            ]
        diagnostics.append(record)
    return {
        "diagnostics": diagnostics,
        "checks_run": list(report.checks_run),
        "summary": report.counts(),
    }


def _compare_payload(
    difference: Any, *, guard: GuardContext | None, sample_limit: int
) -> dict[str, Any]:
    """Serialize a baseline-vs-policy :class:`DifferenceFDD`.

    The exact disputed volume and its per-decision-pair breakdown come
    from weighted model counts (no enumeration); ``samples`` enumerates
    up to ``sample_limit`` explicit cells for the report's witnesses.
    """
    disputed = difference.disputed_packet_count()
    by_decisions = [
        {
            "baseline": str(before),
            "policy": str(after),
            "kind": _classify_pair(before, after),
            "packets": packets,
        }
        for (before, after), packets in difference.disputed_by_decisions().items()
    ]
    by_decisions.sort(key=lambda row: (row["kind"], row["baseline"], row["policy"]))
    samples = [
        {
            "region": cell.predicate.describe(),
            "baseline": str(cell.decision_a),
            "policy": str(cell.decision_b),
            "kind": ImpactKind.classify(cell),
            "packets": cell.size(),
        }
        for cell in difference.discrepancies(limit=sample_limit, guard=guard)
    ]
    return {
        "equivalent": disputed == 0,
        "disputed_packets": disputed,
        "by_decisions": by_decisions,
        "samples": samples,
        "sample_limit": sample_limit,
    }


def _impact_payload(compare_payload: dict[str, Any]) -> dict[str, Any]:
    """The Section 8.1 impact classification, derived from ``compare``.

    A pure function of the compare payload (the classification only
    reads decision pairs and volumes), so it can be recomputed from a
    cached comparison without touching any diagram.
    """
    packets = {
        ImpactKind.NEWLY_ALLOWED: 0,
        ImpactKind.NEWLY_BLOCKED: 0,
        ImpactKind.HANDLING_CHANGED: 0,
    }
    for row in compare_payload["by_decisions"]:
        packets[row["kind"]] += row["packets"]
    return {
        "equivalent": compare_payload["equivalent"],
        "affected_packets": compare_payload["disputed_packets"],
        "packets_by_kind": packets,
    }


# ----------------------------------------------------------------------
# Per-policy execution (runs in the parent serially, or in pool workers)
# ----------------------------------------------------------------------
def _execute_audit_task(
    task: dict[str, Any],
    *,
    store: Any = None,
    baseline_memo: dict[str, tuple[str, Any]] | None = None,
    cache: "ResultCache | None" = None,
) -> dict[str, Any]:
    """Compute the stages in ``task["needs"]`` for one policy.

    ``store``/``baseline_memo`` are serial-mode accelerators: a fleet-wide
    node store shares every interned diagram and product memo, and the
    baseline memo (source digest -> fingerprint + FDD) builds each
    distinct baseline once for the whole fleet.  Workers run without
    them (each task is self-contained and must pickle).

    ``cache`` (serial mode only) enables a second cache consultation
    for fingerprint-keyed stages once the policy's fingerprint has been
    computed: a policy whose *source* changed but whose *semantics*
    didn't — a reformat, a reorder — resolves its comparison from the
    existing entry instead of re-walking the product.  Served stages
    are listed in the outcome's ``cache_served``.

    Never raises for per-policy problems: parse errors and budget
    exhaustion come back as ``status: "error"`` / ``"over-budget"`` so
    one bad policy cannot take the fleet down.
    """
    from repro.fdd.canonical import fingerprint_canonical
    from repro.fdd.fast import build_difference
    from repro.fdd.store import NodeStore
    from repro.lint.engine import LintContext, run_lint
    from repro.policy.parser import loads

    checkset: CheckSet = task["checkset"]
    needs = list(task["needs"])
    budget_spec = task.get("budget")
    guard = (
        GuardContext(Budget(**budget_spec)) if budget_spec is not None else None
    )
    node_store = store if store is not None else NodeStore()
    constructions = 0
    fingerprint: str | None = task.get("fingerprint")
    baseline_fingerprint: str | None = task.get("baseline_fingerprint")
    payloads: dict[str, dict[str, Any]] = {}
    cache_served: list[str] = []

    def finish(status: str, detail: str = "") -> dict[str, Any]:
        return {
            "status": status,
            "detail": detail,
            "fingerprint": fingerprint,
            "baseline_fingerprint": baseline_fingerprint,
            "payloads": payloads,
            "cache_served": cache_served,
            "guard_spend": guard.progress() if guard is not None else {},
            "fdd_constructions": constructions,
        }

    def stage_from_cache(stage: str) -> bool:
        """Serve a fingerprint-keyed stage once both fingerprints exist."""
        if cache is None or fingerprint is None or baseline_fingerprint is None:
            return False
        hit = cache.get(
            ResultCache.key(
                stage,
                (fingerprint, baseline_fingerprint),
                checkset.stage_id(stage),
            )
        )
        if hit is None:
            return False
        payloads[stage] = hit.payload
        cache_served.append(stage)
        return True

    try:
        firewall = None
        fdd = None
        if fingerprint is None or any(
            s in needs for s in ("lint", "simplify", "compare")
        ):
            firewall = loads(task["policy_text"]).with_name(task["name"])
            fdd = node_store.construct(firewall, guard=guard)
            constructions += 1
            fingerprint = fingerprint_canonical(fdd)

        if "lint" in needs:
            assert firewall is not None and fdd is not None
            context = LintContext(firewall, guard=guard, store=node_store, fdd=fdd)
            report = run_lint(
                firewall,
                enable=list(checkset.lint_codes),
                guard=guard,
                context=context,
            )
            payloads["lint"] = _lint_payload(report, firewall)

        if "simplify" in needs:
            from repro.simplify import simplify_firewall

            assert firewall is not None
            payloads["simplify"] = simplify_firewall(
                firewall, guard=guard
            ).summary()

        if "compare" in needs and not stage_from_cache("compare"):
            assert fdd is not None
            baseline_digest = task["baseline_digest"]
            memo_hit = (
                baseline_memo.get(baseline_digest)
                if baseline_memo is not None
                else None
            )
            if memo_hit is not None:
                baseline_fingerprint, baseline_fdd = memo_hit
            else:
                baseline_fw = loads(task["baseline_text"]).with_name(
                    task["baseline_name"]
                )
                baseline_fdd = node_store.construct(baseline_fw, guard=guard)
                constructions += 1
                baseline_fingerprint = fingerprint_canonical(baseline_fdd)
                if baseline_memo is not None:
                    baseline_memo[baseline_digest] = (
                        baseline_fingerprint,
                        baseline_fdd,
                    )
            # The baseline fingerprint may only now be known (first
            # sighting of this baseline): one more cache chance before
            # paying for the product walk.
            if not stage_from_cache("compare"):
                difference = build_difference(
                    baseline_fdd, fdd, guard=guard, store=node_store
                )
                payloads["compare"] = _compare_payload(
                    difference, guard=guard, sample_limit=task["sample_limit"]
                )

        if "impact" in needs and not stage_from_cache("impact"):
            compare_payload = payloads.get("compare", task.get("compare_payload"))
            assert compare_payload is not None
            payloads["impact"] = _impact_payload(compare_payload)
    except BudgetExceededError as exc:
        return finish("over-budget", str(exc))
    except ReproError as exc:
        return finish("error", str(exc))
    return finish("ok")


def _audit_worker(task: dict[str, Any]) -> dict[str, Any]:
    """Module-level supervised-pool worker (spawn-safe)."""
    return _execute_audit_task(task)


# ----------------------------------------------------------------------
# Fleet orchestration (the parent side)
# ----------------------------------------------------------------------
@dataclass
class _Plan:
    """One policy's resolved work plan (cache consulted, needs known)."""

    entry: PolicyEntry
    result: PolicyAuditResult
    #: Worker task for the stages still to compute; ``None`` when the
    #: policy resolved entirely from the cache (or failed to load).
    task: dict[str, Any] | None = None


def _stage_fingerprints(
    stage: str,
    source_digest: str,
    fingerprint: str | None,
    baseline_fingerprint: str | None,
) -> tuple[str, ...]:
    """The digest tuple a stage's cache key is built over.

    ``compare`` and ``impact`` key on *semantic* fingerprints — any
    equivalent formulation of the policy shares their entries.  ``lint``
    and ``simplify`` key on the **source digest** instead: their outputs
    are syntactic (rule indices, source lines, which rules survived), so
    two equivalent but textually different policies must not share them.
    """
    if stage in ("lint", "simplify"):
        return (source_digest,)
    assert fingerprint is not None and baseline_fingerprint is not None
    return (fingerprint, baseline_fingerprint)


def audit_fleet(
    manifest: FleetManifest,
    *,
    checkset: CheckSet | None = None,
    cache: ResultCache | None = None,
    jobs: int = 1,
    sample_limit: int = DEFAULT_SAMPLE_LIMIT,
    on_result: Callable[[PolicyAuditResult], None] | None = None,
) -> FleetAuditReport:
    """Audit every policy in ``manifest`` under ``checkset``.

    ``cache`` enables the content-addressed result store (and its
    source-digest memo); without one every policy computes from scratch.
    ``jobs > 1`` dispatches uncached policies through the supervised
    pool.  ``on_result`` streams results to the caller as they resolve
    (cached policies first, computed ones in completion order); the
    returned report always lists results in manifest order.
    """
    checkset = checkset if checkset is not None else resolve_checkset(None)
    stats = AuditStats()
    plans: list[_Plan] = []
    baseline_texts: dict[str, tuple[str, str] | None] = {}

    def read_baseline(path: str) -> tuple[str, str] | None:
        """``(text, source digest)`` of a baseline, or ``None`` on error."""
        if path not in baseline_texts:
            try:
                data = Path(path).read_bytes()
            except OSError:
                baseline_texts[path] = None
            else:
                baseline_texts[path] = (
                    data.decode("utf-8"),
                    ResultCache.source_digest(data),
                )
        return baseline_texts[path]

    for entry in manifest.entries:
        stats.policies += 1
        plans.append(
            _plan_policy(
                entry,
                manifest,
                checkset,
                cache,
                stats,
                sample_limit,
                read_baseline,
            )
        )

    # Tier-1 resolutions (and load failures) stream immediately.
    pending = [plan for plan in plans if plan.task is not None]
    for plan in plans:
        if plan.task is None:
            if on_result is not None:
                on_result(plan.result)

    degradations: list[dict[str, Any]] = []
    if pending:
        outcomes: list[dict[str, Any] | None]
        if jobs > 1 and len(pending) > 1:
            from repro.parallel.supervisor import supervise

            raw, degraded, _failures = supervise(
                _audit_worker, [plan.task for plan in pending], jobs=jobs
            )
            outcomes = list(raw)
            degradations = [
                {
                    "shard": d.shard_index,
                    "policy": pending[d.shard_index].entry.name,
                    "reason": d.reason,
                    "retries": d.retries,
                    "detail": d.detail,
                }
                for d in degraded
            ]
        else:
            from repro.fdd.store import NodeStore

            shared_store = NodeStore()
            baseline_memo: dict[str, tuple[str, Any]] = {}
            outcomes = [
                _execute_audit_task(
                    plan.task,
                    store=shared_store,
                    baseline_memo=baseline_memo,
                    cache=cache,
                )
                for plan in pending
            ]
        for plan, outcome in zip(pending, outcomes):
            assert outcome is not None and plan.task is not None
            _absorb_outcome(plan, outcome, checkset, cache, stats)
            if on_result is not None:
                on_result(plan.result)

    return FleetAuditReport(
        root=manifest.root,
        checkset=checkset.describe(),
        results=[plan.result for plan in plans],
        stats=stats,
        cache_stats=cache.stats() if cache is not None else None,
        degradations=degradations,
    )


def _plan_policy(
    entry: PolicyEntry,
    manifest: FleetManifest,
    checkset: CheckSet,
    cache: ResultCache | None,
    stats: AuditStats,
    sample_limit: int,
    read_baseline: Callable[[str], tuple[str, str] | None],
) -> _Plan:
    """Resolve one policy against the cache and plan its remaining work."""
    result = PolicyAuditResult(
        name=entry.name, path=entry.path, tenant=entry.tenant
    )
    plan = _Plan(entry=entry, result=result)

    try:
        data = Path(entry.path).read_bytes()
    except OSError as exc:
        result.status = "error"
        result.detail = f"cannot read policy: {exc}"
        stats.errors += 1
        return plan
    source_digest = ResultCache.source_digest(data)

    baseline_path = manifest.baseline_for(entry)
    compare_enabled = "compare" in checkset.stages and baseline_path is not None
    enabled = [
        stage
        for stage in checkset.stages
        if stage in ("lint", "simplify")
        or (compare_enabled and baseline_path is not None)
    ]
    result.baseline_path = baseline_path if compare_enabled else None

    baseline_digest: str | None = None
    baseline_text: str | None = None
    if compare_enabled:
        assert baseline_path is not None
        loaded = read_baseline(baseline_path)
        if loaded is None:
            result.status = "error"
            result.detail = f"cannot read baseline: {baseline_path}"
            stats.errors += 1
            return plan
        baseline_text, baseline_digest = loaded

    fingerprint = cache.fingerprint_get(source_digest) if cache is not None else None
    baseline_fingerprint = (
        cache.fingerprint_get(baseline_digest)
        if cache is not None and baseline_digest is not None
        else None
    )
    result.fingerprint = fingerprint
    result.baseline_fingerprint = baseline_fingerprint

    # Pull cached payloads for every stage whose key is already known:
    # lint and simplify key on the source digest (always in hand);
    # compare/impact need both semantic fingerprints from the memo.
    if cache is not None:
        for stage in enabled:
            if stage not in ("lint", "simplify") and (
                fingerprint is None or baseline_fingerprint is None
            ):
                continue
            key = ResultCache.key(
                stage,
                _stage_fingerprints(
                    stage, source_digest, fingerprint, baseline_fingerprint
                ),
                checkset.stage_id(stage),
            )
            hit = cache.get(key)
            if hit is not None:
                result.stages[stage] = hit.payload
                result.cached[stage] = True

    needs = [stage for stage in enabled if stage not in result.stages]
    # ``impact`` derives from ``compare``: with a cached comparison it
    # recomputes in-parent from that payload, no dispatch needed.
    if needs == ["impact"] and "compare" in result.stages:
        payload = _impact_payload(result.stages["compare"])
        result.stages["impact"] = payload
        result.cached["impact"] = False
        if cache is not None:
            fingerprints = _stage_fingerprints(
                "impact", source_digest, fingerprint, baseline_fingerprint
            )
            cache.put(
                ResultCache.key(
                    "impact", fingerprints, checkset.stage_id("impact")
                ),
                payload,
                kind="impact",
                fingerprints=fingerprints,
                checkset_id=checkset.stage_id("impact"),
            )
        needs = []

    if not needs:
        if enabled and all(result.cached.get(s, False) for s in enabled):
            stats.fully_cached += 1
        elif enabled:
            stats.computed += 1
        return plan

    stats.computed += 1
    budget = manifest.budget_for(entry)
    task: dict[str, Any] = {
        "name": entry.name,
        "policy_text": data.decode("utf-8"),
        "source_digest": source_digest,
        "needs": needs,
        "checkset": checkset,
        "sample_limit": sample_limit,
        "fingerprint": fingerprint,
        "baseline_fingerprint": baseline_fingerprint,
        "budget": (
            {"deadline_s": budget.deadline_s, "max_nodes": budget.max_nodes}
            if budget is not None
            else None
        ),
    }
    if "compare" in needs:
        assert baseline_path is not None and baseline_text is not None
        task["baseline_text"] = baseline_text
        task["baseline_name"] = Path(baseline_path).name
        task["baseline_digest"] = baseline_digest
    elif "impact" in needs and "compare" in result.stages:
        task["compare_payload"] = result.stages["compare"]
    plan.task = task
    return plan


def _absorb_outcome(
    plan: _Plan,
    outcome: dict[str, Any],
    checkset: CheckSet,
    cache: ResultCache | None,
    stats: AuditStats,
) -> None:
    """Fold a worker outcome into the plan's result + cache + stats."""
    result = plan.result
    task = plan.task
    assert task is not None
    stats.fdd_constructions += outcome["fdd_constructions"]
    result.guard_spend = outcome["guard_spend"]
    result.fingerprint = outcome["fingerprint"] or result.fingerprint
    result.baseline_fingerprint = (
        outcome["baseline_fingerprint"] or result.baseline_fingerprint
    )
    if outcome["status"] != "ok":
        result.status = outcome["status"]
        result.detail = outcome["detail"]
        if outcome["status"] == "over-budget":
            stats.over_budget += 1
        else:
            stats.errors += 1
        return

    fingerprint = outcome["fingerprint"]
    baseline_fingerprint = outcome["baseline_fingerprint"]
    served = set(outcome.get("cache_served", ()))
    for stage, payload in outcome["payloads"].items():
        result.stages[stage] = payload
        result.cached[stage] = stage in served
    if cache is None or fingerprint is None:
        return
    cache.fingerprint_put(task["source_digest"], fingerprint)
    if baseline_fingerprint is not None and task.get("baseline_digest"):
        cache.fingerprint_put(task["baseline_digest"], baseline_fingerprint)
    for stage, payload in outcome["payloads"].items():
        if stage in served:
            continue
        fingerprints = _stage_fingerprints(
            stage, task["source_digest"], fingerprint, baseline_fingerprint
        )
        stage_id = checkset.stage_id(stage)
        cache.put(
            ResultCache.key(stage, fingerprints, stage_id),
            payload,
            kind=stage,
            fingerprints=fingerprints,
            checkset_id=stage_id,
            guard_spend={
                k: v
                for k, v in outcome["guard_spend"].items()
                if isinstance(v, int)
            },
        )
