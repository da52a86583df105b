"""Fleet audit report writers: aggregated SARIF 2.1.0, JSON, and text.

All three formats render from the same stage payloads the pipeline
cached (:mod:`repro.audit.pipeline`), so a warm re-audit reproduces the
cold run's report byte for byte.  Writers are *streaming*: ``begin()``
emits the header, ``add()`` one policy's results as they resolve, and
``finish()`` the fleet summary — a 10,000-policy audit never holds its
whole report in memory.  ``render_audit_sarif`` and friends wrap the
writers for callers that just want a string.

The SARIF log is one run over the whole fleet: the lint check catalog
plus four audit rules as ``reportingDescriptor``\\ s, one ``artifact``
per policy file, and per-policy results carrying stable
``partialFingerprints`` so SARIF consumers can track findings across
audits:

* **AUDIT001** ``baseline-divergence`` — the policy's semantics differ
  from its baseline (one summary result per diverged policy);
* **AUDIT002** ``newly-allowed-traffic`` — a sampled region the baseline
  blocks but the policy permits (the paper's most security-critical
  discrepancy direction);
* **AUDIT003** ``newly-blocked-traffic`` — a sampled region the baseline
  permits but the policy blocks;
* **AUDIT004** ``handling-changed`` — same permit/deny outcome, different
  decision (e.g. logging changed).
"""

from __future__ import annotations

import json
from typing import IO, Any

from repro.analysis.impact import ImpactKind
from repro.audit.cache import TOOL_NAME, TOOL_VERSION
from repro.audit.pipeline import FleetAuditReport, PolicyAuditResult

__all__ = [
    "AUDIT_RULES",
    "JsonAuditWriter",
    "SarifAuditWriter",
    "TextAuditWriter",
    "render_audit_json",
    "render_audit_sarif",
    "render_audit_text",
]

TOOL_URI = "https://example.org/repro/docs/auditing.md"

_SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

_LEVELS = {"error": "error", "warning": "warning", "info": "note"}

#: ``(code, kebab-name, SARIF level, summary)`` of the audit-layer rules.
AUDIT_RULES: tuple[tuple[str, str, str, str], ...] = (
    (
        "AUDIT001",
        "baseline-divergence",
        "warning",
        "Policy semantics diverge from the designated baseline.",
    ),
    (
        "AUDIT002",
        "newly-allowed-traffic",
        "error",
        "Packets the baseline blocks are permitted by this policy.",
    ),
    (
        "AUDIT003",
        "newly-blocked-traffic",
        "warning",
        "Packets the baseline permits are blocked by this policy.",
    ),
    (
        "AUDIT004",
        "handling-changed",
        "note",
        "Same permit/deny outcome but a different decision (e.g. logging).",
    ),
)

#: Sample-kind -> audit rule code for per-region results.
_KIND_RULES = {
    ImpactKind.NEWLY_ALLOWED: "AUDIT002",
    ImpactKind.NEWLY_BLOCKED: "AUDIT003",
    ImpactKind.HANDLING_CHANGED: "AUDIT004",
}


def _pascal(name: str) -> str:
    return "".join(part.capitalize() for part in name.split("-"))


def _rules_catalog() -> list[dict[str, Any]]:
    """The driver's rules: the full lint catalog plus the audit rules."""
    from repro.lint.engine import all_checks

    rules = [
        {
            "id": info.code,
            "name": _pascal(info.name),
            "shortDescription": {"text": info.summary},
            "defaultConfiguration": {"level": info.severity.sarif_level},
            "helpUri": TOOL_URI,
            "properties": {"version": info.version},
        }
        for info in all_checks()
    ]
    for code, name, level, summary in AUDIT_RULES:
        rules.append(
            {
                "id": code,
                "name": _pascal(name),
                "shortDescription": {"text": summary},
                "defaultConfiguration": {"level": level},
                "helpUri": TOOL_URI,
                "properties": {"version": 1},
            }
        )
    return rules


def _location(
    uri: str, line: int | None, rule_index: int | None, *, message: str | None = None
) -> dict[str, Any]:
    physical: dict[str, Any] = {"artifactLocation": {"uri": uri}}
    start_line = line if line is not None else (
        rule_index + 1 if rule_index is not None else 1
    )
    physical["region"] = {"startLine": start_line}
    location: dict[str, Any] = {"physicalLocation": physical}
    if message is not None:
        location["message"] = {"text": message}
    return location


def _policy_sarif_results(
    result: PolicyAuditResult, rule_index: dict[str, int]
) -> list[dict[str, Any]]:
    """All SARIF results one policy contributes (lint + divergence)."""
    uri = result.name
    out: list[dict[str, Any]] = []

    lint = result.stages.get("lint")
    if lint is not None:
        for record in lint["diagnostics"]:
            anchor = record.get("rule_index")
            sarif: dict[str, Any] = {
                "ruleId": record["code"],
                "ruleIndex": rule_index[record["code"]],
                "level": _LEVELS[record["severity"]],
                "message": {"text": record["message"]},
                "locations": [_location(uri, record.get("line"), anchor)],
                "partialFingerprints": {
                    "reproLint/v1": f"{record['code']}/{anchor}"
                },
            }
            related_rules = record.get("related_rules")
            if related_rules:
                related_lines = record.get(
                    "related_lines", [None] * len(related_rules)
                )
                sarif["relatedLocations"] = [
                    _location(uri, line, rule - 1, message=f"related rule r{rule}")
                    for rule, line in zip(related_rules, related_lines)
                ]
            out.append(sarif)

    compare = result.stages.get("compare")
    if compare is not None and not compare["equivalent"]:
        baseline = result.baseline_path or "baseline"
        out.append(
            {
                "ruleId": "AUDIT001",
                "ruleIndex": rule_index["AUDIT001"],
                "level": "warning",
                "message": {
                    "text": (
                        f"policy diverges from baseline {baseline!r}:"
                        f" {compare['disputed_packets']} packet(s) disputed"
                    )
                },
                "locations": [_location(uri, None, None)],
                "partialFingerprints": {
                    "reproAudit/v1": f"AUDIT001/{result.baseline_fingerprint}"
                },
            }
        )
        for sample in compare["samples"]:
            code = _KIND_RULES[sample["kind"]]
            out.append(
                {
                    "ruleId": code,
                    "ruleIndex": rule_index[code],
                    "level": _LEVELS[
                        {"AUDIT002": "error", "AUDIT003": "warning"}.get(
                            code, "info"
                        )
                    ],
                    "message": {
                        "text": (
                            f"{sample['region']}: baseline says"
                            f" {sample['baseline']}, policy says"
                            f" {sample['policy']}"
                            f" ({sample['packets']} packet(s))"
                        )
                    },
                    "locations": [_location(uri, None, None)],
                    "partialFingerprints": {
                        "reproAudit/v1": f"{code}/{sample['region']}"
                    },
                }
            )
    return out


class SarifAuditWriter:
    """Stream one aggregated SARIF 2.1.0 run for a whole fleet."""

    def __init__(self, stream: IO[str]) -> None:
        self._stream = stream
        self._rule_index: dict[str, int] = {}
        self._artifacts: list[str] = []
        self._notifications: list[dict[str, Any]] = []
        self._first_result = True

    def begin(self) -> None:
        rules = _rules_catalog()
        self._rule_index = {rule["id"]: i for i, rule in enumerate(rules)}
        driver = {
            "name": TOOL_NAME,
            "version": TOOL_VERSION,
            "informationUri": TOOL_URI,
            "rules": rules,
        }
        prefix = json.dumps(
            {
                "$schema": _SARIF_SCHEMA_URI,
                "version": "2.1.0",
                "runs": [
                    {
                        "tool": {"driver": driver},
                        "columnKind": "utf16CodeUnits",
                        "results": [],
                    }
                ],
            },
            indent=2,
        )
        # Re-open the streamed arrays: drop the closing "]}]}" tail.
        head = prefix[: prefix.rindex('"results": [')] + '"results": ['
        self._stream.write(head)

    def add(self, result: PolicyAuditResult) -> None:
        self._artifacts.append(result.name)
        if result.status != "ok":
            self._notifications.append(
                {
                    "level": "error" if result.status == "error" else "warning",
                    "message": {
                        "text": f"{result.name}: {result.status}"
                        + (f" ({result.detail})" if result.detail else "")
                    },
                }
            )
        for sarif in _policy_sarif_results(result, self._rule_index):
            if not self._first_result:
                self._stream.write(",")
            self._first_result = False
            self._stream.write(
                "\n" + _indent(json.dumps(sarif, indent=2), 10)
            )

    def finish(self, report: FleetAuditReport) -> None:
        close = "\n        ]" if not self._first_result else "]"
        self._stream.write(close + ",\n")
        tail: dict[str, Any] = {
            "artifacts": [{"location": {"uri": uri}} for uri in self._artifacts],
            "invocations": [
                {
                    "executionSuccessful": report.stats.errors == 0,
                    "toolExecutionNotifications": self._notifications,
                }
            ],
            "properties": {
                "checkset": report.checkset,
                "summary": report.summary(),
                "stats": report.stats.to_dict(),
                "cache": report.cache_stats,
                "degradations": report.degradations,
            },
        }
        body = _indent(json.dumps(tail, indent=2), 6)
        # Splice the tail's keys into the run object.
        self._stream.write(_strip_braces(body) + "\n    }\n  ]\n}")


class JsonAuditWriter:
    """Stream the machine-readable aggregate report."""

    def __init__(self, stream: IO[str]) -> None:
        self._stream = stream
        self._first = True

    def begin(self) -> None:
        self._stream.write(
            '{\n  "tool": '
            + json.dumps({"name": TOOL_NAME, "version": TOOL_VERSION})
            + ',\n  "policies": ['
        )

    def add(self, result: PolicyAuditResult) -> None:
        if not self._first:
            self._stream.write(",")
        self._first = False
        self._stream.write("\n" + _indent(json.dumps(result.to_dict(), indent=2), 4))

    def finish(self, report: FleetAuditReport) -> None:
        self._stream.write("\n  ]," if not self._first else "],")
        tail = {
            "checkset": report.checkset,
            "summary": report.summary(),
            "stats": report.stats.to_dict(),
            "cache": report.cache_stats,
            "degradations": report.degradations,
        }
        body = _indent(json.dumps(tail, indent=2), 2)
        self._stream.write("\n" + _strip_braces(body).lstrip("\n") + "\n}")


class TextAuditWriter:
    """Human-facing per-policy lines plus a fleet summary."""

    def __init__(self, stream: IO[str]) -> None:
        self._stream = stream

    def begin(self) -> None:
        pass

    def add(self, result: PolicyAuditResult) -> None:
        parts = [f"{result.name}:"]
        if result.status != "ok":
            parts.append(result.status.upper())
            if result.detail:
                parts.append(f"({result.detail})")
        else:
            lint = result.stages.get("lint")
            if lint is not None:
                counts = lint["summary"]
                parts.append(
                    f"{len(lint['diagnostics'])} finding(s)"
                    f" ({counts.get('error', 0)} error(s),"
                    f" {counts.get('warning', 0)} warning(s))"
                )
            compare = result.stages.get("compare")
            if compare is not None:
                parts.append(
                    "baseline: equivalent"
                    if compare["equivalent"]
                    else f"baseline: {compare['disputed_packets']} packet(s) diverge"
                )
        if result.fully_cached:
            parts.append("[cached]")
        self._stream.write(" ".join(parts) + "\n")
        if result.status == "ok" and result.diverged:
            impact = result.stages.get("impact")
            if impact is not None:
                by_kind = impact["packets_by_kind"]
                self._stream.write(
                    "    impact: "
                    + ", ".join(
                        f"{kind}: {packets} packet(s)"
                        for kind, packets in by_kind.items()
                        if packets
                    )
                    + "\n"
                )

    def finish(self, report: FleetAuditReport) -> None:
        summary = report.summary()
        self._stream.write(
            f"fleet: {summary['policies']} policies,"
            f" {summary['lint_findings']} lint finding(s),"
            f" {summary['diverged_policies']} diverged,"
            f" {summary['over_budget']} over budget,"
            f" {summary['errors']} error(s)\n"
        )
        if report.degradations:
            self._stream.write(
                f"  note: {len(report.degradations)} worker shard(s) degraded"
                " to serial execution (results still exact)\n"
            )
        if report.cache_stats is not None:
            cache = report.cache_stats
            self._stream.write(
                f"cache: {cache['hits']} hit(s), {cache['misses']} miss(es),"
                f" {cache['stores']} store(s), {cache['corrupt']} corrupt,"
                f" {summary['fdd_constructions']} FDD construction(s)\n"
            )


def _indent(text: str, spaces: int) -> str:
    pad = " " * spaces
    return "\n".join(pad + line for line in text.splitlines())


def _strip_braces(body: str) -> str:
    """Drop a pretty-printed JSON object's outer ``{``/``}`` lines."""
    lines = body.splitlines()
    return "\n".join(lines[1:-1])


def _render(report: FleetAuditReport, writer_cls: type) -> str:
    import io

    stream = io.StringIO()
    writer = writer_cls(stream)
    writer.begin()
    for result in report.results:
        writer.add(result)
    writer.finish(report)
    return stream.getvalue()


def render_audit_sarif(report: FleetAuditReport) -> str:
    """The whole report as one SARIF 2.1.0 document."""
    return _render(report, SarifAuditWriter)


def render_audit_json(report: FleetAuditReport) -> str:
    """The whole report as the machine-readable JSON aggregate."""
    return _render(report, JsonAuditWriter)


def render_audit_text(report: FleetAuditReport) -> str:
    """The whole report as the human-facing text rendering."""
    return _render(report, TextAuditWriter)
