"""Lint report renderers: text, JSON, and SARIF 2.1.0.

All three derive from the same :class:`~repro.lint.diagnostic.LintReport`
and are deterministic (no timestamps, stable ordering), so they can be
golden-file tested and diffed across runs.  The SARIF output targets the
`SARIF 2.1.0 <https://docs.oasis-open.org/sarif/sarif/v2.1.0/sarif-v2.1.0.html>`_
schema so findings surface directly in GitHub code scanning and other
SARIF consumers; ``tests/lint/test_sarif_schema.py`` validates the output
against a vendored subset of the official schema.
"""

from __future__ import annotations

import json
from typing import Any

from repro.lint.diagnostic import LintReport, Severity
from repro.lint.engine import all_checks

__all__ = ["render_text", "render_json", "render_sarif", "sarif_dict"]

#: Tool identity stamped into JSON and SARIF output.
TOOL_NAME = "repro-lint"
TOOL_VERSION = "1.0.0"
TOOL_URI = "https://example.org/repro/docs/linting.md"

SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def render_text(report: LintReport, *, path: str | None = None) -> str:
    """GCC-style one-line-per-finding rendering plus a summary line."""
    lines: list[str] = []
    for diagnostic in report.diagnostics:
        location = diagnostic.location(path)
        lines.append(
            f"{location}: {diagnostic.code} {diagnostic.severity}:"
            f" {diagnostic.message} [{diagnostic.name}]"
        )
        if diagnostic.hint is not None:
            lines.append(f"    hint: {diagnostic.hint}")
    counts = report.counts()
    summary = ", ".join(
        f"{counts[s.value]} {s.value}(s)" for s in Severity
    )
    name = report.firewall.name or "policy"
    lines.append(
        f"{name!r}: {len(report.diagnostics)} finding(s) ({summary})"
        if report.diagnostics
        else f"{name!r}: clean ({len(report.checks_run)} check(s) run)"
    )
    return "\n".join(lines)


def render_json(report: LintReport, *, path: str | None = None) -> str:
    """Machine-readable JSON: tool identity, policy, summary, diagnostics."""
    payload: dict[str, Any] = {
        "tool": {"name": TOOL_NAME, "version": TOOL_VERSION},
        "policy": {
            "name": report.firewall.name,
            "rules": len(report.firewall),
        },
        "checks_run": list(report.checks_run),
        "check_versions": {
            info.code: info.version
            for info in all_checks()
            if info.code in report.checks_run
        },
        "summary": report.counts(),
        "diagnostics": [d.to_dict() for d in report.diagnostics],
    }
    if path is not None:
        payload["policy"]["path"] = path
    return json.dumps(payload, indent=2)


def sarif_dict(report: LintReport, *, path: str | None = None) -> dict[str, Any]:
    """The SARIF 2.1.0 log object for ``report`` (as a Python dict).

    One run, one tool driver, the full check catalog as
    ``reportingDescriptor`` rules, and one result per diagnostic with a
    physical location (the policy file and the rule's source line, when
    known) plus related locations for contributing rules.
    """
    rules = lint_rule_descriptors(TOOL_URI)
    rule_index = {rule["id"]: i for i, rule in enumerate(rules)}
    artifact_uri = path if path is not None else "policy.fw"

    results: list[dict[str, Any]] = []
    for diagnostic in report.diagnostics:
        result: dict[str, Any] = {
            "ruleId": diagnostic.code,
            "ruleIndex": rule_index[diagnostic.code],
            "level": diagnostic.severity.sarif_level,
            "message": {"text": diagnostic.message},
            "locations": [
                sarif_location(artifact_uri, diagnostic.line, diagnostic.rule_index)
            ],
            "partialFingerprints": {
                "reproLint/v1": f"{diagnostic.code}/{diagnostic.rule_index}"
            },
        }
        if diagnostic.related:
            result["relatedLocations"] = [
                sarif_location(
                    artifact_uri,
                    report.firewall[index].source_line,
                    index,
                    message=f"related rule r{index + 1}",
                )
                for index in diagnostic.related
            ]
        results.append(result)

    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": TOOL_NAME,
                        "version": TOOL_VERSION,
                        "informationUri": TOOL_URI,
                        "rules": rules,
                    }
                },
                "columnKind": "utf16CodeUnits",
                "artifacts": [{"location": {"uri": artifact_uri}}],
                "results": results,
            }
        ],
    }


def render_sarif(report: LintReport, *, path: str | None = None) -> str:
    """SARIF 2.1.0 as a JSON string (see :func:`sarif_dict`)."""
    return json.dumps(sarif_dict(report, path=path), indent=2)


def lint_rule_descriptors(help_uri: str) -> list[dict[str, Any]]:
    """The full lint check catalog as SARIF ``reportingDescriptor``\\ s.

    ``help_uri`` is the emitting tool's own documentation page (lint and
    the fleet audit each point at theirs).
    """
    return [
        {
            "id": info.code,
            "name": sarif_rule_name(info.name),
            "shortDescription": {"text": info.summary},
            "defaultConfiguration": {"level": info.severity.sarif_level},
            "helpUri": help_uri,
            "properties": {"version": info.version},
        }
        for info in all_checks()
    ]


def sarif_location(
    uri: str,
    line: int | None,
    rule_index: int | None,
    *,
    message: str | None = None,
) -> dict[str, Any]:
    """A SARIF ``location``: physical when a source line is known.

    Policies built programmatically have no source lines; the rule's
    one-based position stands in so consumers still get a stable anchor.
    """
    physical: dict[str, Any] = {"artifactLocation": {"uri": uri}}
    start_line = line if line is not None else (
        rule_index + 1 if rule_index is not None else 1
    )
    physical["region"] = {"startLine": start_line}
    location: dict[str, Any] = {"physicalLocation": physical}
    if message is not None:
        location["message"] = {"text": message}
    return location


def sarif_rule_name(name: str) -> str:
    """``shadowed-rule`` -> ``ShadowedRule`` (SARIF rule display names)."""
    return "".join(part.capitalize() for part in name.split("-"))
