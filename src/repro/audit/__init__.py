"""Fleet-scale policy auditing with a content-addressed result cache.

The paper's pipeline answers one question about one pair of firewalls;
an operator runs that question — plus the whole lint catalog — over
*hundreds* of policies, repeatedly, after every change.  This package
makes the repeat runs cheap and the answers aggregated:

* :mod:`~repro.audit.manifest` — the fleet manifest (directory scan or
  JSON), with tenants and per-tenant guard budgets;
* :mod:`~repro.audit.checkset` — the versioned check set whose digest
  keys every cached result;
* :mod:`~repro.audit.cache` — the on-disk content-addressed cache:
  results keyed on ``(content digest(s), versioned stage id)`` —
  semantic fingerprints for comparison stages, the source digest for
  lint — with an integrity digest per entry and a source-digest memo
  that lets warm runs skip FDD construction entirely;
* :mod:`~repro.audit.pipeline` — the per-policy stage runner (lint,
  baseline comparison, change impact) with serial and supervised
  parallel execution;
* :mod:`~repro.audit.report` — streaming SARIF 2.1.0 / JSON / text
  aggregation.

>>> from repro.audit import load_manifest, resolve_checkset, audit_fleet
>>> import pathlib, tempfile
>>> d = tempfile.mkdtemp()
>>> _ = pathlib.Path(d, "a.fw").write_text(
...     'firewall "a" schema=standard\\nany -> accept\\n')
>>> report = audit_fleet(load_manifest(d), checkset=resolve_checkset("lint"))
>>> report.stats.policies, report.results[0].status
(1, 'ok')

See ``docs/auditing.md`` for the full workflow and the cache's design.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.audit.cache": ("CacheEntry", "ResultCache"),
        "repro.audit.checkset": ("STAGES", "AuditCheckSetError", "CheckSet", "resolve_checkset"),
        "repro.audit.manifest": (
            "AuditManifestError",
            "FleetManifest",
            "PolicyEntry",
            "TenantBudget",
            "load_manifest",
        ),
        "repro.audit.pipeline": (
            "AuditStats",
            "FleetAuditReport",
            "PolicyAuditResult",
            "audit_fleet",
        ),
        "repro.audit.report": (
            "JsonAuditWriter",
            "SarifAuditWriter",
            "TextAuditWriter",
            "render_audit_json",
            "render_audit_sarif",
            "render_audit_text",
        ),
    },
)
