"""Fleet manifests: which policies to audit, for whom, against what.

A manifest names the fleet — every policy file an operator owns — plus
optional tenant metadata.  Two input forms:

* a **directory**: every ``*.fw`` file under it (recursively) is one
  policy; the first subdirectory component names the tenant (policies at
  the top level belong to tenant ``"default"``);
* a **JSON file**::

      {
        "baseline": "golden/reference.fw",
        "tenants": {
          "team-a": {"max_nodes": 2000000, "deadline_s": 30.0}
        },
        "policies": [
          {"path": "team-a/edge.fw"},
          {"path": "team-b/core.fw", "tenant": "team-b",
           "baseline": "team-b/core.prev.fw"}
        ]
      }

  Paths are resolved relative to the manifest file's directory.  A
  per-policy ``baseline`` overrides the fleet-wide one; tenant budgets
  bound each member policy's audit (see ``docs/auditing.md``).

Entries are ordered deterministically (sorted by name) so reports,
cache traversal, and shard assignment are stable across runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.exceptions import ReproError
from repro.guard.budget import Budget

__all__ = ["AuditManifestError", "FleetManifest", "PolicyEntry", "TenantBudget", "load_manifest"]

#: Tenant assigned to policies without explicit tenant metadata.
DEFAULT_TENANT = "default"


class AuditManifestError(ReproError):
    """A fleet manifest is missing, malformed, or names absent files."""


@dataclass(frozen=True)
class TenantBudget:
    """Per-tenant guard limits applied to each of the tenant's policies."""

    max_nodes: int | None = None
    deadline_s: float | None = None

    def to_budget(self) -> Budget | None:
        """The :class:`~repro.guard.Budget` equivalent, or ``None``."""
        if self.max_nodes is None and self.deadline_s is None:
            return None
        return Budget(deadline_s=self.deadline_s, max_nodes=self.max_nodes)


@dataclass(frozen=True)
class PolicyEntry:
    """One fleet member: a policy file plus its audit metadata."""

    #: Absolute path of the policy file.
    path: str
    #: Stable display name (manifest-relative path with ``/`` separators).
    name: str
    tenant: str = DEFAULT_TENANT
    #: Absolute path of this policy's comparison baseline, or ``None`` to
    #: use the fleet-wide baseline (or skip comparison when none is set).
    baseline: str | None = None


@dataclass(frozen=True)
class FleetManifest:
    """The resolved fleet: ordered entries plus tenant budgets."""

    #: Directory all relative paths were resolved against.
    root: str
    entries: tuple[PolicyEntry, ...]
    tenants: Mapping[str, TenantBudget] = field(default_factory=dict)
    #: Fleet-wide comparison baseline (absolute path), or ``None``.
    baseline: str | None = None

    def __len__(self) -> int:
        return len(self.entries)

    def budget_for(self, entry: PolicyEntry) -> Budget | None:
        """The guard budget governing ``entry`` (tenant budget, if any)."""
        tenant = self.tenants.get(entry.tenant)
        return tenant.to_budget() if tenant is not None else None

    def baseline_for(self, entry: PolicyEntry) -> str | None:
        """The baseline path ``entry`` compares against, or ``None``."""
        return entry.baseline if entry.baseline is not None else self.baseline


def load_manifest(path: str | Path, *, baseline: str | None = None) -> FleetManifest:
    """Load a fleet manifest from a directory or a JSON manifest file.

    ``baseline`` (e.g. the CLI's ``--baseline``) sets or overrides the
    fleet-wide comparison baseline; per-policy baselines in a JSON
    manifest still win for their entries.
    """
    target = Path(path)
    if target.is_dir():
        manifest = _from_directory(target)
    elif target.is_file():
        manifest = _from_json(target)
    else:
        raise AuditManifestError(f"manifest not found: {target}")
    if baseline is not None:
        resolved = str(Path(baseline).resolve())
        if not Path(resolved).is_file():
            raise AuditManifestError(f"baseline policy not found: {baseline}")
        manifest = FleetManifest(
            root=manifest.root,
            entries=manifest.entries,
            tenants=manifest.tenants,
            baseline=resolved,
        )
    if not manifest.entries:
        raise AuditManifestError(f"manifest {target} names no policies")
    return manifest


def _from_directory(root: Path) -> FleetManifest:
    """Scan ``root`` recursively for ``*.fw`` policies."""
    entries = []
    for found in sorted(root.rglob("*.fw")):
        relative = found.relative_to(root)
        tenant = relative.parts[0] if len(relative.parts) > 1 else DEFAULT_TENANT
        entries.append(
            PolicyEntry(
                path=str(found.resolve()),
                name=relative.as_posix(),
                tenant=tenant,
            )
        )
    return FleetManifest(root=str(root.resolve()), entries=tuple(entries))


def _require(value: object, kind: type, what: str) -> Any:
    if not isinstance(value, kind):
        raise AuditManifestError(
            f"manifest {what} must be {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _from_json(manifest_path: Path) -> FleetManifest:
    """Parse a JSON manifest (see the module docstring for the shape)."""
    try:
        document = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise AuditManifestError(f"manifest {manifest_path} is not valid JSON: {exc}") from exc
    _require(document, dict, "document")
    root = manifest_path.resolve().parent

    tenants: dict[str, TenantBudget] = {}
    for tenant_name, limits in _require(document.get("tenants", {}), dict, "'tenants'").items():
        _require(limits, dict, f"tenant {tenant_name!r}")
        unknown = set(limits) - {"max_nodes", "deadline_s"}
        if unknown:
            raise AuditManifestError(
                f"tenant {tenant_name!r} has unknown budget keys: {sorted(unknown)}"
            )
        tenants[tenant_name] = TenantBudget(
            max_nodes=limits.get("max_nodes"),
            deadline_s=limits.get("deadline_s"),
        )

    def resolve(relative: str, what: str) -> str:
        resolved = (root / relative).resolve()
        if not resolved.is_file():
            raise AuditManifestError(f"{what} not found: {resolved}")
        return str(resolved)

    fleet_baseline: str | None = None
    if document.get("baseline") is not None:
        fleet_baseline = resolve(
            _require(document["baseline"], str, "'baseline'"), "fleet baseline"
        )

    entries = []
    for item in _require(document.get("policies", []), list, "'policies'"):
        _require(item, dict, "policy entry")
        if "path" not in item:
            raise AuditManifestError("every policy entry needs a 'path'")
        relative = _require(item["path"], str, "policy 'path'")
        entry_baseline = None
        if item.get("baseline") is not None:
            entry_baseline = resolve(
                _require(item["baseline"], str, "policy 'baseline'"), "policy baseline"
            )
        entries.append(
            PolicyEntry(
                path=resolve(relative, "policy"),
                name=relative,
                tenant=_require(item.get("tenant", DEFAULT_TENANT), str, "policy 'tenant'"),
                baseline=entry_baseline,
            )
        )
    entries.sort(key=lambda entry: entry.name)
    return FleetManifest(
        root=str(root),
        entries=tuple(entries),
        tenants=tenants,
        baseline=fleet_baseline,
    )
