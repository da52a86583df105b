"""Check sets: what an audit runs, versioned for cache keying.

A :class:`CheckSet` pins down the audit's behaviour precisely enough to
key cached results on it: the enabled stages (``lint`` — the FW001–FW203
suite, ``simplify`` — the semantics-preserving rule-count reduction of
:mod:`repro.simplify`, ``compare`` — pairwise semantic comparison
against a baseline, ``impact`` — change-impact classification of that
comparison), the exact
lint checks with their declared versions
(:func:`repro.lint.engine.register_check`'s ``version=``), and the
pipeline's own stage versions.  :attr:`CheckSet.id` digests all of it:
two audits share cache entries iff their check sets would provably
produce the same results for the same policy semantics, and bumping any
check's declared version changes the id — invalidating exactly the stale
entries, with no explicit flush.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Any

from repro.exceptions import ReproError
from repro.lint.engine import selected_checks

__all__ = ["AuditCheckSetError", "CheckSet", "STAGES", "resolve_checkset"]

#: Recognized audit stages, in execution order.
STAGES = ("lint", "simplify", "compare", "impact")

#: Versions of the non-lint pipeline stages.  Bump when the stage's
#: payload semantics change (new fields are additive and safe; changed
#: meanings are not).
STAGE_VERSIONS = {"lint": 1, "simplify": 1, "compare": 1, "impact": 1}


class AuditCheckSetError(ReproError):
    """An unparseable ``--checks`` spec or unknown stage/check name."""


@dataclass(frozen=True)
class CheckSet:
    """The versioned description of what one audit run computes."""

    #: Enabled stages, in :data:`STAGES` order.
    stages: tuple[str, ...]
    #: ``(code, version)`` for every enabled lint check, sorted by code.
    lint_checks: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        unknown = [stage for stage in self.stages if stage not in STAGES]
        if unknown:
            raise AuditCheckSetError(f"unknown audit stage(s): {unknown}")
        if "impact" in self.stages and "compare" not in self.stages:
            raise AuditCheckSetError(
                "the 'impact' stage classifies the comparison's output;"
                " enable 'compare' too"
            )

    @cached_property
    def id(self) -> str:
        """Stable digest of the check set (the cache-key component).

        A pure function of stage names + versions and lint check codes +
        versions; adding a new check, bumping any version, or toggling a
        stage all change it.
        """
        description = {
            "stages": {stage: STAGE_VERSIONS[stage] for stage in self.stages},
            "lint_checks": list(self.lint_checks),
        }
        canonical = json.dumps(description, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:24]

    def stage_id(self, stage: str) -> str:
        """Stable digest of one stage's behaviour (its cache-key component).

        Narrower than :attr:`id`: a pure function of the stage's own
        version (plus, for ``lint``, the enabled checks and their
        versions) — so toggling an *unrelated* stage does not invalidate
        this stage's cached results, while bumping any contributing
        version invalidates exactly them.
        """
        if stage not in self.stages:
            raise AuditCheckSetError(f"stage {stage!r} is not enabled")
        description: dict[str, Any] = {
            "stage": stage,
            "version": STAGE_VERSIONS[stage],
        }
        if stage == "lint":
            description["lint_checks"] = list(self.lint_checks)
        canonical = json.dumps(description, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:24]

    @property
    def lint_codes(self) -> tuple[str, ...]:
        """Enabled lint check codes, sorted."""
        return tuple(code for code, _ in self.lint_checks)

    def describe(self) -> dict[str, Any]:
        """JSON-ready summary (stamped into reports and cache entries)."""
        return {
            "id": self.id,
            "stages": list(self.stages),
            "stage_versions": {stage: STAGE_VERSIONS[stage] for stage in self.stages},
            "lint_checks": {code: version for code, version in self.lint_checks},
        }


def resolve_checkset(spec: str | None = None) -> CheckSet:
    """Build a :class:`CheckSet` from a ``--checks`` spec string.

    ``None`` or ``"all"`` enables every stage with the full lint suite.
    Otherwise the spec is a comma-separated list of stages, where the
    ``lint`` stage optionally restricts its checks with ``+``-joined
    codes or names::

        lint,simplify,compare,impact  # everything (the default)
        lint                          # lint only, full suite
        lint=FW001+FW002,compare      # two checks plus baseline comparison

    Unknown stages and unknown check codes raise
    :class:`AuditCheckSetError` — a typo must not silently shrink an
    audit.
    """
    stages: list[str] = []
    enable: list[str] | None = None
    if spec is None or spec.strip().lower() in ("", "all"):
        stages = list(STAGES)
    else:
        for token in spec.split(","):
            token = token.strip()
            if not token:
                continue
            name, _, selection = token.partition("=")
            name = name.strip().lower()
            if name not in STAGES:
                raise AuditCheckSetError(
                    f"unknown audit stage {name!r}; known stages: {', '.join(STAGES)}"
                )
            if name in stages:
                raise AuditCheckSetError(f"stage {name!r} listed twice")
            if selection:
                if name != "lint":
                    raise AuditCheckSetError(
                        f"stage {name!r} takes no check selection (only 'lint=' does)"
                    )
                enable = [code.strip() for code in selection.split("+") if code.strip()]
            stages.append(name)
    ordered = tuple(stage for stage in STAGES if stage in stages)

    lint_checks: tuple[tuple[str, int], ...] = ()
    if "lint" in ordered:
        try:
            infos = selected_checks(enable=enable)
        except ReproError as exc:
            raise AuditCheckSetError(str(exc)) from exc
        lint_checks = tuple(sorted((info.code, info.version) for info in infos))
    return CheckSet(stages=ordered, lint_checks=lint_checks)
