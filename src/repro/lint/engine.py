"""The lint engine: check registry, shared analysis context, runner.

Checkers are small functions registered with :func:`register_check`; each
receives a :class:`LintContext` and yields :class:`Diagnostic` records.
The context lazily computes — once per run, shared by every checker —
the expensive artefacts: the FDD-exact effectiveness analysis
(:mod:`repro.analysis.effective`), the pairwise anomaly list, and the
complete redundancy marking.  A :class:`~repro.guard.GuardContext` bounds
the whole run (``--deadline``/``--max-nodes`` on the CLI): budgets thread
into FDD construction and the comparison pipeline, and the engine
checkpoints before every check so cancellation and deadlines fire between
checks too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

from repro.exceptions import LintError
from repro.guard.context import GuardContext
from repro.policy.firewall import Firewall
from repro.lint.diagnostic import Diagnostic, LintReport, Severity

if TYPE_CHECKING:
    from repro.analysis.anomaly import Anomaly
    from repro.analysis.effective import EffectiveAnalysis
    from repro.fdd.fdd import FDD
    from repro.fdd.store import NodeStore

__all__ = [
    "CheckInfo",
    "LintContext",
    "all_checks",
    "register_check",
    "run_lint",
]

CheckFn = Callable[["LintContext"], Iterable[Diagnostic]]


@dataclass(frozen=True)
class CheckInfo:
    """Registry metadata for one check (shown by ``lint --list-checks``)."""

    code: str
    name: str
    severity: Severity
    summary: str
    fn: CheckFn
    #: Declared behaviour version.  Bump it whenever the check's findings
    #: can change for an unchanged policy (new heuristics, message
    #: semantics, suppression rules): cached audit results are keyed on
    #: it, so a bump invalidates exactly this check's cache entries
    #: (see :mod:`repro.audit.checkset`).
    version: int = 1


_REGISTRY: dict[str, CheckInfo] = {}


def register_check(
    code: str, name: str, severity: Severity, summary: str, *, version: int = 1
) -> Callable[[CheckFn], CheckFn]:
    """Decorator registering a checker under a stable diagnostic code.

    ``version`` declares the check's behaviour version (default 1); the
    audit cache keys on it, so bump it with any change that can alter
    the check's findings on an unchanged policy.
    """

    def decorate(fn: CheckFn) -> CheckFn:
        if code in _REGISTRY:
            raise LintError(f"diagnostic code {code} registered twice")
        if version < 1:
            raise LintError(f"check {code}: version must be >= 1, got {version}")
        _REGISTRY[code] = CheckInfo(
            code=code,
            name=name,
            severity=severity,
            summary=summary,
            fn=fn,
            version=version,
        )
        return fn

    return decorate


def all_checks() -> list[CheckInfo]:
    """Every registered check, sorted by code."""
    import repro.lint.checks  # noqa: F401  (registers the built-in checks)

    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


class LintContext:
    """Shared, lazily computed analysis state for one lint run.

    The expensive artefacts are computed **once per policy** and shared
    by every check: one :class:`~repro.fdd.store.NodeStore` interns
    every diagram the run touches, the policy's reduced FDD (``fdd``)
    falls out of the effectiveness analysis's final append, and the
    redundancy analysis re-walks that analysis's prefix diagrams in the
    same store instead of building any candidate policy.
    Callers that already hold the policy's diagram — the audit pipeline
    fingerprints it first — seed the context with ``store``/``fdd`` so
    the lint run constructs nothing it was handed.
    """

    def __init__(
        self,
        firewall: Firewall,
        *,
        guard: GuardContext | None = None,
        store: "NodeStore | None" = None,
        fdd: "FDD | None" = None,
    ):
        self.firewall = firewall
        self.guard = guard
        self._store = store
        self._fdd = fdd
        self._effective: EffectiveAnalysis | None = None
        self._anomalies: list[Anomaly] | None = None
        self._redundant: frozenset[int] | None = None

    @property
    def store(self) -> "NodeStore":
        """The run's shared node store (every diagram interns here)."""
        if self._store is None:
            from repro.fdd.store import NodeStore

            self._store = NodeStore()
        return self._store

    @property
    def fdd(self) -> "FDD":
        """The policy's canonical reduced FDD (constructed at most once).

        Prefers the final diagram of the effectiveness analysis — a free
        by-product of its incremental construction — so a run that needs
        both pays for one construction total.
        """
        if self._fdd is None:
            if self._effective is not None:
                self._fdd = self._effective.fdd
            else:
                self._fdd = self.store.construct(self.firewall, guard=self.guard)
        return self._fdd

    @property
    def effective(self) -> "EffectiveAnalysis":
        """The FDD-exact effectiveness analysis (computed once)."""
        if self._effective is None:
            from repro.analysis.effective import effective_rules

            self._effective = effective_rules(
                self.firewall, guard=self.guard, store=self.store
            )
            if self._fdd is None:
                self._fdd = self._effective.fdd
        return self._effective

    @property
    def dead(self) -> frozenset[int]:
        """Indices of rules no packet can first-match."""
        return frozenset(self.effective.dead_indices())

    @property
    def anomalies(self) -> "list[Anomaly]":
        """The pairwise anomaly list (computed once)."""
        if self._anomalies is None:
            from repro.analysis.anomaly import find_anomalies

            self._anomalies = find_anomalies(self.firewall)
        return self._anomalies

    @property
    def redundant(self) -> frozenset[int]:
        """Indices removable without changing semantics (computed once).

        Runs in the shared store: one backward pass of prepends, one
        forward pass of appends (memo hits once the effectiveness
        analysis has built the policy here) and one box-restricted walk
        per rule — no candidate policy is ever built.
        """
        if self._redundant is None:
            from repro.analysis.redundancy import find_redundant_rules

            self._redundant = frozenset(
                find_redundant_rules(
                    self.firewall, guard=self.guard, store=self.store
                )
            )
        return self._redundant

    @property
    def checks(self) -> dict[str, CheckInfo]:
        """Registry metadata by code (for checkers building diagnostics)."""
        return {info.code: info for info in all_checks()}

    # ------------------------------------------------------------------
    # Message helpers shared by checkers
    # ------------------------------------------------------------------
    def rule_label(self, index: int) -> str:
        """``r<n>`` naming matching the policy's ``describe()`` output."""
        return f"r{index + 1}"

    def rule_list(self, indices: Iterable[int]) -> str:
        """Comma-joined ``r<n>`` labels."""
        return ", ".join(self.rule_label(i) for i in indices)

    def format_packet(self, packet: tuple[int, ...]) -> str:
        """Render a witness packet in each field's vocabulary."""
        from repro.intervals.intervalset import IntervalSet

        parts: list[str] = []
        for field_, value in zip(self.firewall.schema, packet):
            parts.append(
                f"{field_.name}={field_.format_value_set(IntervalSet.single(value))}"
            )
        return ", ".join(parts)

    def diagnostic(
        self,
        info: CheckInfo,
        message: str,
        *,
        rule_index: int | None = None,
        related: tuple[int, ...] = (),
        hint: str | None = None,
    ) -> Diagnostic:
        """Build a :class:`Diagnostic` for ``info``, filling the line in."""
        line = None
        if rule_index is not None:
            line = self.firewall[rule_index].source_line
        return Diagnostic(
            code=info.code,
            name=info.name,
            severity=info.severity,
            message=message,
            rule_index=rule_index,
            line=line,
            related=related,
            hint=hint,
        )


def _resolve_codes(selection: Iterable[str] | None) -> frozenset[str] | None:
    """Normalize an enable/disable selection to a set of known codes.

    Accepts codes (``FW001``) and check names (``shadowed-rule``),
    case-insensitively, with comma-separated values allowed inside each
    entry.  Unknown entries raise :class:`~repro.exceptions.LintError`.
    """
    if selection is None:
        return None
    by_key = {info.code.lower(): info.code for info in all_checks()}
    by_key.update({info.name.lower(): info.code for info in all_checks()})
    resolved: set[str] = set()
    for entry in selection:
        for token in entry.split(","):
            token = token.strip()
            if not token:
                continue
            code = by_key.get(token.lower())
            if code is None:
                known = ", ".join(sorted(info.code for info in all_checks()))
                raise LintError(f"unknown check {token!r}; known codes: {known}")
            resolved.add(code)
    return frozenset(resolved)


def selected_checks(
    enable: Iterable[str] | None = None, disable: Iterable[str] | None = None
) -> list[CheckInfo]:
    """The checks a run with the given selection executes, sorted by code.

    ``enable`` restricts the run to exactly the listed checks (default:
    all); ``disable`` then removes codes from that set.
    """
    enabled = _resolve_codes(enable)
    disabled = _resolve_codes(disable) or frozenset()
    out: list[CheckInfo] = []
    for info in all_checks():
        if enabled is not None and info.code not in enabled:
            continue
        if info.code in disabled:
            continue
        out.append(info)
    return out


def run_lint(
    firewall: Firewall,
    *,
    enable: Iterable[str] | None = None,
    disable: Iterable[str] | None = None,
    guard: GuardContext | None = None,
    context: LintContext | None = None,
) -> LintReport:
    """Run the registered checks over ``firewall`` and collect findings.

    Diagnostics are ordered by (anchor rule, code) so output is stable
    under check-registration order.  See ``docs/linting.md`` for the
    check catalog and :mod:`repro.lint.render` for the output formats.

    ``context`` lets a caller that already computed shared artefacts (a
    node store, the policy's reduced FDD) hand them to the run — the
    audit pipeline lints with the same diagram it fingerprinted.  The
    context's firewall must be ``firewall``.
    """
    checks = selected_checks(enable, disable)
    if context is None:
        context = LintContext(firewall, guard=guard)
    elif context.firewall is not firewall:
        raise LintError("run_lint context was built for a different firewall")
    found: list[Diagnostic] = []
    for info in checks:
        if guard is not None:
            guard.checkpoint(f"lint.check.{info.code}")
        found.extend(info.fn(context))
    found.sort(
        key=lambda d: (
            d.rule_index if d.rule_index is not None else len(firewall),
            d.code,
            d.related,
        )
    )
    return LintReport(
        firewall=firewall,
        diagnostics=tuple(found),
        checks_run=tuple(info.code for info in checks),
    )
