"""Policy static analysis: a compiler-style lint engine for firewalls.

The paper treats discrepancy discovery between *two* independently
designed policies as ground truth; this package turns the same exact
machinery inward and analyses a *single* policy the way a compiler
analyses a program (Zaliva, arXiv:1102.1237): a registry of checkers runs
over the parsed :class:`~repro.policy.firewall.Firewall` and its
constructed FDD, emitting structured :class:`Diagnostic` records with
stable codes, severities, rule/source anchors, and fix-it hints.

The semantic checks are FDD-exact (Diekmann et al., arXiv:1604.00206
argue exactness is what makes such findings trustworthy): cumulative
shadowing, unreachable rules, complete cross-rule redundancy, and
never-taken decisions are *decided*, not pattern-matched.  Three
renderers — text, JSON, and SARIF 2.1.0 — feed humans, scripts, and
GitHub code scanning respectively; the ``repro lint`` CLI command wires
it all together with exit-code gating for CI.

>>> from repro.lint import run_lint, demo_policy_path
>>> from repro.policy import load
>>> report = run_lint(load(demo_policy_path()))
>>> sorted({d.code for d in report.diagnostics})
['FW001', 'FW002', 'FW003', 'FW004', 'FW101', 'FW102', 'FW201', 'FW202', 'FW203']
>>> [d.rule_index for d in report.by_code('FW001')]  # cumulative shadowing
[5]

See ``docs/linting.md`` for the full check catalog.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.lint.baseline": (
            "baseline_fingerprints",
            "diagnostic_fingerprint",
            "load_baseline",
            "new_findings",
        ),
        "repro.lint.diagnostic": ("Diagnostic", "LintReport", "Severity"),
        "repro.lint.engine": (
            "CheckInfo",
            "LintContext",
            "all_checks",
            "register_check",
            "run_lint",
            "selected_checks",
        ),
        "repro.lint.render": ("render_json", "render_sarif", "render_text", "sarif_dict"),
    },
    defined=("demo_policy_path",),
)


def demo_policy_path() -> str:
    """Path to ``examples/lint_demo.fw``, which trips every diagnostic code.

    Resolved relative to this source tree (the examples directory is not
    installed); used by the doctests, the golden-file tests, and the CI
    lint smoke job.
    """
    from pathlib import Path

    path = Path(__file__).resolve().parents[3] / "examples" / "lint_demo.fw"
    if not path.exists():
        raise FileNotFoundError(
            f"lint demo policy not found at {path} (running outside the"
            " source tree?)"
        )
    return str(path)
