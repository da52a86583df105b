"""repro — a reproduction of *Diverse Firewall Design* (Liu & Gouda,
DSN 2004 / IEEE TPDS 2008).

The library implements the paper's complete system:

* the firewall policy model (ordered first-match rules over integer
  interval fields) — :mod:`repro.policy`;
* Firewall Decision Diagrams and the three discrepancy-discovery
  algorithms: construction, shaping, comparison — :mod:`repro.fdd`;
* the diverse-design workflow, discrepancy resolution (both of
  Section 6's methods), and change impact analysis —
  :mod:`repro.analysis`;
* substrates: interval algebra (:mod:`repro.intervals`), CIDR/port/
  protocol formats (:mod:`repro.addr`), a BDD baseline
  (:mod:`repro.bdd`), and synthetic workload generation
  (:mod:`repro.synth`).

Quickstart::

    from repro import compare_firewalls, aggregate_discrepancies
    from repro.synth import team_a_firewall, team_b_firewall

    discrepancies = compare_firewalls(team_a_firewall(), team_b_firewall())
    for disc in aggregate_discrepancies(discrepancies):
        print(disc.describe())
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.analysis.aggregate": ("aggregate_discrepancies",),
        "repro.analysis.discrepancy": (
            "ComparisonReport",
            "Discrepancy",
            "format_discrepancy_table",
        ),
        "repro.analysis.diverse_design": ("DiverseDesignSession",),
        "repro.analysis.equivalence": ("equivalent",),
        "repro.analysis.impact": ("ChangeImpactReport", "analyze_change"),
        "repro.analysis.resolution": (
            "prefer_team",
            "resolve_by_corrected_fdd",
            "resolve_by_patching",
            "resolve_with",
        ),
        "repro.exceptions": ("BudgetExceededError", "CancelledError", "LintError", "ReproError"),
        "repro.fdd.comparison": ("compare_direct", "compare_fdds", "compare_firewalls"),
        "repro.fdd.construction": ("construct_fdd",),
        "repro.fdd.fdd": ("FDD",),
        "repro.fdd.generation": ("generate_firewall",),
        "repro.fdd.shaping": ("make_semi_isomorphic",),
        "repro.fields.packet": ("Packet",),
        "repro.fields.schema": (
            "FieldSchema",
            "interface_schema",
            "standard_schema",
            "toy_schema",
        ),
        "repro.guard.budget": ("Budget",),
        "repro.guard.context": ("GuardContext",),
        "repro.guard.fault": ("FaultInjector",),
        "repro.intervals.interval": ("Interval",),
        "repro.intervals.intervalset": ("IntervalSet",),
        "repro.lint.diagnostic": ("Diagnostic", "LintReport"),
        "repro.lint.engine": ("run_lint",),
        "repro.policy.decision": ("ACCEPT", "ACCEPT_LOG", "DISCARD", "DISCARD_LOG", "Decision"),
        "repro.policy.firewall": ("Firewall",),
        "repro.policy.predicate": ("Predicate",),
        "repro.policy.rule": ("Rule",),
    },
    defined=("__version__",),
)
