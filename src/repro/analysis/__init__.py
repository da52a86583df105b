"""Applications of the comparison pipeline.

The paper's headline workflows — diverse design (Sections 2/6/7.3) and
change impact analysis (Section 1.3) — plus the supporting analyses:
discrepancy records and aggregation, resolution Methods 1 and 2, semantic
equivalence, redundancy removal [19], firewall queries [20], and rule
anomaly detection in the style of [1].  Findings for one policy come from
:mod:`repro.lint`; lint, comparison and impact over a fleet from
:mod:`repro.audit`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.analysis.aggregate": ("aggregate_discrepancies",),
        "repro.analysis.anomaly": ("Anomaly", "find_anomalies"),
        "repro.analysis.approximate": ("approximate_compare",),
        "repro.analysis.discrepancy": (
            "ComparisonReport",
            "Discrepancy",
            "format_discrepancy_table",
        ),
        "repro.analysis.diverse_design": (
            "DiverseDesignSession",
            "MultiDiscrepancy",
            "cross_compare",
            "direct_compare",
        ),
        "repro.analysis.effective": ("EffectiveAnalysis", "EffectiveRule", "effective_rules"),
        "repro.analysis.equivalence": ("disputed_packet_count", "equivalent"),
        "repro.analysis.impact": ("ChangeImpactReport", "ImpactKind", "analyze_change"),
        "repro.analysis.query_language": (
            "ParsedQuery",
            "QuerySession",
            "parse_query",
            "run_query",
        ),
        "repro.analysis.queries": ("QueryResult", "any_packet", "decisions_in_region", "query"),
        "repro.analysis.slicing": ("relevant_rules", "slice_firewall"),
        "repro.analysis.redundancy": (
            "find_redundant_rules",
            "find_upward_redundant",
            "remove_redundant_rules",
        ),
        "repro.analysis.resolution": (
            "ResolvedDiscrepancy",
            "aggregate_resolutions",
            "corrected_fdd",
            "prefer_team",
            "resolve_by_corrected_fdd",
            "resolve_by_patching",
            "resolve_with",
        ),
    },
)
