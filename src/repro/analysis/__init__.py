"""Applications of the comparison pipeline.

The paper's headline workflows — diverse design (Sections 2/6/7.3) and
change impact analysis (Section 1.3) — plus the supporting analyses:
discrepancy records and aggregation, resolution Methods 1 and 2, semantic
equivalence, redundancy removal [19], firewall queries [20], and rule
anomaly detection in the style of [1].  Findings for one policy come from
:mod:`repro.lint`; lint, comparison and impact over a fleet from
:mod:`repro.audit`.
"""

from repro.analysis.aggregate import aggregate_discrepancies
from repro.analysis.anomaly import Anomaly, find_anomalies
from repro.analysis.approximate import approximate_compare, compare_with_fallback
from repro.analysis.discrepancy import (
    ComparisonReport,
    Discrepancy,
    format_discrepancy_table,
)
from repro.analysis.diverse_design import (
    DiverseDesignSession,
    MultiDiscrepancy,
    cross_compare,
    direct_compare,
)
from repro.analysis.effective import (
    EffectiveAnalysis,
    EffectiveRule,
    effective_rules,
)
from repro.analysis.equivalence import disputed_packet_count, equivalent
from repro.analysis.impact import ChangeImpactReport, ImpactKind, analyze_change
from repro.analysis.query_language import ParsedQuery, QuerySession, parse_query, run_query
from repro.analysis.queries import QueryResult, any_packet, decisions_in_region, query
from repro.analysis.slicing import relevant_rules, slice_firewall
from repro.analysis.redundancy import (
    find_redundant_rules,
    find_upward_redundant,
    remove_redundant_rules,
)
from repro.analysis.resolution import (
    ResolvedDiscrepancy,
    aggregate_resolutions,
    corrected_fdd,
    prefer_team,
    resolve_by_corrected_fdd,
    resolve_by_patching,
    resolve_with,
)

__all__ = [
    "Anomaly",
    "ChangeImpactReport",
    "ComparisonReport",
    "Discrepancy",
    "DiverseDesignSession",
    "EffectiveAnalysis",
    "EffectiveRule",
    "ImpactKind",
    "MultiDiscrepancy",
    "ParsedQuery",
    "QueryResult",
    "QuerySession",
    "ResolvedDiscrepancy",
    "aggregate_discrepancies",
    "aggregate_resolutions",
    "analyze_change",
    "approximate_compare",
    "any_packet",
    "compare_with_fallback",
    "corrected_fdd",
    "cross_compare",
    "decisions_in_region",
    "direct_compare",
    "disputed_packet_count",
    "effective_rules",
    "equivalent",
    "find_anomalies",
    "find_redundant_rules",
    "find_upward_redundant",
    "format_discrepancy_table",
    "parse_query",
    "prefer_team",
    "query",
    "relevant_rules",
    "remove_redundant_rules",
    "resolve_by_corrected_fdd",
    "resolve_by_patching",
    "resolve_with",
    "run_query",
    "slice_firewall",
]
