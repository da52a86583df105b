"""Firewall Decision Diagrams and the paper's core algorithms.

* :mod:`repro.fdd.construction` — rules -> ordered FDD (Section 3).
* :mod:`repro.fdd.simplify` — ordered FDD -> simple FDD (Definition 4.3).
* :mod:`repro.fdd.shaping` — two FDDs -> semi-isomorphic FDDs (Section 4).
* :mod:`repro.fdd.comparison` — all functional discrepancies (Section 5).
* :mod:`repro.fdd.reduce` / :mod:`repro.fdd.marking` /
  :mod:`repro.fdd.generation` — FDD -> compact firewall ([12], Section 6).
* :mod:`repro.fdd.store` / :mod:`repro.fdd.passes` /
  :mod:`repro.fdd.fast` — the shared hash-consed core: node interning,
  memoized DAG traversals, and the scalable construction/comparison
  engine built on them (see ``docs/architecture.md``).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.fdd.canonical": ("canonical_fdd", "fingerprint_canonical", "semantic_fingerprint"),
        "repro.fdd.viz": ("to_ascii", "to_dot"),
        "repro.fdd.comparison": (
            "compare_direct",
            "compare_fdds",
            "compare_firewalls",
            "compare_shaped",
        ),
        "repro.fdd.construction": ("append_rule", "construct_fdd"),
        "repro.fdd.fast": ("build_difference", "compare_fast", "construct_fdd_fast"),
        "repro.fdd.fdd": ("FDD", "DecisionPath", "FDDStats"),
        "repro.fdd.generation": ("generate_firewall", "generate_rules"),
        "repro.fdd.marking": ("mark_fdd", "node_load"),
        "repro.fdd.node": ("Edge", "InternalNode", "TerminalNode"),
        "repro.fdd.passes": ("fold", "product_fold"),
        "repro.fdd.reduce": ("reduce_fdd",),
        "repro.fdd.shaping": ("are_semi_isomorphic", "make_semi_isomorphic"),
        "repro.fdd.simplify": ("make_simple",),
        "repro.fdd.store": ("NodeStore",),
    },
)
