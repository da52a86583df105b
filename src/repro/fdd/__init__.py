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

from repro.fdd.builder import FDDBuilder, reorder_fdd
from repro.fdd.canonical import canonical_fdd, fingerprint_canonical, semantic_fingerprint
from repro.fdd.viz import to_ascii, to_dot
from repro.fdd.comparison import compare_direct, compare_fdds, compare_firewalls, compare_shaped
from repro.fdd.construction import append_rule, construct_fdd
from repro.fdd.fast import build_difference, compare_fast, construct_fdd_fast
from repro.fdd.fdd import FDD, DecisionPath, FDDStats
from repro.fdd.generation import generate_firewall, generate_rules
from repro.fdd.marking import mark_fdd, node_load
from repro.fdd.node import Edge, InternalNode, TerminalNode
from repro.fdd.passes import fold, product_fold
from repro.fdd.reduce import reduce_fdd
from repro.fdd.shaping import are_semi_isomorphic, make_semi_isomorphic
from repro.fdd.simplify import make_simple
from repro.fdd.store import NodeStore

__all__ = [
    "FDD",
    "FDDBuilder",
    "DecisionPath",
    "Edge",
    "FDDStats",
    "InternalNode",
    "NodeStore",
    "TerminalNode",
    "append_rule",
    "build_difference",
    "canonical_fdd",
    "fingerprint_canonical",
    "are_semi_isomorphic",
    "compare_direct",
    "compare_fast",
    "compare_fdds",
    "compare_firewalls",
    "compare_shaped",
    "construct_fdd",
    "construct_fdd_fast",
    "fold",
    "generate_firewall",
    "generate_rules",
    "make_semi_isomorphic",
    "make_simple",
    "mark_fdd",
    "node_load",
    "product_fold",
    "reduce_fdd",
    "reorder_fdd",
    "semantic_fingerprint",
    "to_ascii",
    "to_dot",
]
