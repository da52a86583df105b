"""The Section 7.5 baseline: BDD-based firewall comparison.

A from-scratch ROBDD engine plus a firewall encoder, used to reproduce
the paper's argument for FDDs over BDDs: the BDD pipeline computes the
same disputed packet set, but its rule-like output (cubes of the XOR
diagram) explodes in size and is not human readable.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.bdd.bdd": ("FALSE", "TRUE", "BDDManager"),
        "repro.bdd.compare": ("BDDComparison", "compare_with_bdd", "cube_to_text"),
        "repro.bdd.encode": ("FirewallEncoder",),
    },
)
