"""Flat-array packet classification compiled from reduced FDDs.

The FDD engines are built for *design and comparison*: nodes are Python
objects, edges carry :class:`~repro.intervals.IntervalSet` labels, and
``FDD.evaluate`` walks them edge-by-edge with a linear scan per node.
That is the right shape for algebra and the wrong shape for serving
traffic.  This package is the lowering step between the two worlds:

* :func:`compile_fdd` / :func:`compile_firewall` — compile any valid
  FDD (tree engine or store engine alike) into a
  :class:`CompiledMatcher`: per-node interval boundaries flattened into
  one contiguous ``array`` resolved by :func:`bisect.bisect_right` into
  integer jump offsets, with no node objects and no interval algebra on
  the hot path;
* :class:`CompiledMatcher` — the immutable artifact: ``classify`` /
  ``classify_batch`` entry points, exact byte-size accounting, and
  versioned pickle support; artifacts (not policy sources) are what
  :class:`repro.serve.PolicyServer` caches by fingerprint.

Compilation is guard-aware (one node tick per compiled node), and the
compiler *checks* consistency/completeness of every node it lowers —
handing it a malformed diagram raises
:class:`~repro.exceptions.FDDError` instead of producing a matcher with
undefined lookups.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.classify.compiler": ("compile_fdd", "compile_firewall"),
        "repro.classify.matcher": ("CompiledMatcher",),
    },
)
