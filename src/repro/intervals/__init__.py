"""Integer interval algebra: the value substrate for predicates and FDDs.

The paper (Section 3.1) models every packet field as a finite interval of
non-negative integers, and every rule predicate / FDD edge label as a set
of such integers.  This package provides the two immutable value types the
rest of the library is built on:

* :class:`~repro.intervals.interval.Interval` — one closed interval.
* :class:`~repro.intervals.intervalset.IntervalSet` — a canonical disjoint
  union of intervals, with full set algebra.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.intervals.interval": ("Interval", "MAX_ENUMERABLE_VALUES"),
        "repro.intervals.intervalset": ("IntervalSet", "checkpoints"),
    },
)
