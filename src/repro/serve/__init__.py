"""The serving layer: compiled policies behind a content-addressed cache.

:class:`PolicyServer` is the process-level front end to
:mod:`repro.classify`.  Policies are loaded once: construction produces
the canonical reduced FDD, its
:func:`~repro.fdd.canonical.fingerprint_canonical` digest becomes the
cache key, and the compiled artifact lives in a bounded LRU keyed by
that fingerprint.  Content addressing is the point — two policies with
equal semantics (however differently written) hash to the same
fingerprint and share one compiled artifact, so a fleet of ``t``
diverse-design variants that happen to agree costs one compilation, not
``t``.

Compilation is budget-aware (each compile runs under a fresh
:class:`~repro.guard.GuardContext` built from the server's
:class:`~repro.guard.Budget`), evicted artifacts are recompiled on
demand from their retained sources, and every cache event is counted —
``stats()`` reports hits, misses, evictions, compiles, and exact
artifact byte sizes.  See ``docs/serving.md``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.serve.server": ("PolicyServer",),
    },
)
