"""Guarded execution: budgets, deadlines, cancellation, fault injection.

Theorem 1 of the paper bounds FDD decision paths by ``(2n - 1)^d``, so
construction, shaping, and comparison can blow up super-polynomially on
adversarial inputs.  This package makes every long-running algorithm in
the library *interruptible and bounded*:

* :class:`Budget` — declarative limits: wall-clock deadline, FDD nodes
  expanded, edges split, discrepancies emitted;
* :class:`GuardContext` — the cooperative token threaded through hot
  loops (cheap amortized checks), carrying spend counters, the deadline
  clock, a cancellation flag, and fault hooks;
* :class:`FaultInjector` — test-only hook forcing failures at named
  sites to prove clean unwinding.

Every pipeline entry point accepts ``guard=None`` (unguarded, near-zero
overhead) or a :class:`GuardContext`.  When a budget trips, a
:class:`~repro.exceptions.BudgetExceededError` with machine-readable
``resource``/``spent``/``limit`` attributes unwinds the computation
without leaking partially-mutated structures; callers can degrade to the
sampling-based approximate comparison
(:func:`repro.analysis.approximate.approximate_compare`, which the CLI's
``--approx-fallback`` runs) instead of crashing.  See
``docs/robustness.md``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.exceptions": (
            "BudgetExceededError",
            "CancelledError",
            "FaultInjectedError",
            "GuardError",
        ),
        "repro.guard.budget": ("Budget",),
        "repro.guard.context": ("GuardContext",),
        "repro.guard.fault": ("FaultInjector",),
    },
)
