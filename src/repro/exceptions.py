"""Exception hierarchy for the :mod:`repro` library.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch one base class.  Sub-classes are
grouped by the subsystem that raises them; each carries a human-readable
message and, where useful, structured attributes describing the offending
object.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class IntervalError(ReproError):
    """An interval or interval set was constructed or used incorrectly.

    Raised, for example, when an interval's low endpoint exceeds its high
    endpoint, or when an operation would produce a value outside the
    non-negative integer universe the paper's model requires.
    """


class AddressError(ReproError):
    """An IPv4 address, CIDR prefix, port, or protocol failed to parse."""


class SchemaError(ReproError):
    """A field schema was invalid or two schemas were incompatible.

    The comparison algorithms require both firewalls to be defined over the
    same ordered field schema (Section 3.1 of the paper); mixing schemas
    raises this error rather than silently producing garbage.
    """


class PolicyError(ReproError):
    """A firewall policy (rule list) violated a structural requirement."""


class SimplifyError(ReproError):
    """Policy simplification failed its own equivalence verification.

    Raised by :mod:`repro.simplify` when a candidate rule list's
    canonical fingerprint does not match the input's (or the candidate
    grew).  Always indicates a bug in the simplification pipeline — the
    simplifier never returns an unverified policy.
    """


class NotComprehensiveError(PolicyError):
    """A rule sequence does not match every packet.

    Section 3.1: "A sequence of rules needs to be comprehensive for it to
    serve as a firewall."  The exception records a witness packet that no
    rule matches, when one is available.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        #: A packet tuple matched by no rule, or ``None`` if not computed.
        self.witness = witness

    def __reduce__(self):
        return (type(self), (self.args[0], self.witness))


class FDDError(ReproError):
    """An FDD violated one of its defining properties (Section 2).

    The defining properties are: single root, labelled nodes, edge labels
    that are subsets of the parent field's domain, no repeated labels along
    a decision path, and the *consistency* and *completeness* of each
    node's outgoing edge set.
    """


class NotOrderedError(FDDError):
    """An FDD was not ordered but an ordered FDD was required (Def. 4.1)."""


class NotSimpleError(FDDError):
    """An FDD was not simple but a simple FDD was required (Def. 4.3)."""


class NotSemiIsomorphicError(FDDError):
    """Two FDDs expected to be semi-isomorphic were not (Def. 4.2)."""


class ParseError(ReproError):
    """A textual firewall policy or rule failed to parse.

    Carries the one-based ``line`` number when parsing multi-line input.
    """

    def __init__(self, message: str, line: int | None = None):
        self._raw_message = message
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        #: One-based line number of the offending input line, if known.
        self.line = line

    @property
    def raw_message(self) -> str:
        """The message without the ``line N:`` prefix (for re-wrapping)."""
        return self._raw_message

    def __reduce__(self):
        return (type(self), (self._raw_message, self.line))


class BDDError(ReproError):
    """The BDD engine was used incorrectly (wrong manager, bad variable)."""


class ResolutionError(ReproError):
    """Discrepancy resolution input was inconsistent or incomplete.

    Raised when the resolved decisions handed to Section 6's methods do not
    cover all reported discrepancies, or cover packets that were never in
    dispute.
    """


class QueryError(ReproError):
    """A firewall query (extension module) was malformed."""


class LintError(ReproError):
    """The policy lint engine (:mod:`repro.lint`) was misconfigured.

    Raised for unknown diagnostic codes in enable/disable selections and
    other configuration mistakes — never for findings themselves, which
    are reported as :class:`repro.lint.Diagnostic` records.
    """


class GuardError(ReproError):
    """Base class for guarded-execution failures (:mod:`repro.guard`).

    Theorem 1 bounds FDD paths by ``(2n - 1)^d``, so every long-running
    algorithm in the pipeline runs under an (optional) resource budget.
    Guard errors are *clean*: they unwind before any caller-visible
    structure is mutated, so catching one always leaves inputs intact.
    """


class BudgetExceededError(GuardError):
    """A guarded computation ran out of one of its resource budgets.

    Machine-readable attributes identify which budget tripped and how far
    the computation got, so callers can decide between retrying with a
    larger budget and degrading to an approximate mode:

    ``resource``
        Which budget tripped: ``"deadline"``, ``"fdd-nodes"``,
        ``"edges-split"``, ``"discrepancies"``, or ``"uncovered-regions"``.
    ``spent``
        How much of the resource was consumed when the check fired
        (seconds for deadlines, counts otherwise).
    ``limit``
        The configured budget for that resource.
    ``progress``
        Optional dict witnessing how far the computation got (e.g. rules
        processed so far), for diagnostics and partial-result reporting.
    """

    def __init__(
        self,
        message: str,
        *,
        resource: str,
        spent: float | int,
        limit: float | int,
        progress: dict | None = None,
    ):
        super().__init__(message)
        #: Name of the exhausted resource (see class docstring).
        self.resource = resource
        #: Amount of the resource consumed when the check fired.
        self.spent = spent
        #: The configured budget for the resource.
        self.limit = limit
        #: Optional progress witness (counts of completed work units).
        self.progress = dict(progress) if progress else {}

    def __reduce__(self):
        # Keyword-only constructor args defeat the default exception
        # pickling; budget errors must survive a worker->parent hop in
        # the sharded parallel engine (repro.parallel).
        return (
            _rebuild_budget_error,
            (type(self), self.args[0], self.resource, self.spent, self.limit, self.progress),
        )


class CancelledError(GuardError):
    """A guarded computation observed its cancellation token.

    Cooperative: the computation polls the token at amortized intervals
    and unwinds cleanly at the next poll after :meth:`GuardContext.cancel`.
    """

    def __init__(self, message: str = "operation cancelled", *, site: str | None = None):
        self._raw_message = message
        if site is not None:
            message = f"{message} (at {site})"
        super().__init__(message)
        #: The guard checkpoint site that observed the cancellation, if known.
        self.site = site

    def __reduce__(self):
        return (_rebuild_cancelled_error, (type(self), self._raw_message, self.site))


class SupervisionError(GuardError):
    """A pool worker's exception could not cross the pipe.

    Raised by the pool worker loop (:mod:`repro.parallel.pool`) in place
    of a task exception that does not pickle, so the supervisor still
    receives a classified ``worker-error`` reply.  A shard that exhausts
    its retries never raises it: the supervisor re-runs that shard in
    the parent.  Attributes:

    ``shard``
        Index of the shard that could not be completed, if known.
    ``reason``
        The final attempt's failure class: ``"worker-crash"``,
        ``"worker-hang"``, ``"shard-deadline"``, ``"corrupt-result"``,
        or ``"worker-error"``.
    ``attempts``
        Total dispatch attempts consumed (original + retries).
    """

    def __init__(
        self,
        message: str,
        *,
        shard: int | None = None,
        reason: str | None = None,
        attempts: int = 0,
    ):
        super().__init__(message)
        #: Index of the failed shard, if known.
        self.shard = shard
        #: Failure class of the final attempt (see class docstring).
        self.reason = reason
        #: Total dispatch attempts consumed.
        self.attempts = attempts

    def __reduce__(self) -> tuple:
        return (
            _rebuild_supervision_error,
            (type(self), self.args[0], self.shard, self.reason, self.attempts),
        )


class FaultInjectedError(GuardError):
    """Default error raised by an armed :class:`repro.guard.FaultInjector`.

    Only ever raised in tests that deliberately arm an injector; carries
    the site name so assertions can verify *where* the fault fired.
    """

    def __init__(self, site: str):
        super().__init__(f"injected fault at {site}")
        #: The guard checkpoint site the fault fired at.
        self.site = site

    def __reduce__(self):
        return (type(self), (self.site,))


def _rebuild_budget_error(cls, message, resource, spent, limit, progress):
    """Unpickle helper for :class:`BudgetExceededError` subclass trees."""
    return cls(
        message, resource=resource, spent=spent, limit=limit, progress=progress
    )


def _rebuild_cancelled_error(cls, message, site):
    """Unpickle helper for :class:`CancelledError`."""
    return cls(message, site=site)


def _rebuild_supervision_error(cls, message, shard, reason, attempts):
    """Unpickle helper for :class:`SupervisionError`."""
    return cls(message, shard=shard, reason=reason, attempts=attempts)
