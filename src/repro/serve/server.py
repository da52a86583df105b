""":class:`PolicyServer` — fingerprint-keyed compiled-artifact serving."""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Sequence

from repro.classify.compiler import compile_fdd
from repro.classify.matcher import CompiledMatcher
from repro.fdd.canonical import fingerprint_canonical
from repro.fdd.fast import construct_fdd_fast
from repro.fields.packet import Packet
from repro.guard.budget import Budget
from repro.guard.context import GuardContext
from repro.policy.decision import Decision
from repro.policy.firewall import Firewall

__all__ = ["PolicyServer"]


class PolicyServer:
    """Serve packet classifications for a set of loaded policies.

    ``capacity`` bounds the number of *compiled artifacts* held at once
    (LRU eviction).  Policy sources stay registered after eviction, so a
    cold artifact is recompiled on the next request — an eviction trades
    memory for a future compile, never correctness.  ``budget`` (a
    :class:`~repro.guard.Budget`) caps each construction + compilation;
    a policy that blows it raises
    :class:`~repro.exceptions.BudgetExceededError` out of ``load`` and
    leaves the cache untouched.

    >>> from repro.fields import toy_schema
    >>> from repro.policy import Firewall, Rule, ACCEPT, DISCARD
    >>> schema = toy_schema(9)
    >>> one = Firewall(schema, [Rule.build(schema, ACCEPT, F1="0-3"),
    ...                         Rule.build(schema, DISCARD)])
    >>> two = Firewall(schema, [Rule.build(schema, DISCARD, F1="4-9"),
    ...                         Rule.build(schema, ACCEPT)])
    >>> server = PolicyServer()
    >>> server.load(one, name="a") == server.load(two, name="b")
    True
    >>> server.matcher("a") is server.matcher("b")  # one shared artifact
    True
    >>> str(server.classify("b", (2,)))
    'accept'
    """

    def __init__(self, *, capacity: int = 8, budget: Budget | None = None):
        self._capacity = max(1, capacity)
        self._budget = budget
        #: fingerprint -> compiled artifact, most recently used last.
        self._artifacts: OrderedDict[str, CompiledMatcher] = OrderedDict()
        #: name -> fingerprint, as assigned by ``load``.
        self._names: dict[str, str] = {}
        #: fingerprint -> source policy, retained for recompilation.
        self._sources: dict[str, Firewall] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.compiles = 0

    # ------------------------------------------------------------------
    # Loading and cache management
    # ------------------------------------------------------------------
    def load(self, firewall: Firewall, *, name: str | None = None) -> str:
        """Register a policy and ensure its artifact is compiled.

        Returns the policy's semantic fingerprint — the cache key.
        Loading a policy semantically equal to an already-loaded one is
        a cache hit: no compilation happens and both names resolve to
        the *same* artifact object.
        """
        guard = self._guard()
        fdd = construct_fdd_fast(firewall, guard=guard)
        fingerprint = fingerprint_canonical(fdd)
        if name is not None:
            self._names[name] = fingerprint
        self._sources.setdefault(fingerprint, firewall)
        if fingerprint in self._artifacts:
            self.hits += 1
            self._artifacts.move_to_end(fingerprint)
        else:
            self.misses += 1
            self._install(fingerprint, compile_fdd(fdd, guard=guard))
        return fingerprint

    def matcher(self, key: str) -> CompiledMatcher:
        """The compiled artifact for a policy name or fingerprint.

        Recompiles from the retained source if the artifact was evicted
        (counted as a miss plus a compile).  Unknown keys raise
        ``KeyError``.
        """
        fingerprint = self._names.get(key, key)
        cached = self._artifacts.get(fingerprint)
        if cached is not None:
            self.hits += 1
            self._artifacts.move_to_end(fingerprint)
            return cached
        source = self._sources.get(fingerprint)
        if source is None:
            raise KeyError(f"no policy loaded under name or fingerprint {key!r}")
        self.misses += 1
        guard = self._guard()
        artifact = compile_fdd(construct_fdd_fast(source, guard=guard), guard=guard)
        self._install(fingerprint, artifact)
        return artifact

    def _install(self, fingerprint: str, artifact: CompiledMatcher) -> None:
        self.compiles += 1
        self._artifacts[fingerprint] = artifact
        self._artifacts.move_to_end(fingerprint)
        while len(self._artifacts) > self._capacity:
            self._artifacts.popitem(last=False)
            self.evictions += 1

    def _guard(self) -> GuardContext | None:
        # A fresh context per operation: the budget caps each compile,
        # not the server's lifetime.
        return GuardContext(self._budget) if self._budget is not None else None

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    def classify(self, key: str, packet: Packet | Sequence[int]) -> Decision:
        """One policy's decision for one packet."""
        return self.matcher(key).classify(packet)

    def classify_batch(
        self, key: str, packets: Iterable[Packet | Sequence[int]]
    ) -> list[Decision]:
        """Decisions for a batch under one policy."""
        return self.matcher(key).classify_batch(packets)

    def tally(
        self, key: str, packets: Iterable[Packet | Sequence[int]]
    ) -> dict[Decision, int]:
        """Decision histogram of a batch under one policy."""
        return self.matcher(key).tally(packets)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def names(self) -> tuple[str, ...]:
        """Registered policy names, in load order."""
        return tuple(self._names)

    @property
    def fingerprints(self) -> tuple[str, ...]:
        """Fingerprints of distinct loaded policies, in first-load order."""
        return tuple(self._sources)

    def cached_fingerprints(self) -> tuple[str, ...]:
        """Fingerprints whose artifacts are currently resident (LRU order)."""
        return tuple(self._artifacts)

    def stats(self) -> dict:
        """Cache counters and exact resident-artifact memory accounting."""
        return {
            "policies": len(self._sources),
            "names": len(self._names),
            "artifacts": len(self._artifacts),
            "capacity": self._capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "compiles": self.compiles,
            "size_bytes": sum(
                artifact.size_bytes() for artifact in self._artifacts.values()
            ),
        }

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"<PolicyServer {stats['artifacts']}/{stats['capacity']} artifacts,"
            f" {stats['policies']} policies, {stats['size_bytes']} B>"
        )
