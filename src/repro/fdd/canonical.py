"""Canonical forms and semantic fingerprints of policies.

Two policies are semantically equal iff their *reduced ordered FDDs* are
isomorphic — reduction merges all equivalent subgraphs, and ordered FDDs
of equal semantics reduce to the same shape up to edge-set equality.
That yields:

* :func:`canonical_fdd` — the canonical diagram of a firewall;
* :func:`semantic_fingerprint` — a stable hash of the canonical
  diagram.  Equal semantics ⇒ equal fingerprints, and collisions aside,
  unequal fingerprints ⇒ different semantics — an O(1) pre-check in
  front of the full comparison, useful when tracking many policy
  versions (e.g. a git history of firewall changes).

Both run on the store engine: the output of
:func:`~repro.fdd.fast.construct_fdd_fast` is interned bottom-up in a
:class:`~repro.fdd.store.NodeStore`, so it *is* the reduced ordered FDD
— canonicalization is just fast construction, no separate reduction walk.
The paper-literal tree pipeline (``reduce_fdd(construct_fdd(...))``)
digested by :func:`fingerprint_canonical` is the independently
implemented cross-check: the tests assert byte-identical fingerprints
(the digest is a pure function of diagram structure).

The fingerprint is deterministic across processes (no ``id()``-based
state leaks into it) — property-tested against the exact equivalence
procedure.
"""

from __future__ import annotations

import hashlib

from repro.fdd.fast import construct_fdd_fast
from repro.fdd.fdd import FDD
from repro.fdd.node import InternalNode, Node, TerminalNode
from repro.fdd.passes import fold
from repro.policy.firewall import Firewall

__all__ = ["canonical_fdd", "fingerprint_canonical", "semantic_fingerprint"]


def canonical_fdd(firewall: Firewall | FDD) -> FDD:
    """The reduced ordered FDD of a policy (its canonical diagram).

    Canonicity relies on every path testing every field in schema order,
    which construction guarantees; FDD inputs are therefore normalized
    through a generate/reconstruct round trip first (they may skip
    fields or use another order, Section 7.2).  The diagram is built
    hash-consed — interned construction yields the reduced diagram
    directly.
    """
    if isinstance(firewall, FDD):
        from repro.fdd.generation import generate_firewall

        firewall = generate_firewall(firewall, compact=False)
    return construct_fdd_fast(firewall)


def _node_digest(node: Node, memo: dict[int, str]) -> str:
    """SHA-256 digest of a (reduced) subgraph, memoized over shared nodes."""

    def terminal_digest(node: TerminalNode) -> str:
        hasher = hashlib.sha256()
        hasher.update(b"t")
        hasher.update(node.decision.name.encode())
        hasher.update(b"1" if node.decision.permits else b"0")
        return hasher.hexdigest()

    def internal_digest(node: InternalNode, child_digests: tuple[str, ...]) -> str:
        hasher = hashlib.sha256()
        hasher.update(b"i")
        hasher.update(str(node.field_index).encode())
        # Reduced FDDs have disjoint labels; sorting by minimum gives a
        # deterministic edge order independent of construction history.
        for edge, digest in sorted(
            zip(node.edges, child_digests), key=lambda item: item[0].label.min()
        ):
            for interval in edge.label.intervals:
                hasher.update(f"[{interval.lo},{interval.hi}]".encode())
            hasher.update(digest.encode())
        return hasher.hexdigest()

    return fold(node, terminal=terminal_digest, internal=internal_digest, memo=memo)


def semantic_fingerprint(firewall: Firewall | FDD) -> str:
    """A stable hex digest of the policy's semantics.

    The digest is a pure function of the canonical diagram's structure,
    so identical semantics give identical fingerprints.

    >>> from repro.fields import toy_schema
    >>> from repro.policy import Firewall, Rule, ACCEPT, DISCARD
    >>> schema = toy_schema(9)
    >>> one = Firewall(schema, [Rule.build(schema, ACCEPT, F1="0-3"),
    ...                         Rule.build(schema, DISCARD)])
    >>> two = Firewall(schema, [Rule.build(schema, DISCARD, F1="4-9"),
    ...                         Rule.build(schema, ACCEPT)])
    >>> semantic_fingerprint(one) == semantic_fingerprint(two)
    True
    """
    return fingerprint_canonical(canonical_fdd(firewall))


def fingerprint_canonical(fdd: FDD) -> str:
    """Digest an *already canonical* diagram — no normalization pass.

    Equals ``semantic_fingerprint`` when ``fdd`` is a canonical reduced
    ordered FDD (e.g. the output of
    :func:`~repro.fdd.fast.construct_fdd_fast`); callers that already
    hold one — the serving layer fingerprints the same diagram it is
    about to compile — skip the reconstruction round trip this way.
    Handing it a non-canonical diagram silently produces a digest that
    matches nothing; when in doubt use :func:`semantic_fingerprint`.
    """
    schema_tag = ",".join(f"{field.name}:{field.max_value}" for field in fdd.schema)
    hasher = hashlib.sha256()
    hasher.update(schema_tag.encode())
    hasher.update(_node_digest(fdd.root, {}).encode())
    return hasher.hexdigest()
