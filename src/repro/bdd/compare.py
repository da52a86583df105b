"""BDD-based firewall comparison — the Section 7.5 baseline pipeline.

Builds both firewalls' accept-set BDDs, XORs them, and extracts the
disagreement as cubes.  This reproduces the paper's two observations:

1. the XOR BDD itself is not human readable (nodes are packet *bits*);
2. flattening it to rule-like output yields an enormous number of
   bit-level cubes, each of which constrains arbitrary bit subsets and so
   does not even correspond to one prefix/interval rule.

A third limitation surfaces naturally: a BDD is a boolean function, so
the baseline only distinguishes permit from deny — decisions like
``accept+log`` collapse (the FDD pipeline keeps them distinct).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bdd.bdd import BDDManager
from repro.bdd.encode import FirewallEncoder
from repro.exceptions import BDDError
from repro.guard.context import GuardContext
from repro.policy.firewall import Firewall

__all__ = ["BDDComparison", "compare_with_bdd", "cube_to_text"]


@dataclass(frozen=True)
class BDDComparison:
    """Everything the BDD baseline can say about two firewalls."""

    #: The manager that owns all node ids below.
    manager: BDDManager
    #: The encoder (for variable naming in cube rendering).
    encoder: FirewallEncoder
    #: BDD of packets permitted by firewall a / firewall b.
    accept_a: int
    accept_b: int
    #: BDD of packets where the permit/deny outcome differs.
    difference: int
    #: Exact number of disputed packets.
    disputed_packets: int
    #: Number of cubes in the difference BDD (capped; see ``cube_limit``).
    cube_count: int
    #: True when ``cube_count`` hit the cap and the true count is larger.
    cube_count_truncated: bool

    def equivalent(self) -> bool:
        """True when the two firewalls permit exactly the same packets."""
        return self.disputed_packets == 0


def compare_with_bdd(
    fw_a: Firewall,
    fw_b: Firewall,
    *,
    guard: GuardContext | None = None,
    cube_limit: int = 1_000_000,
) -> BDDComparison:
    """Run the BDD baseline end to end.

    Cube enumeration is capped — the whole point of the baseline is that
    the cube count explodes, so the cap keeps the benchmark bounded.  The
    cap comes from the unified guard budget when one is given
    (``guard.budget.max_discrepancies``), else from the legacy
    ``cube_limit`` parameter; hitting it flags
    ``cube_count_truncated=True`` rather than raising (the truncation is
    the baseline's documented degraded mode).  The guard's deadline and
    cancellation token are still enforced: between phases and, amortized,
    per enumerated cube.

    >>> from repro.fields import toy_schema
    >>> from repro.policy import Firewall, Rule, ACCEPT, DISCARD
    >>> schema = toy_schema(7, 7)
    >>> fa = Firewall(schema, [Rule.build(schema, ACCEPT)])
    >>> fb = Firewall(schema, [Rule.build(schema, DISCARD, F1=3),
    ...                        Rule.build(schema, ACCEPT)])
    >>> result = compare_with_bdd(fa, fb)
    >>> result.disputed_packets
    8
    """
    if fw_a.schema != fw_b.schema:
        raise BDDError("cannot compare firewalls over different field schemas")
    cap = cube_limit
    if guard is not None and guard.budget.max_discrepancies is not None:
        cap = guard.budget.max_discrepancies
    encoder = FirewallEncoder(fw_a.schema)
    manager = encoder.manager
    if guard is not None:
        guard.checkpoint("bdd.encode")
    accept_a = encoder.encode_accept_set(fw_a)
    accept_b = encoder.encode_accept_set(fw_b)
    if guard is not None:
        guard.checkpoint("bdd.xor")
    difference = manager.xor(accept_a, accept_b)
    # Domains that do not fill their bit width would otherwise count
    # phantom packets.
    difference = manager.and_(difference, encoder.domain_constraint())
    disputed = manager.count_solutions(difference)
    if guard is not None:
        guard.checkpoint("bdd.cubes")
        cube_count = 0
        for _cube in manager.cubes(difference, limit=cap):
            cube_count += 1
            guard.tick_nodes()
    else:
        cube_count = manager.count_cubes(difference, limit=cap)
    return BDDComparison(
        manager=manager,
        encoder=encoder,
        accept_a=accept_a,
        accept_b=accept_b,
        difference=difference,
        disputed_packets=disputed,
        cube_count=cube_count,
        cube_count_truncated=cube_count >= cap,
    )


def cube_to_text(cube: dict[int, bool], encoder: FirewallEncoder) -> str:
    """Render one cube the only way a BDD allows: as per-field bit masks.

    The output makes the paper's readability point self-evident: a cube
    like ``src_ip=1*0*...*`` constrains scattered bits and corresponds to
    no single prefix or interval.
    """
    parts = []
    for field_index, field in enumerate(encoder.schema):
        offset = encoder.offsets[field_index]
        width = encoder.widths[field_index]
        mask = []
        relevant = False
        for bit in range(width):
            value = cube.get(offset + bit)
            if value is None:
                mask.append("*")
            else:
                mask.append("1" if value else "0")
                relevant = True
        if relevant:
            parts.append(f"{field.name}={''.join(mask)}")
    return ", ".join(parts) if parts else "any"
