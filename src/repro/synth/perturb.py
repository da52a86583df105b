"""The Fig. 12 perturbation model (Section 8.2.1).

To simulate two design teams starting from one real policy, the paper
derives a second firewall from the first:

1. randomly select ``x%`` of the rules (the set ``S``);
2. pick ``y`` uniformly from ``[0, 100]``;
3. flip the decisions of ``y%`` of the rules in ``S``;
4. delete the remaining ``(1 - y%)`` of ``S`` from the firewall.

The original and the perturbed firewall then share the other
``(1 - x%)`` of the rules.  :func:`perturb` implements the model with a
seeded RNG and returns both the perturbed policy and a record of what was
changed (used by the effectiveness harness to check that every injected
change is surfaced by the comparator).

The final catch-all rule is excluded from deletion (deleting it would
leave a non-comprehensive rule list, which cannot serve as a firewall);
it remains eligible for decision flips.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.policy.decision import ACCEPT, DISCARD, Decision
from repro.policy.firewall import Firewall

__all__ = ["PerturbationRecord", "perturb", "flip_decision"]


def flip_decision(decision: Decision) -> Decision:
    """The opposite decision (accept <-> discard), preserving nothing else.

    Decisions beyond the standard two flip on their ``permits`` bit.
    """
    return DISCARD if decision.permits else ACCEPT


@dataclass(frozen=True)
class PerturbationRecord:
    """What :func:`perturb` did: which rule indices were touched."""

    #: Fraction of rules selected (the experiment's ``x``, as 0..1).
    x: float
    #: Fraction of the selection whose decisions were flipped (``y``).
    y: float
    #: Zero-based indices (into the original) whose decision was flipped.
    flipped: tuple[int, ...]
    #: Zero-based indices (into the original) that were deleted.
    deleted: tuple[int, ...]


def perturb(
    firewall: Firewall,
    x: float,
    *,
    seed: int | None = None,
    y: float | None = None,
) -> tuple[Firewall, PerturbationRecord]:
    """Apply the Fig. 12 perturbation model to ``firewall``.

    ``x`` is the selected fraction in ``(0, 1]``.  ``y`` defaults to a
    uniform random draw from ``[0, 1]`` as in the paper; pass an explicit
    value for deterministic experiments.

    >>> from repro.synth.generator import SyntheticFirewallGenerator
    >>> fw = SyntheticFirewallGenerator(seed=3).generate(40)
    >>> other, record = perturb(fw, 0.25, seed=9)
    >>> touched = len(record.flipped) + len(record.deleted)
    >>> touched in (9, 10)  # 10 selected; the catch-all cannot be deleted
    True
    """
    if not 0 < x <= 1:
        raise ValueError(f"x must be in (0, 1], got {x}")
    rng = random.Random(seed)
    if y is None:
        y = rng.random()
    if not 0 <= y <= 1:
        raise ValueError(f"y must be in [0, 1], got {y}")

    n = len(firewall)
    select_count = max(1, int(round(x * n)))
    selected = rng.sample(range(n), select_count)
    flip_count = int(round(y * select_count))
    flipped = sorted(selected[:flip_count])
    deleted = sorted(
        index for index in selected[flip_count:] if index != n - 1
    )

    deleted_set = set(deleted)
    flipped_set = set(flipped)
    rules = []
    for index, rule in enumerate(firewall.rules):
        if index in deleted_set:
            continue
        if index in flipped_set:
            rules.append(rule.with_decision(flip_decision(rule.decision)))
        else:
            rules.append(rule)
    perturbed = Firewall(
        firewall.schema,
        rules,
        name=f"{firewall.name or 'firewall'}-perturbed",
    )
    record = PerturbationRecord(
        x=x, y=y, flipped=tuple(flipped), deleted=tuple(deleted)
    )
    return perturbed, record
