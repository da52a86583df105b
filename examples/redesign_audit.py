#!/usr/bin/env python3
"""Redesign audit: the paper's Section 8.1 effectiveness scenario.

"Using the method of diverse firewall design, redesigning an existing
firewall could be an effective way to find errors in the firewall."

The scenario: a production policy has drifted — an administrator moved
rules to the top carelessly and lost some rules across changes.  A second
engineer redesigns the policy from its documentation (here: the rule
comments), making a couple of mistakes of their own.  Comparing the two
versions surfaces *every* disagreement; a three-way comparison against
the documented intent attributes each one.

Run:  python examples/redesign_audit.py
"""

from repro import aggregate_discrepancies, compare_firewalls
from repro.bench import effectiveness_experiment
from repro.synth import campus_87


def main() -> None:
    intended = campus_87()
    print(f"documented intent: {intended.name!r}, {len(intended)} rules")
    print("sample documentation (rule comments):")
    for rule in intended.rules[30:33]:
        print(f"  - {rule.comment}: {rule.predicate.describe()} -> {rule.decision}")
    print()

    # Simulate the drifted original and the (imperfect) redesign, with a
    # known ground truth, then let the comparator do its job.
    result = effectiveness_experiment(
        seed=81, ordering_errors=7, missing_rules=3, redesign_errors=2
    )
    print("injected into the 'original': "
          f"{result.ordering_errors_injected} rule-ordering errors, "
          f"{result.missing_rules_injected} missing rules")
    print(f"injected into the 'redesign': {result.redesign_errors_injected} "
          "misread decisions")
    print()
    print(f"comparator found {result.discrepancies_found} discrepancy regions:")
    print(f"  original at fault: {result.original_wrong}")
    print(f"  redesign at fault: {result.redesign_wrong}")
    print(f"  both at fault:     {result.both_wrong}")
    print()
    print("paper's Section 8.1 shape: original-wrong dominates (82 vs 2 there);")
    ratio = result.original_wrong / max(1, result.redesign_wrong)
    print(f"measured ratio here: {ratio:.0f}:1")
    print()

    # Show the workflow on a tiny, readable slice: one careless move.
    drifted = intended.move(35, 0)  # a service-accept rule jumps the blocklist
    discs = aggregate_discrepancies(compare_firewalls(drifted, intended))
    print("zoom in — one careless 'move rule to top' edit produces these")
    print("discrepancies against the documented intent:")
    for disc in discs:
        print(f"  {disc.describe()}")
    if not discs:
        print("  (that particular move happened to be semantics-preserving)")


if __name__ == "__main__":
    main()
