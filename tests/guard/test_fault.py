"""Fault injection: every guarded site must unwind cleanly.

The catalogue of sites lives in ``docs/robustness.md``.  For each site we
arm a :class:`FaultInjector`, drive the pipeline operation that visits
it, and assert that (a) the injected fault propagates as
:class:`FaultInjectedError` — no site swallows it — and (b) the inputs
are semantically untouched afterwards (their fingerprints match the
pre-fault values, and they still produce the same comparison output).
"""

import pytest

from repro.analysis.approximate import approximate_compare
from repro.analysis.redundancy import remove_redundant_rules
from repro.bdd import compare_with_bdd
from repro.exceptions import FaultInjectedError
from repro.fdd import (
    compare_firewalls,
    construct_fdd,
    generate_firewall,
    make_semi_isomorphic,
)
from repro.fdd.canonical import semantic_fingerprint
from repro.fdd.fast import compare_fast, construct_fdd_fast
from repro.guard import FaultInjector, GuardContext
from repro.synth import team_a_firewall, team_b_firewall


class TestFaultInjector:
    def test_fires_on_first_visit_by_default(self):
        injector = FaultInjector()
        injector.arm("x")
        with pytest.raises(FaultInjectedError) as info:
            injector.fire("x")
        assert info.value.site == "x"
        assert injector.fired == ["x"]

    def test_countdown_delays_firing(self):
        injector = FaultInjector()
        injector.arm("x", after=2)
        injector.fire("x")
        injector.fire("x")
        with pytest.raises(FaultInjectedError):
            injector.fire("x")
        assert injector.visits["x"] == 3

    def test_fires_once_then_disarms(self):
        injector = FaultInjector()
        injector.arm("x")
        with pytest.raises(FaultInjectedError):
            injector.fire("x")
        injector.fire("x")  # no longer armed

    def test_disarm(self):
        injector = FaultInjector()
        injector.arm("x")
        injector.disarm("x")
        injector.fire("x")
        assert injector.fired == []

    def test_custom_exception_factory(self):
        injector = FaultInjector()
        injector.arm("x", exception=lambda site: RuntimeError(f"boom {site}"))
        with pytest.raises(RuntimeError, match="boom x"):
            injector.fire("x")

    def test_visits_recorded_for_unarmed_sites(self):
        injector = FaultInjector()
        injector.fire("y")
        injector.fire("y")
        assert injector.visits == {"y": 2}

    def test_visits_recorded_for_disarmed_sites_and_keyed_per_site(self):
        # The visits dict is keyed per site (each site counts its own
        # visits), and disarming never stops the counting: visits
        # doubles as a coverage map of which checkpoints a run reached.
        injector = FaultInjector()
        injector.arm("x")
        injector.disarm("x")
        injector.fire("x")
        injector.fire("x")
        injector.fire("y")
        assert injector.visits == {"x": 2, "y": 1}
        assert injector.fired == []


def _guard_with_fault(site: str, after: int = 0) -> GuardContext:
    injector = FaultInjector()
    injector.arm(site, after=after)
    return GuardContext(fault=injector)


# One representative driver per catalogued fault site.
SITE_DRIVERS = {
    "construction.rule": lambda fa, fb, guard: construct_fdd(fa, guard=guard),
    "shaping.start": lambda fa, fb, guard: make_semi_isomorphic(
        construct_fdd(fa), construct_fdd(fb), guard=guard
    ),
    "shaping.pair": lambda fa, fb, guard: make_semi_isomorphic(
        construct_fdd(fa), construct_fdd(fb), guard=guard
    ),
    "comparison.visit": lambda fa, fb, guard: compare_firewalls(fa, fb, guard=guard),
    "fast.rule": lambda fa, fb, guard: construct_fdd_fast(fa, guard=guard),
    "fast.product": lambda fa, fb, guard: compare_fast(fa, fb, guard=guard),
    "generation.start": lambda fa, fb, guard: generate_firewall(
        construct_fdd(fa), guard=guard
    ),
    "generation.visit": lambda fa, fb, guard: generate_firewall(
        construct_fdd(fa), guard=guard
    ),
    "redundancy.candidate": lambda fa, fb, guard: remove_redundant_rules(fa, guard=guard),
    "bdd.encode": lambda fa, fb, guard: compare_with_bdd(fa, fb, guard=guard),
    "bdd.xor": lambda fa, fb, guard: compare_with_bdd(fa, fb, guard=guard),
    "bdd.cubes": lambda fa, fb, guard: compare_with_bdd(fa, fb, guard=guard),
    "approximate.sample": lambda fa, fb, guard: approximate_compare(
        fa, fb, samples=50, guard=guard
    ),
}


class TestGuardedSitesUnwindCleanly:
    @pytest.mark.parametrize("site", sorted(SITE_DRIVERS))
    def test_fault_propagates_and_inputs_survive(self, site):
        fw_a, fw_b = team_a_firewall(), team_b_firewall()
        before_a = semantic_fingerprint(fw_a)
        before_b = semantic_fingerprint(fw_b)
        baseline = compare_firewalls(fw_a, fw_b)

        with pytest.raises(FaultInjectedError) as info:
            SITE_DRIVERS[site](fw_a, fw_b, _guard_with_fault(site))
        assert info.value.site == site

        # Inputs unchanged: same fingerprints, same comparison output.
        assert semantic_fingerprint(fw_a) == before_a
        assert semantic_fingerprint(fw_b) == before_b
        assert compare_firewalls(fw_a, fw_b) == baseline

    @pytest.mark.parametrize("site", ["shaping.pair", "comparison.visit", "fast.product"])
    def test_mid_run_fault_also_unwinds(self, site):
        """The countdown places the failure mid-loop, not at the entry."""
        fw_a, fw_b = team_a_firewall(), team_b_firewall()
        baseline = compare_firewalls(fw_a, fw_b)
        with pytest.raises(FaultInjectedError):
            SITE_DRIVERS[site](fw_a, fw_b, _guard_with_fault(site, after=3))
        assert compare_firewalls(fw_a, fw_b) == baseline

    def test_every_catalogued_site_is_actually_visited(self):
        """Guard against the catalogue drifting from the code: an armed
        site that is never visited would make its injection test pass
        vacuously (no — it would fail, but check the visit counts too)."""
        fw_a, fw_b = team_a_firewall(), team_b_firewall()
        injector = FaultInjector()
        guard = GuardContext(fault=injector)
        construct_fdd(fw_a, guard=guard)
        compare_firewalls(fw_a, fw_b, guard=guard)
        make_semi_isomorphic(construct_fdd(fw_a), construct_fdd(fw_b), guard=guard)
        generate_firewall(construct_fdd(fw_a), guard=guard)
        construct_fdd_fast(fw_a, guard=guard)
        compare_fast(fw_a, fw_b, guard=guard)
        compare_with_bdd(fw_a, fw_b, guard=guard)
        approximate_compare(fw_a, fw_b, samples=10, guard=guard)
        assert set(SITE_DRIVERS) <= set(injector.visits)
