"""Tests for the simplifier (:mod:`repro.simplify`).

The contract under test is the tentpole guarantee: for any imported
policy, ``import -> simplify -> export -> re-import`` preserves the
semantic fingerprint byte-for-byte, and the rule count never grows —
shrinking strictly on redundancy-seeded fixtures.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fdd.canonical import semantic_fingerprint
from repro.fields import standard_schema
from repro.guard import Budget, GuardContext
from repro.policy import ACCEPT, DISCARD, Firewall, Rule, dumps
from repro.policy.frontends import dialect_names, emit_policy, parse_policy
from repro.simplify import SimplifyResult, simplify_firewall, simplify_text
from repro.synth import SyntheticFirewallGenerator

DATA = Path(__file__).resolve().parent.parent / "data" / "frontends"
SCHEMA = standard_schema()

GOLDEN = {
    "iptables": DATA / "golden.iptables",
    "nftables": DATA / "golden.nft",
    "cisco": DATA / "golden.cisco",
    "native": DATA / "golden.native",
}


def synth(seed: int, rules: int = 14) -> Firewall:
    return SyntheticFirewallGenerator(seed=seed).generate(rules, name=f"s{seed}")


class TestSimplifyFirewall:
    @pytest.mark.parametrize("seed", [1, 5, 9, 23, 47])
    def test_corpus_fingerprint_preserved_and_never_grows(self, seed):
        fw = synth(seed)
        result = simplify_firewall(fw)
        assert result.fingerprint == semantic_fingerprint(fw)
        assert result.rules_after <= result.rules_before == len(fw.rules)
        assert semantic_fingerprint(result.firewall) == result.fingerprint

    def test_redundancy_seeded_policy_strictly_shrinks(self):
        fw = Firewall(
            SCHEMA,
            [
                Rule.build(SCHEMA, ACCEPT, dst_port=(0, 1023)),
                Rule.build(SCHEMA, ACCEPT, dst_port=(22, 22)),  # dead
                Rule.build(SCHEMA, ACCEPT, dst_port=(80, 80)),  # dead
                Rule.build(SCHEMA, DISCARD),
            ],
        )
        result = simplify_firewall(fw)
        assert result.reduced
        assert result.removed_dead == 2
        assert result.rules_after == 2

    def test_slim_strategy_preserves_provenance(self):
        fw = Firewall(
            SCHEMA,
            [
                Rule.build(SCHEMA, ACCEPT, dst_port=(0, 1023), comment="keep")
                .with_source_line(7),
                Rule.build(SCHEMA, ACCEPT, dst_port=(80, 80)).with_source_line(8),
                Rule.build(SCHEMA, DISCARD, comment="deny").with_source_line(9),
            ],
        )
        result = simplify_firewall(fw)
        if result.strategy == "slim":
            kept = {rule.source_line for rule in result.firewall.rules}
            assert kept <= {7, 8, 9}
            assert result.firewall.rules[0].comment == "keep"

    def test_summary_shape(self):
        result = simplify_firewall(synth(3))
        summary = result.summary()
        assert set(summary) == {
            "rules_before",
            "rules_after",
            "removed_dead",
            "removed_redundant",
            "strategy",
            "fingerprint",
        }
        assert isinstance(result, SimplifyResult)

    def test_respects_guard_budget(self):
        from repro.exceptions import BudgetExceededError

        with pytest.raises(BudgetExceededError):
            simplify_firewall(
                synth(11, rules=18), guard=GuardContext(Budget(max_nodes=3))
            )

    def test_budget_tripping_in_compaction_sweep_raises(self, monkeypatch):
        """The generation phase's compaction sweep runs under the guard.

        The budget is the node spend of a run whose compaction sweep is
        unguarded, so only a guarded sweep can exceed it.
        """
        from repro.analysis import redundancy
        from repro.exceptions import BudgetExceededError

        fw = synth(11, rules=18)
        sweep = redundancy.remove_redundant_rules
        guarded, outside = GuardContext(), GuardContext()
        simplify_firewall(fw, guard=guarded)
        # Generation imports the sweep from its module at call time.
        monkeypatch.setattr(
            redundancy, "remove_redundant_rules", lambda firewall, guard=None: sweep(firewall)
        )
        simplify_firewall(fw, guard=outside)
        assert guarded.nodes_expanded > outside.nodes_expanded

        tripped = []

        def spy(firewall, guard=None):
            try:
                return sweep(firewall, guard=guard)
            except BudgetExceededError:
                tripped.append(len(firewall))
                raise

        monkeypatch.setattr(redundancy, "remove_redundant_rules", spy)
        budget = Budget(max_nodes=outside.nodes_expanded)
        with pytest.raises(BudgetExceededError):
            simplify_firewall(fw, guard=GuardContext(budget))
        assert tripped, "the budget must trip inside the compaction sweep"


class TestGoldenSimplification:
    @pytest.mark.parametrize("dialect", sorted(GOLDEN))
    def test_golden_strictly_shrinks_with_equal_fingerprint(self, dialect):
        text = GOLDEN[dialect].read_text()
        fw = parse_policy(text, dialect).to_firewall()
        emitted, result = simplify_text(
            text, from_dialect=dialect, to_dialect=dialect
        )
        assert result.reduced, f"{dialect} golden did not shrink"
        back = parse_policy(emitted, dialect).to_firewall()
        assert semantic_fingerprint(back) == semantic_fingerprint(fw)


class TestRoundTripMatrix:
    """Satellite: import -> simplify -> export -> re-import preserves the
    semantic fingerprint for every dialect pair."""

    @pytest.mark.parametrize("seed", [2, 13, 31])
    @pytest.mark.parametrize("to_dialect", sorted(dialect_names()))
    def test_synth_corpus_pairwise(self, seed, to_dialect):
        fw = synth(seed, rules=10)
        source = dumps(fw, schema_key="standard")
        emitted, result = simplify_text(
            source, from_dialect="native", to_dialect=to_dialect
        )
        back = parse_policy(emitted, to_dialect).to_firewall()
        assert semantic_fingerprint(back) == result.fingerprint
        assert result.fingerprint == semantic_fingerprint(fw)

    @pytest.mark.parametrize("from_dialect", sorted(GOLDEN))
    @pytest.mark.parametrize("to_dialect", sorted(dialect_names()))
    def test_golden_pairwise(self, from_dialect, to_dialect):
        text = GOLDEN[from_dialect].read_text()
        fw = parse_policy(text, from_dialect).to_firewall()
        if to_dialect == "cisco" and fw.schema != SCHEMA:
            pytest.skip("Cisco ACLs cannot express connection state")
        emitted, result = simplify_text(
            text, from_dialect=from_dialect, to_dialect=to_dialect
        )
        assert result.rules_after <= result.rules_before
        back = parse_policy(emitted, to_dialect).to_firewall()
        assert semantic_fingerprint(back) == result.fingerprint


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    rules=st.integers(min_value=1, max_value=12),
    to_dialect=st.sampled_from(sorted(dialect_names())),
)
def test_property_round_trip_preserves_fingerprint(seed, rules, to_dialect):
    fw = SyntheticFirewallGenerator(seed=seed).generate(rules, name="prop")
    source = dumps(fw, schema_key="standard")
    emitted, result = simplify_text(
        source, from_dialect="native", to_dialect=to_dialect
    )
    back = parse_policy(emitted, to_dialect).to_firewall()
    assert result.rules_after <= len(fw.rules)
    assert semantic_fingerprint(back) == semantic_fingerprint(fw)
