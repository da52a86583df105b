"""Cross-engine agreement: the store engine vs the paper-literal pipeline.

Every store-backed algorithm must agree exactly with its mutable-tree
reference implementation — the reference *is* the paper's pseudocode, so
agreement is the correctness argument for the store engine.  Production
code runs only the store engine; these tests call the reference pipeline
(``construct_fdd``, ``reduce_fdd``, ``make_semi_isomorphic`` /
``compare_firewalls``, ``append_rule``) directly as the oracle.  Two
layers:

* Hypothesis properties over random firewalls (small schemas, brute-force
  checkable);
* deterministic runs over the synthetic corpus
  (:func:`repro.synth.generate_firewall_pair` + Fig. 12 perturbation),
  which produces the realistic near-duplicate pairs the fingerprint
  satellite requires.
"""

from hypothesis import given, settings

from repro.fields import toy_schema
from repro.policy import Firewall
from repro.analysis.effective import effective_rules
from repro.analysis.equivalence import disputed_packet_count, equivalent
from repro.analysis.impact import ChangeImpactReport, analyze_change
from repro.fdd.canonical import canonical_fdd, fingerprint_canonical, semantic_fingerprint
from repro.fdd.comparison import compare_firewalls
from repro.fdd.construction import append_rule, build_decision_path, construct_fdd
from repro.fdd.fast import compare_fast
from repro.fdd.fdd import FDD
from repro.fdd.generation import generate_firewall
from repro.fdd.marking import mark_fdd, node_load
from repro.fdd.node import TerminalNode, iter_nodes
from repro.fdd.reduce import reduce_fdd
from repro.fdd.store import NodeStore
from repro.synth import generate_firewall_pair, perturb

from tests.conftest import firewalls

SCHEMA = toy_schema(19, 9)


def reference_canonical(fw: Firewall) -> FDD:
    """The paper-literal canonical diagram: tree construction + reduction."""
    return reduce_fdd(construct_fdd(fw))


def reference_fingerprint(fw: Firewall) -> str:
    return fingerprint_canonical(reference_canonical(fw))


def reference_effective(fw: Firewall) -> tuple[list[bool], frozenset]:
    """Effective-rule vector and taken decisions by mutable-tree append."""
    first = fw.rules[0]
    fdd = FDD(fw.schema, build_decision_path(fw.schema, first.predicate.sets, first.decision, 0))
    effective = [True] + [append_rule(fdd, rule) for rule in fw.rules[1:]]
    taken = frozenset(
        node.decision for node in iter_nodes(fdd.root) if isinstance(node, TerminalNode)
    )
    return effective, taken


def assert_effective_agrees(fw: Firewall) -> None:
    fast = effective_rules(fw)
    effective, taken = reference_effective(fw)
    assert [rule.effective for rule in fast.rules] == effective
    assert fast.decisions_taken == taken


# ----------------------------------------------------------------------
# The fingerprint satellite: fingerprint equality <=> no discrepancies
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(firewalls(SCHEMA, max_rules=5), firewalls(SCHEMA, max_rules=5))
def test_fingerprint_equality_iff_no_discrepancies(fw_a, fw_b):
    same_print = semantic_fingerprint(fw_a) == semantic_fingerprint(fw_b)
    clean = not compare_fast(fw_a, fw_b).has_discrepancy()
    assert same_print == clean
    # One store interns each canonical diagram once, so root identity is
    # equivalence too (the complete-redundancy check relies on this).
    store = NodeStore()
    same_root = store.construct(fw_a).root is store.construct(fw_b).root
    assert same_root == clean


@settings(max_examples=40, deadline=None)
@given(firewalls(SCHEMA, max_rules=5, include_log=True))
def test_fingerprint_engines_agree(fw):
    assert semantic_fingerprint(fw) == reference_fingerprint(fw)


def test_fingerprint_on_perturbed_near_duplicates():
    base, _ = generate_firewall_pair(60, seed=21)
    for seed in range(5):
        near, record = perturb(base, 0.1, seed=seed, y=0.5)
        same_print = semantic_fingerprint(base) == semantic_fingerprint(near)
        diff = compare_fast(base, near)
        assert same_print == (not diff.has_discrepancy())
        # Perturbation that flipped or deleted nothing must fingerprint equal.
        if not record.flipped and not record.deleted:
            assert same_print


# ----------------------------------------------------------------------
# Store-backed algorithms vs the reference pipeline (synth corpus)
# ----------------------------------------------------------------------


def _corpus() -> list[tuple[Firewall, Firewall]]:
    pairs = [generate_firewall_pair(40, seed=s) for s in (3, 7)]
    base, _ = generate_firewall_pair(50, seed=11)
    near, _ = perturb(base, 0.2, seed=4, y=0.5)
    pairs.append((base, near))
    return pairs


def test_canonical_engines_produce_identical_diagrams():
    for fw_a, fw_b in _corpus():
        for fw in (fw_a, fw_b):
            fast = canonical_fdd(fw)
            ref = reference_canonical(fw)
            fast.validate()
            assert fast.stats() == ref.stats()
            assert semantic_fingerprint(fw) == fingerprint_canonical(ref)


def test_equivalence_engines_agree_on_corpus():
    for fw_a, fw_b in _corpus():
        cells = compare_firewalls(fw_a, fw_b)
        assert equivalent(fw_a, fw_b) == (not cells)
        assert disputed_packet_count(fw_a, fw_b) == sum(cell.size() for cell in cells)
        assert equivalent(fw_a, fw_a)


def test_effective_engines_agree_on_corpus():
    for fw_a, fw_b in _corpus():
        for fw in (fw_a, fw_b):
            assert_effective_agrees(fw)


def test_impact_engines_agree_on_corpus():
    for fw_a, fw_b in _corpus():
        fast = analyze_change(fw_a, fw_b)
        ref = ChangeImpactReport(fw_a, fw_b, compare_firewalls(fw_a, fw_b))
        assert fast.affected_packets() == ref.affected_packets()
        # Cell decompositions may differ between engines; the per-kind
        # packet volumes are the semantic quantity and must match exactly.
        fast_kinds = {
            kind: sum(d.size() for d in discs)
            for kind, discs in fast.by_kind().items()
        }
        ref_kinds = {
            kind: sum(d.size() for d in discs)
            for kind, discs in ref.by_kind().items()
        }
        assert fast_kinds == ref_kinds


def test_impact_jobs_path_agrees_with_serial():
    fw_a, fw_b = generate_firewall_pair(40, seed=3)
    serial = analyze_change(fw_a, fw_b)
    sharded = analyze_change(fw_a, fw_b, jobs=2)
    assert sharded.affected_packets() == serial.affected_packets()


def test_marking_and_generation_round_trip_on_store_diagrams():
    for fw_a, _ in _corpus():
        canon = canonical_fdd(fw_a)
        marking = mark_fdd(canon)
        assert node_load(canon.root, marking) >= 1
        regenerated = generate_firewall(canon, compact=False)
        assert equivalent(fw_a, regenerated)


@settings(max_examples=40, deadline=None)
@given(firewalls(SCHEMA, max_rules=4, include_log=True))
def test_effective_engines_agree_property(fw):
    assert_effective_agrees(fw)


@settings(max_examples=40, deadline=None)
@given(firewalls(SCHEMA, max_rules=4), firewalls(SCHEMA, max_rules=4))
def test_equivalence_engines_agree_property(fw_a, fw_b):
    assert equivalent(fw_a, fw_b) == (not compare_firewalls(fw_a, fw_b))
