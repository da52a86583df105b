"""Micro-benchmarks of the substrates the pipeline's constants live in.

Not a paper figure: these keep the building blocks honest so regressions
in interval algebra, construction, evaluation, or generation show up
before they distort the figure-level benchmarks.
"""

from __future__ import annotations

import random
import time

from repro.analysis.aggregate import aggregate_discrepancies
from repro.analysis.discrepancy import format_discrepancy_table
from repro.analysis.impact import ChangeImpactReport, analyze_change
from repro.analysis.redundancy import remove_redundant_rules
from repro.bench import bench_scale
from repro.bench.trajectory import effective_cores
from repro.fdd import compare_firewalls, construct_fdd, generate_firewall, reduce_fdd
from repro.fdd.canonical import fingerprint_canonical, semantic_fingerprint
from repro.fdd.fast import compare_fast, construct_fdd_fast
from repro.fdd.store import NodeStore
from repro.fields import PacketSampler
from repro.intervals import IntervalSet
from repro.simplify import simplify_firewall
from repro.synth import SyntheticFirewallGenerator, average_42, generate_firewall_pair

from tests.conftest import candidate_remove


def _random_sets(count: int, seed: int) -> list[IntervalSet]:
    rng = random.Random(seed)
    sets = []
    for _ in range(count):
        spans = []
        for _ in range(rng.randint(1, 5)):
            lo = rng.randrange(0, 1 << 16)
            spans.append((lo, lo + rng.randrange(0, 1 << 12)))
        sets.append(IntervalSet.of(*spans))
    return sets


def test_bench_intervalset_algebra(benchmark):
    sets = _random_sets(200, seed=3)

    def work():
        acc = sets[0]
        for values in sets[1:]:
            acc = (acc | values) - sets[len(acc.intervals) % len(sets)]
        return acc

    benchmark(work)


def test_bench_construct_reference_42(benchmark):
    firewall = average_42()
    benchmark(lambda: construct_fdd(firewall))


def test_bench_construct_fast_300(benchmark):
    firewall = SyntheticFirewallGenerator(seed=23).generate(300)
    benchmark(lambda: construct_fdd_fast(firewall))


def test_bench_fdd_evaluation(benchmark):
    firewall = SyntheticFirewallGenerator(seed=29).generate(200)
    fdd = construct_fdd_fast(firewall)
    packets = PacketSampler(firewall.schema, seed=29).uniform_many(1000)
    benchmark(lambda: [fdd.evaluate(p) for p in packets])


def test_bench_firewall_evaluation(benchmark):
    firewall = SyntheticFirewallGenerator(seed=29).generate(200)
    packets = PacketSampler(firewall.schema, seed=29).uniform_many(100)
    benchmark(lambda: [firewall(p) for p in packets])


def test_bench_generate_compact_firewall(benchmark):
    firewall = average_42()
    fdd = reduce_fdd(construct_fdd(firewall))
    benchmark(lambda: generate_firewall(fdd, reduce=False, compact=False))


def _best_ms(work, *, rounds: int = 3) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        work()
        best = min(best, (time.perf_counter() - start) * 1000.0)
    return best


def test_bench_interval_kernel(benchmark, json_saver):
    """The interned kernel vs direct interval algebra, plus the merge
    sweeps — writes the committed trajectory anchor ``BENCH_micro.json``.

    The kernel workload replays the label-algebra mix the FDD engine
    issues (intersect/union/subtract over a recurring label population —
    exactly the regime the id-keyed memo exists for); the direct variant
    runs the same calls through the raw :class:`IntervalSet` methods.
    """
    sets = _random_sets(120, seed=7)
    pairs = [
        (sets[i], sets[(i * 7 + 3) % len(sets)]) for i in range(len(sets))
    ] * 40

    def direct():
        for a, b in pairs:
            a.intersect(b)
            a.union(b)
            a.subtract(b)

    def interned():
        store = NodeStore()
        for a, b in pairs:
            store.intersect(a, b)
            store.union(a, b)
            store.subtract(a, b)

    direct_ms = _best_ms(direct)
    interned_ms = _best_ms(interned)

    # union's linear merge sweep and from_values' run-length merge.
    union_ops = [(sets[i], sets[-1 - i]) for i in range(len(sets) // 2)] * 20
    union_ms = _best_ms(lambda: [a.union(b) for a, b in union_ops])
    rng = random.Random(11)
    values = [rng.randrange(0, 1 << 18) for _ in range(1 << 16)]
    from_values_ms = _best_ms(lambda: IntervalSet.from_values(values))

    # Engine-level effect: one full fast comparison (shared interned store).
    size = 500
    fw_a, fw_b = generate_firewall_pair(size, seed=13)
    disputed = compare_fast(fw_a, fw_b).disputed_packet_count()
    compare_ms = _best_ms(lambda: compare_fast(fw_a, fw_b), rounds=2)

    json_saver(
        "micro_kernel",
        [
            {"key": "kernel-algebra-direct", "total_ms": direct_ms},
            {
                "key": "kernel-algebra-interned",
                "total_ms": interned_ms,
                "speedup_vs_direct": direct_ms / interned_ms if interned_ms else 0.0,
            },
            {"key": "intervalset-union-merge", "total_ms": union_ms},
            {"key": "intervalset-from-values-64k", "total_ms": from_values_ms},
            {
                "key": f"compare-fast-n{size}",
                "total_ms": compare_ms,
                "disputed_packets": disputed,
            },
        ],
        meta={"pairs": len(pairs), "seed": 7},
        anchor="micro",
    )
    assert interned_ms < direct_ms * 1.5  # the memo must not cost more than it saves
    benchmark(interned)


def test_bench_store_engines(benchmark, json_saver):
    """Store-backed reduce/fingerprint/impact vs the paper-literal tree
    pipeline, redundancy removal vs the per-candidate oracle, plus
    construction alone (the rule-by-rule fold and partition
    construction), the verified simplifier and aggregation with
    rendering — writes the committed trajectory anchor
    ``BENCH_store.json``.

    The issue's acceptance bar lives here: at paper scale the
    store-backed ``semantic_fingerprint`` and ``analyze_change`` must
    beat the seed tree pipeline by >= 2x on a 1,000-rule synthetic
    policy, and the answers must agree exactly.  The tree-impact side is
    measured at a smaller size whose time lower-bounds the full-size
    time (see the inline comment), so the recorded ``speedup_vs_tree``
    is itself a lower bound.  Row keys are scale-independent (the size
    is recorded as a ``rules`` field), so a quick-scale smoke run can
    still be checked against the committed anchor for parity
    (``engines_agree``) and gross regressions.
    """
    size = 1000 if bench_scale() == "paper" else 120
    fw_a, fw_b = generate_firewall_pair(size, seed=13)

    def _timed_once(work):
        start = time.perf_counter()
        result = work()
        return result, (time.perf_counter() - start) * 1000.0

    # The tree-pipeline sides take minutes at paper scale: run each
    # exactly once and reuse the result for the parity checks.
    store_fp_ms = _best_ms(lambda: semantic_fingerprint(fw_a))
    tree_fp, tree_fp_ms = _timed_once(
        lambda: fingerprint_canonical(reduce_fdd(construct_fdd(fw_a)))
    )
    fp_agree = semantic_fingerprint(fw_a) == tree_fp

    # Impact: the store side runs at full size; the tree side runs at a
    # tree-feasible size (the reference 3-phase pipeline on independent
    # policy pairs grows super-linearly — n=120 already takes ~80 s —
    # so its time there is a strict lower bound for the full-size time,
    # keeping the >=2x assertion below conservative).
    tree_cmp_size = 120 if bench_scale() == "paper" else 60
    if tree_cmp_size == size:
        cmp_a, cmp_b = fw_a, fw_b
    else:
        cmp_a, cmp_b = generate_firewall_pair(tree_cmp_size, seed=13)
    # Construction alone: both sides of the pair built in one store, the
    # way every comparison starts.  Label ops (the op-memo size) predict
    # its cost, so they are recorded next to the time.
    def construct_pair():
        store = NodeStore()
        return store, store.construct(fw_a), store.construct(fw_b)

    construct_ms = _best_ms(construct_pair)
    pair_store, pair_fdd_a, _ = construct_pair()
    construct_agree = fingerprint_canonical(pair_fdd_a) == tree_fp

    # Partition construction of the same pair in one store: the route
    # the comparison commands take.  Its counters are the final
    # diagrams' allocations (the fold's include every per-rule
    # intermediate); then the fold in the same store must return the
    # very same roots.
    def build_pair():
        store = NodeStore()
        return store, store.build(fw_a), store.build(fw_b)

    partition_ms = _best_ms(build_pair)
    part_store, part_a, part_b = build_pair()
    part_nodes, part_edges = part_store.nodes_created, part_store.edges_created
    partition_agree = (
        part_a.root is part_store.construct(fw_a).root
        and part_b.root is part_store.construct(fw_b).root
    )

    _, store_impact_ms = _timed_once(lambda: analyze_change(fw_a, fw_b))
    tree_impact, tree_impact_ms = _timed_once(
        lambda: ChangeImpactReport(
            before=cmp_a,
            after=cmp_b,
            discrepancies=aggregate_discrepancies(compare_firewalls(cmp_a, cmp_b)),
        )
    )
    impact_agree = (
        analyze_change(cmp_a, cmp_b).affected_packets()
        == tree_impact.affected_packets()
    )

    # Reduction = interning a mutable reference tree into a fresh store.
    # Measured at a smaller size: the *unshared* input tree (not the
    # reduction) grows super-linearly in rule count.
    reduce_size = 300 if bench_scale() == "paper" else 120
    reduce_fw, _ = generate_firewall_pair(reduce_size, seed=13)
    tree = construct_fdd(reduce_fw)
    reduce_ms = _best_ms(lambda: reduce_fdd(tree))

    # Complete redundancy removal: forward prefixes, backward suffixes
    # and one walk per rule, against the per-candidate oracle (one
    # construction per candidate removal) kept in the test suite.
    redundancy_size = 80 if bench_scale() == "paper" else 40
    redundancy_fw = SyntheticFirewallGenerator(seed=redundancy_size).generate(
        redundancy_size
    )
    slim = remove_redundant_rules(redundancy_fw)
    redundancy_ms = _best_ms(lambda: remove_redundant_rules(redundancy_fw))
    oracle_slim, oracle_ms = _timed_once(lambda: candidate_remove(redundancy_fw))
    redundancy_agree = slim.rules == oracle_slim.rules

    # The verified simplifier on the same policy; the tree pipeline's
    # fingerprint of its output must equal the input's.
    simplified = simplify_firewall(redundancy_fw)
    simplify_ms = _best_ms(lambda: simplify_firewall(redundancy_fw))
    simplify_agree = (
        fingerprint_canonical(reduce_fdd(construct_fdd(simplified.firewall)))
        == fingerprint_canonical(reduce_fdd(construct_fdd(redundancy_fw)))
    )

    # Aggregation and rendering: what ``compare`` and ``impact`` do after
    # the product walk, on one 300-rule pair at every scale, so the
    # region count is an exact field of the row.  Seed 1 gives 421
    # regions, in the band of the design-diff pairs (seed 13 gives 78);
    # tests/integration/test_design_diff_pins.py pins its stdout.
    render_size, render_seed = 300, 1
    render_a, render_b = generate_firewall_pair(render_size, seed=render_seed)
    cells = compare_fast(render_a, render_b).discrepancies()

    def aggregate_and_render():
        regions = aggregate_discrepancies(cells)
        report = ChangeImpactReport(before=render_a, after=render_b, discrepancies=regions)
        return regions, format_discrepancy_table(regions), report.render()

    render_ms = _best_ms(aggregate_and_render)
    regions = aggregate_and_render()[0]

    json_saver(
        "store_engines",
        [
            {
                "key": "fingerprint-store",
                "total_ms": store_fp_ms,
                "rules": size,
                "engines_agree": int(fp_agree),
                "speedup_vs_tree": tree_fp_ms / store_fp_ms if store_fp_ms else 0.0,
            },
            {"key": "fingerprint-tree", "total_ms": tree_fp_ms, "rules": size},
            {
                "key": "construct-store",
                "total_ms": construct_ms,
                "rules": size,
                "label_ops": pair_store.stats()["op_memo"],
                "nodes": pair_store.nodes_created,
                "edges": pair_store.edges_created,
                "engines_agree": int(construct_agree),
            },
            {
                "key": "partition-store",
                "total_ms": partition_ms,
                "rules": size,
                "nodes": part_nodes,
                "edges": part_edges,
                "engines_agree": int(partition_agree),
            },
            {
                "key": "impact-store",
                "total_ms": store_impact_ms,
                "rules": size,
                "engines_agree": int(impact_agree),
                "speedup_vs_tree": (
                    tree_impact_ms / store_impact_ms if store_impact_ms else 0.0
                ),
            },
            {"key": "impact-tree", "total_ms": tree_impact_ms, "rules": tree_cmp_size},
            {"key": "reduce-store", "total_ms": reduce_ms, "rules": reduce_size},
            {
                "key": "redundancy-store",
                "total_ms": redundancy_ms,
                "rules": redundancy_size,
                "rules_after": len(slim),
                "engines_agree": int(redundancy_agree),
                "speedup_vs_candidate": (
                    oracle_ms / redundancy_ms if redundancy_ms else 0.0
                ),
            },
            {
                "key": "redundancy-candidate",
                "total_ms": oracle_ms,
                "rules": redundancy_size,
            },
            {
                "key": "simplify-store",
                "total_ms": simplify_ms,
                "rules": redundancy_size,
                "rules_after": simplified.rules_after,
                "engines_agree": int(simplify_agree),
            },
            {
                "key": "render-store",
                "total_ms": render_ms,
                "rules": render_size,
                "seed": render_seed,
                "cells": len(cells),
                "regions": len(regions),
            },
        ],
        meta={
            "rules": size,
            "seed": 13,
            "scale": bench_scale(),
            "effective_cores": effective_cores(),
        },
        anchor="store",
    )
    assert fp_agree and impact_agree and redundancy_agree
    assert construct_agree and partition_agree and simplify_agree
    assert store_fp_ms * 2 <= tree_fp_ms
    assert store_impact_ms * 2 <= tree_impact_ms
    benchmark(lambda: semantic_fingerprint(fw_a))
