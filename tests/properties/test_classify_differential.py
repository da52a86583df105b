"""Differential fuzz: the compiled classifier vs both interpreted engines.

The standing corpus drives >= 100,000 packets through three independent
implementations of the same semantics — the flat-array matcher (its
``classify_batch`` route and, where numpy is installed, the vectorized
kernel driven explicitly, since each corpus entry is below the batch
size that builds it), ``FDD.evaluate`` on the reduced diagram, and
first-match ``Firewall.evaluate`` — and requires exact agreement on
every packet.  Half of each firewall's packets are uniform draws; the
other half are boundary packets (rule-interval endpoints +/- 1), where
off-by-one compilation bugs actually live.
"""

from repro.classify import compile_fdd
from repro.fdd.fast import construct_fdd_fast
from repro.fields import PacketSampler
from repro.synth import SyntheticFirewallGenerator

#: (rules, packets) per corpus entry; the packet counts sum past the
#: 100k floor asserted below so the suite can't silently shrink.
CORPUS = ((20, 40_000), (60, 35_000), (150, 30_000))


def _boundary_pools(firewall):
    """Per-field pools of rule-interval endpoints and their neighbours."""
    pools = [set() for _ in firewall.schema]
    for rule in firewall:
        for index, values in enumerate(rule.predicate.sets):
            for interval in values.intervals:
                pools[index].update(
                    (interval.lo - 1, interval.lo, interval.hi, interval.hi + 1)
                )
    return [sorted(pool) for pool in pools]


def test_compiled_vs_fdd_vs_firewall_on_100k_packets():
    total = 0
    for seed, (rules, num_packets) in enumerate(CORPUS, start=100):
        firewall = SyntheticFirewallGenerator(seed=seed).generate(rules)
        fdd = construct_fdd_fast(firewall)
        matcher = compile_fdd(fdd)
        sampler = PacketSampler(firewall.schema, seed=seed)
        pools = _boundary_pools(firewall)
        packets = sampler.uniform_many(num_packets // 2) + [
            sampler.near_boundaries(pools) for _ in range(num_packets // 2)
        ]
        compiled = matcher.classify_batch(packets)
        kernel = matcher.batch_kernel()
        if kernel is not None:
            assert kernel.classify_batch(packets) == compiled, (
                f"kernel vs classify_batch mismatch (rules={rules}, seed={seed})"
            )
        for packet, decision in zip(packets, compiled):
            assert decision == fdd.evaluate(packet), (
                f"compiled vs FDD mismatch at {tuple(packet)}"
                f" (rules={rules}, seed={seed})"
            )
            assert decision == firewall.evaluate(packet), (
                f"compiled vs firewall mismatch at {tuple(packet)}"
                f" (rules={rules}, seed={seed})"
            )
        total += len(packets)
    assert total >= 100_000
