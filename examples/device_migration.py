#!/usr/bin/env python3
"""Device migration audit: prove an iptables -> Cisco rewrite is faithful.

A realistic diverse-design scenario the paper's machinery nails: a
gateway's iptables policy must move to a Cisco router.  One engineer
rewrites the config by hand; the comparison pipeline then proves the
rewrite equivalent — or lists exactly the traffic it changed.

The script imports both configs (``parse_policy``), compares
them, shows the (deliberately injected) migration mistake, fixes it by
patching, and exports the verified result back to Cisco syntax
(``emit_policy``).

Run:  python examples/device_migration.py
"""

from repro import compare_firewalls, aggregate_discrepancies, format_discrepancy_table
from repro.analysis import prefer_team, resolve_by_corrected_fdd
from repro.fdd import semantic_fingerprint
from repro.policy import emit_policy, parse_policy

IPTABLES_CONFIG = """
*filter
:FORWARD DROP [0:0]
-A FORWARD -s 224.168.0.0/16 -j DROP -m comment --comment "malicious domain"
-A FORWARD -p tcp -d 192.168.0.1/32 --dport 25 -j ACCEPT -m comment --comment "smtp"
-A FORWARD -p tcp -d 192.168.0.2/32 --dport 443 -j ACCEPT -m comment --comment "https"
-A FORWARD -p udp -d 192.168.0.3/32 --dport 53 -j ACCEPT -m comment --comment "dns"
-A FORWARD -s 10.0.0.0/8 -j ACCEPT -m comment --comment "lan egress"
COMMIT
"""

# The hand migration: the engineer typo'd the DNS host (0.3 -> 0.4) and
# forgot that the https rule should cover TCP only on 443 (wrote 8443).
CISCO_CONFIG = """
ip access-list extended GATEWAY
 remark malicious domain
 deny ip 224.168.0.0 0.0.255.255 any
 remark smtp
 permit tcp any host 192.168.0.1 eq 25
 remark https (typo: wrong port)
 permit tcp any host 192.168.0.2 eq 8443
 remark dns (typo: wrong host)
 permit udp any host 192.168.0.4 eq 53
 remark lan egress
 permit ip 10.0.0.0 0.255.255.255 any
"""


def main() -> None:
    old = parse_policy(IPTABLES_CONFIG, "iptables", name="iptables gateway").to_firewall()
    new = parse_policy(CISCO_CONFIG, "cisco", name="cisco draft").to_firewall()

    print(f"fingerprints: old={semantic_fingerprint(old)[:16]}..."
          f" new={semantic_fingerprint(new)[:16]}...")
    raw = compare_firewalls(old, new)
    if not raw:
        print("rewrite is faithful; ship it")
        return

    merged = aggregate_discrepancies(raw)
    print(f"\nmigration changed {len(merged)} region(s) of traffic:")
    print(format_discrepancy_table(merged, name_a="iptables", name_b="cisco draft"))

    # Resolution: the iptables policy is the source of truth — resolve
    # every discrepancy toward it and regenerate a compact config from
    # the corrected FDD (Section 6, Method 1).
    raw_new_vs_old = compare_firewalls(new, old)
    fixed = resolve_by_corrected_fdd(
        new, old, prefer_team(raw_new_vs_old, "b"), name="cisco fixed"
    )
    assert not compare_firewalls(old, fixed)
    print("\nafter patching, the draft is provably equivalent to the source:")
    print(f"  fingerprint(old)   = {semantic_fingerprint(old)[:16]}...")
    print(f"  fingerprint(fixed) = {semantic_fingerprint(fixed)[:16]}...")
    print("\nverified Cisco configuration:")
    print(emit_policy(fixed, "cisco", name="GATEWAY"))


if __name__ == "__main__":
    main()
