"""Tests for the iptables / Cisco-ACL backends (via ``emit_policy``)."""

import pytest

from repro.exceptions import PolicyError
from repro.fields import standard_schema, toy_schema
from repro.policy import (
    ACCEPT,
    ACCEPT_LOG,
    DISCARD,
    Firewall,
    Rule,
    emit_policy,
)

SCHEMA = standard_schema()


def fw(*rules, **kwargs):
    return Firewall(SCHEMA, rules, **kwargs)


def r(decision, comment="", **conjuncts):
    return Rule.build(SCHEMA, decision, comment, **conjuncts)


BASIC = fw(
    r(DISCARD, "malicious", src_ip="224.168.0.0/16"),
    r(ACCEPT, "smtp in", dst_ip="192.168.0.1", dst_port=25, protocol="tcp"),
    r(ACCEPT),
    name="edge policy",
)


class TestIptables:
    def test_structure(self):
        text = emit_policy(BASIC, "iptables")
        lines = text.strip().splitlines()
        assert lines[0] == "*filter"
        assert lines[1] == ":FORWARD ACCEPT [0:0]"
        assert lines[-1] == "COMMIT"

    def test_catchall_becomes_policy(self):
        text = emit_policy(fw(r(DISCARD)), "iptables")
        assert ":FORWARD DROP" in text
        assert "-A FORWARD" not in text  # no per-rule lines needed

    def test_rule_rendering(self):
        text = emit_policy(BASIC, "iptables")
        assert "-s 224.168.0.0/16" in text
        assert "-d 192.168.0.1" in text or "-d 192.168.0.1/32" in text
        assert "-p tcp" in text and "--dport 25" in text
        assert '--comment "malicious"' in text

    def test_port_without_protocol_expands(self):
        text = emit_policy(fw(r(DISCARD, dst_port=53), r(ACCEPT)), "iptables")
        assert "-p tcp" in text and "-p udp" in text

    def test_port_range(self):
        policy = fw(r(DISCARD, dst_port="1024-2048", protocol="tcp"), r(ACCEPT))
        text = emit_policy(policy, "iptables")
        assert "--dport 1024:2048" in text

    def test_log_decision_adds_log_target(self):
        policy = fw(r(ACCEPT_LOG, src_ip="10.0.0.0/8"), r(DISCARD))
        text = emit_policy(policy, "iptables")
        assert "-j LOG" in text and "-j ACCEPT" in text

    def test_ports_skipped_for_non_port_protocols(self):
        # icmp with a dport constraint: no valid line can be emitted.
        policy = fw(r(DISCARD, dst_port=8, protocol="icmp"), r(ACCEPT))
        text = emit_policy(policy, "iptables")
        assert "-p icmp" not in text

    def test_chain_override(self):
        text = emit_policy(BASIC, "iptables", chain="INPUT")
        assert ":INPUT ACCEPT" in text and "-A INPUT" in text

    def test_requires_standard_schema(self):
        other = toy_schema(9, 9)
        alien = Firewall(other, [Rule.build(other, ACCEPT)])
        with pytest.raises(PolicyError):
            emit_policy(alien, "iptables")

    def test_multi_interval_sources_expand(self):
        rule = r(DISCARD, src_ip="10.0.0.0/8, 172.16.0.0/12")
        text = emit_policy(fw(rule, r(ACCEPT)), "iptables")
        assert "-s 10.0.0.0/8" in text and "-s 172.16.0.0/12" in text


class TestCiscoAcl:
    def test_structure(self):
        text = emit_policy(BASIC, "cisco")
        lines = text.strip().splitlines()
        assert lines[0] == "ip access-list extended edge_policy"
        assert lines[-1].strip().startswith("permit ip any any")

    def test_wildcard_masks(self):
        text = emit_policy(BASIC, "cisco")
        assert "deny ip 224.168.0.0 0.0.255.255 any" in text

    def test_host_and_eq(self):
        text = emit_policy(BASIC, "cisco")
        assert "permit tcp any host 192.168.0.1 eq 25" in text

    def test_range(self):
        policy = fw(r(DISCARD, dst_port="1024-2048", protocol="tcp"), r(ACCEPT))
        text = emit_policy(policy, "cisco")
        assert "range 1024 2048" in text

    def test_remark_from_comment(self):
        text = emit_policy(BASIC, "cisco")
        assert "remark malicious" in text

    def test_log_option(self):
        text = emit_policy(fw(r(ACCEPT_LOG, src_ip="10.0.0.0/8"), r(DISCARD)), "cisco")
        assert " log" in text

    def test_name_override(self):
        text = emit_policy(BASIC, "cisco", name="EDGE")
        assert "ip access-list extended EDGE" in text

    def test_requires_standard_schema(self):
        other = toy_schema(9, 9)
        alien = Firewall(other, [Rule.build(other, ACCEPT)])
        with pytest.raises(PolicyError):
            emit_policy(alien, "cisco")
