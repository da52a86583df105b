"""Tests for the iptables / Cisco / nftables frontends, incl. emit round trips."""

import pytest

from repro.analysis import equivalent
from repro.exceptions import ParseError
from repro.policy import ACCEPT, ACCEPT_LOG, DISCARD, emit_policy, parse_policy
from repro.fields import standard_schema
from repro.synth import SyntheticFirewallGenerator

SCHEMA = standard_schema()


def _import(text, dialect):
    return parse_policy(text, dialect).to_firewall()


class TestFromIptables:
    TEXT = """
    *filter
    :FORWARD DROP [0:0]
    -A FORWARD -s 224.168.0.0/16 -j DROP
    -A FORWARD -p tcp -d 192.168.0.1/32 --dport 25 -j ACCEPT -m comment --comment "smtp in"
    -A FORWARD -p udp --dport 53 -j ACCEPT
    COMMIT
    """

    def test_parses_rules_and_policy(self):
        fw = _import(self.TEXT, "iptables")
        assert len(fw) == 4  # 3 rules + chain policy catch-all
        assert fw.rules[-1].decision == DISCARD
        assert fw.rules[1].comment == "smtp in"

    def test_semantics(self):
        from repro.addr import ip_to_int

        fw = _import(self.TEXT, "iptables")
        mail = ip_to_int("192.168.0.1")
        bad = ip_to_int("224.168.3.4")
        assert fw((1, mail, 40000, 25, 6)) == ACCEPT
        assert fw((bad, mail, 40000, 25, 6)) == DISCARD
        assert fw((1, 2, 40000, 53, 17)) == ACCEPT
        assert fw((1, 2, 40000, 53, 6)) == DISCARD  # tcp dns not allowed

    def test_port_ranges(self):
        fw = _import(
            ":FORWARD ACCEPT [0:0]\n-A FORWARD -p tcp --dport 1024:2048 -j DROP\n",
            "iptables",
        )
        assert fw((1, 2, 3, 1500, 6)) == DISCARD
        assert fw((1, 2, 3, 80, 6)) == ACCEPT

    def test_other_chains_ignored(self):
        fw = _import(
            ":FORWARD ACCEPT [0:0]\n-A INPUT -s 10.0.0.0/8 -j DROP\n",
            "iptables",
        )
        assert len(fw) == 1  # just the policy catch-all

    def test_log_then_accept_folds(self):
        text = (
            ":FORWARD DROP [0:0]\n"
            "-A FORWARD -s 10.0.0.0/8 -j LOG\n"
            "-A FORWARD -s 10.0.0.0/8 -j ACCEPT\n"
        )
        fw = _import(text, "iptables")
        assert fw.rules[0].decision == ACCEPT_LOG

    @pytest.mark.parametrize(
        "bad",
        [
            "-A FORWARD -s 10.0.0.0/8",                   # no target
            "-A FORWARD --frobnicate 3 -j ACCEPT",        # unknown flag
            "-A FORWARD -j TEE",                          # unknown target
            "-A FORWARD -p sctp -j ACCEPT",               # unsupported proto
            "iptables is fun",                            # not a rule
        ],
    )
    def test_rejects_unsupported(self, bad):
        with pytest.raises(ParseError):
            _import(bad, "iptables")

    def test_export_import_round_trip(self):
        original = SyntheticFirewallGenerator(seed=61).generate(25)
        # Logged decisions don't survive the LOG-line folding heuristic in
        # general, and the generator doesn't emit them anyway.
        text = emit_policy(original, "iptables")
        again = _import(text, "iptables")
        assert equivalent(original, again)


class TestFromCisco:
    TEXT = """
    ip access-list extended EDGE
     remark malicious domain
     deny ip 224.168.0.0 0.0.255.255 any
     permit tcp any host 192.168.0.1 eq 25
     permit udp any any range 33434 33534
     permit ip any any
    """

    def test_parses(self):
        fw = _import(self.TEXT, "cisco")
        assert fw.name == "EDGE"
        assert len(fw) == 5  # 4 statements + implicit deny
        assert fw.rules[0].comment == "malicious domain"

    def test_semantics(self):
        from repro.addr import ip_to_int

        fw = _import(self.TEXT, "cisco")
        bad = ip_to_int("224.168.1.1")
        mail = ip_to_int("192.168.0.1")
        assert fw((bad, mail, 1, 25, 6)) == DISCARD
        assert fw((1, mail, 1, 25, 6)) == ACCEPT
        assert fw((1, 2, 3, 33500, 17)) == ACCEPT
        assert fw((1, 2, 3, 80, 6)) == ACCEPT  # permit ip any any

    def test_implicit_deny(self):
        fw = _import("ip access-list extended X\n permit tcp any any eq 80\n", "cisco")
        assert fw((1, 2, 3, 81, 6)) == DISCARD

    def test_log_keyword(self):
        fw = _import(
            "ip access-list extended X\n permit tcp any any eq 80 log\n",
            "cisco",
        )
        assert fw.rules[0].decision == ACCEPT_LOG

    @pytest.mark.parametrize(
        "bad",
        [
            " frobnicate tcp any any",
            " permit quic any any",
            " permit ip 10.0.0.0 0.0.0.77 any",  # non-contiguous wildcard
            " permit tcp any any eq",            # truncated
        ],
    )
    def test_rejects_unsupported(self, bad):
        with pytest.raises(ParseError):
            _import(f"ip access-list extended X\n{bad}\n", "cisco")

    def test_export_import_round_trip(self):
        original = SyntheticFirewallGenerator(seed=63).generate(25)
        text = emit_policy(original, "cisco")
        again = _import(text, "cisco")
        assert equivalent(original, again)


class TestRoundTripProperty:
    """Export -> import preserves semantics across many seeded policies."""

    @pytest.mark.parametrize("seed", [71, 72, 73, 74])
    def test_iptables_round_trip(self, seed):
        original = SyntheticFirewallGenerator(seed=seed).generate(15)
        text = emit_policy(original, "iptables")
        assert equivalent(original, _import(text, "iptables"))

    @pytest.mark.parametrize("seed", [81, 82, 83, 84])
    def test_cisco_round_trip(self, seed):
        original = SyntheticFirewallGenerator(seed=seed).generate(15)
        text = emit_policy(original, "cisco")
        assert equivalent(original, _import(text, "cisco"))


class TestFromNftables:
    TEXT = """\
table inet filter {
	chain forward {
		type filter hook forward priority 0; policy drop;
		ip saddr 10.0.0.0/8 tcp dport 22 accept comment "ssh"
		ip protocol udp udp dport 53 accept
	}
}
"""

    def test_parses_rules_and_policy(self):
        fw = _import(self.TEXT, "nftables")
        assert len(fw) == 3  # 2 rules + chain policy catch-all
        assert fw.rules[-1].decision == DISCARD
        assert fw.rules[0].comment == "ssh"

    def test_semantics(self):
        from repro.addr import ip_to_int

        fw = _import(self.TEXT, "nftables")
        inside = ip_to_int("10.1.2.3")
        assert fw((inside, 1, 40000, 22, 6)) == ACCEPT
        assert fw((ip_to_int("11.0.0.1"), 1, 40000, 22, 6)) == DISCARD
        assert fw((1, 2, 40000, 53, 17)) == ACCEPT

    @pytest.mark.parametrize("seed", [91, 92, 93, 94])
    def test_nftables_round_trip(self, seed):
        original = SyntheticFirewallGenerator(seed=seed).generate(15)
        text = emit_policy(original, "nftables")
        assert equivalent(original, _import(text, "nftables"))
