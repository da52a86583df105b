"""Unit tests for port and protocol vocabulary."""

import pytest

from repro.addr import (
    PORT_MAX,
    PROTOCOL_MAX,
    format_port_set,
    format_protocol_set,
    parse_port,
    parse_port_range,
    parse_protocol,
)
from repro.exceptions import AddressError
from repro.intervals import Interval, IntervalSet


class TestPorts:
    def test_numeric(self):
        assert parse_port("25") == 25

    def test_service_names(self):
        assert parse_port("smtp") == 25
        assert parse_port("HTTPS") == 443

    def test_unknown_service(self):
        with pytest.raises(AddressError):
            parse_port("gopherx")

    def test_too_large(self):
        with pytest.raises(AddressError):
            parse_port("65536")

    def test_range_forms(self):
        assert parse_port_range("1024-65535") == Interval(1024, PORT_MAX)
        assert parse_port_range("20:21") == Interval(20, 21)
        assert parse_port_range("any") == Interval(0, PORT_MAX)
        assert parse_port_range("smtp") == Interval(25, 25)

    def test_inverted_range(self):
        with pytest.raises(AddressError):
            parse_port_range("90-80")

    def test_format_whole_domain(self):
        assert format_port_set(IntervalSet.span(0, PORT_MAX)) == "all"

    def test_format_named_single(self):
        assert format_port_set(IntervalSet.single(25)) == "25 (smtp)"
        assert format_port_set(IntervalSet.single(25), names=False) == "25"

    def test_format_range_and_unknown(self):
        s = IntervalSet.of((1024, 2048), 4444)
        assert format_port_set(s) == "1024-2048, 4444"

    def test_format_empty(self):
        assert format_port_set(IntervalSet.empty()) == "none"


class TestProtocols:
    def test_names_and_numbers(self):
        assert parse_protocol("tcp") == Interval(6, 6)
        assert parse_protocol("UDP") == Interval(17, 17)
        assert parse_protocol("47") == Interval(47, 47)
        assert parse_protocol("any") == Interval(0, PROTOCOL_MAX)

    def test_unknown(self):
        with pytest.raises(AddressError):
            parse_protocol("quic")

    def test_too_large(self):
        with pytest.raises(AddressError):
            parse_protocol("256")

    def test_range_round_trips_through_format(self):
        values = IntervalSet.of((3, 6), (9, 12), (17, 17))
        text = format_protocol_set(values)
        assert text == "3-6, 9-12, udp"
        assert IntervalSet(parse_protocol(atom) for atom in text.split(", ")) == values
        for bad in ("6-3", "3-256", "3-", "-6"):
            with pytest.raises(AddressError):
                parse_protocol(bad)

    def test_format(self):
        assert format_protocol_set(IntervalSet.single(6)) == "tcp"
        assert format_protocol_set(IntervalSet.single(99)) == "99"
        assert format_protocol_set(IntervalSet.span(0, PROTOCOL_MAX)) == "all"
        assert format_protocol_set(IntervalSet.of((6, 6), (17, 17))) == "tcp, udp"
