"""Unit and property tests for prefix <-> interval conversion (Sec. 7.1)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.addr import (
    IPV4_MAX,
    Prefix,
    format_ip_set,
    interval_to_prefixes,
    intervalset_to_prefixes,
    parse_prefix,
    prefix_to_interval,
)
from repro.exceptions import AddressError
from repro.intervals import Interval, IntervalSet


class TestPrefix:
    def test_parse_cidr(self):
        p = parse_prefix("224.168.0.0/16")
        assert p.length == 16
        assert p.lo == 0xE0A80000
        assert p.hi == 0xE0A8FFFF

    def test_bare_address_is_host(self):
        p = parse_prefix("10.0.0.1")
        assert p.length == 32 and p.lo == p.hi

    def test_rejects_host_bits(self):
        with pytest.raises(AddressError):
            parse_prefix("10.0.0.1/24")

    def test_rejects_bad_length(self):
        with pytest.raises(AddressError):
            parse_prefix("10.0.0.0/33")
        with pytest.raises(AddressError):
            parse_prefix("10.0.0.0/x")

    def test_prefix_validation(self):
        with pytest.raises(AddressError):
            Prefix(network=1, length=24)  # host bits set

    def test_str(self):
        assert str(parse_prefix("192.168.0.0/16")) == "192.168.0.0/16"

    def test_prefix_to_interval_unique(self):
        assert prefix_to_interval("0.0.0.0/0") == Interval(0, IPV4_MAX)


class TestIntervalToPrefixes:
    def test_paper_example_2_8(self):
        # "the interval [2, 8] can be converted to three prefixes" (Sec 7.1)
        prefixes = interval_to_prefixes(Interval(2, 8), bits=4)
        assert len(prefixes) == 3
        covered = set()
        for p in prefixes:
            covered.update(range(p.lo, p.hi + 1))
        assert covered == set(range(2, 9))

    def test_aligned_block_is_one_prefix(self):
        assert len(interval_to_prefixes(Interval(0, 255))) == 1

    def test_single_host(self):
        prefixes = interval_to_prefixes(Interval(7, 7))
        assert len(prefixes) == 1 and prefixes[0].length == 32

    @given(
        st.tuples(
            st.integers(min_value=0, max_value=1023),
            st.integers(min_value=0, max_value=1023),
        )
    )
    def test_cover_is_exact_and_bounded(self, pair):
        lo, hi = min(pair), max(pair)
        w = 10
        prefixes = interval_to_prefixes(Interval(lo, hi), bits=w)
        # Exact cover, disjoint.
        covered: list[int] = []
        for p in prefixes:
            covered.extend(range(p.lo, p.hi + 1))
        assert sorted(covered) == list(range(lo, hi + 1))
        assert len(covered) == len(set(covered))
        # The 2w - 2 bound of [14].
        assert len(prefixes) <= 2 * w - 2

    def test_interval_too_large_for_bits(self):
        with pytest.raises(AddressError):
            interval_to_prefixes(Interval(0, 16), bits=4)


class TestFormatIpSet:
    def test_all(self):
        assert format_ip_set(IntervalSet.span(0, IPV4_MAX)) == "all"

    def test_single_host(self):
        s = IntervalSet.single(0xC0A80001)
        assert format_ip_set(s) == "192.168.0.1"

    def test_prefix(self):
        s = IntervalSet.span(0xE0A80000, 0xE0A8FFFF)
        assert format_ip_set(s) == "224.168.0.0/16"

    def test_complement_rendering(self):
        hole = IntervalSet.span(0xE0A80000, 0xE0A8FFFF)
        s = IntervalSet.span(0, IPV4_MAX) - hole
        assert format_ip_set(s) == "all except 224.168.0.0/16"

    def test_empty(self):
        assert format_ip_set(IntervalSet.empty()) == "none"

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=IPV4_MAX),
                st.integers(min_value=0, max_value=IPV4_MAX),
            ),
            min_size=1,
            max_size=5,
        ),
        st.booleans(),
    )
    def test_picks_the_cover_both_full_covers_pick(self, spans, invert):
        """The complement's cover stops early; the choice it makes is the
        one comparing both complete covers makes."""
        values = IntervalSet(Interval(min(span), max(span)) for span in spans)
        if invert:
            values = IntervalSet.span(0, IPV4_MAX) - values
        if values.is_empty() or values == IntervalSet.span(0, IPV4_MAX):
            return
        direct = intervalset_to_prefixes(values)
        inverse = intervalset_to_prefixes(IntervalSet.span(0, IPV4_MAX) - values)

        def render(prefixes):  # hosts print as bare addresses
            return ", ".join(str(p).removesuffix("/32") for p in prefixes)

        if len(inverse) + 1 < len(direct):
            expected = "all except " + render(inverse)
        else:
            expected = render(direct)
        assert format_ip_set(values) == expected

    def test_intervalset_to_prefixes_concatenates(self):
        s = IntervalSet.of((0, 255), (512, 767))
        assert len(intervalset_to_prefixes(s)) == 2
