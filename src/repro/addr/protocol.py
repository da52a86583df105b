"""IP protocol numbers and names.

The protocol field is an 8-bit integer in the paper's model (the running
example further restricts it to ``{0: TCP, 1: UDP}``; real schemas use the
IANA numbers below).  This module maps protocol names to numbers and
formats protocol interval sets for human-readable output.
"""

from __future__ import annotations

from repro.addr.ipv4 import ascii_digits
from repro.exceptions import AddressError
from repro.intervals.interval import Interval
from repro.intervals.intervalset import IntervalSet

__all__ = [
    "PROTOCOL_BITS",
    "PROTOCOL_MAX",
    "PROTOCOLS",
    "parse_protocol",
    "format_protocol_set",
]

#: Width of the IP protocol field in bits.
PROTOCOL_BITS = 8

#: Largest protocol number.
PROTOCOL_MAX = (1 << PROTOCOL_BITS) - 1

#: IANA protocol name -> number map accepted by the parser.
PROTOCOLS: dict[str, int] = {
    "icmp": 1,
    "igmp": 2,
    "tcp": 6,
    "udp": 17,
    "gre": 47,
    "esp": 50,
    "ah": 51,
    "ospf": 89,
    "sctp": 132,
}

_PROTOCOL_BY_NUMBER = {number: name for name, number in PROTOCOLS.items()}


def parse_protocol(text: str) -> Interval:
    """Parse a protocol: a name, a number, or ``any``.

    >>> parse_protocol("tcp")
    Interval(lo=6, hi=6)
    """
    text = text.strip().lower()
    if text in ("any", "all", "*"):
        return Interval(0, PROTOCOL_MAX)
    if ascii_digits(text):
        value = int(text)
        if value > PROTOCOL_MAX:
            raise AddressError(f"protocol number {value} exceeds {PROTOCOL_MAX}")
        return Interval(value, value)
    if text in PROTOCOLS:
        number = PROTOCOLS[text]
        return Interval(number, number)
    raise AddressError(f"unknown protocol {text!r}")


def format_protocol_set(values: IntervalSet, domain_max: int = PROTOCOL_MAX) -> str:
    """Render a protocol interval set using IANA names where possible."""
    if values.is_empty():
        return "none"
    if values.is_single_interval():
        only = values.intervals[0]
        if only.lo == 0 and only.hi == domain_max:
            return "all"
    parts = []
    for iv in values.intervals:
        if iv.is_single():
            parts.append(_PROTOCOL_BY_NUMBER.get(iv.lo, str(iv.lo)))
        else:
            parts.append(f"{iv.lo}-{iv.hi}")
    return ", ".join(parts)
