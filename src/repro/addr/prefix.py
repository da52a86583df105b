"""CIDR prefix <-> integer interval conversion (paper Section 7.1).

The paper's algorithms operate on integer intervals, but administrators
read and write IP fields as CIDR prefixes.  Section 7.1 prescribes the
round trip used here:

* every prefix converts to exactly one interval (``prefix_to_interval``);
* every ``w``-bit interval converts back to a *minimal* cover of at most
  ``2w - 2`` prefixes [Gupta & McKeown 2001] (``interval_to_prefixes``).

The minimal-cover algorithm greedily emits, from the interval's low end,
the largest aligned power-of-two block that fits inside the remainder.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from repro.exceptions import AddressError
from repro.intervals.interval import Interval
from repro.intervals.intervalset import IntervalSet
from repro.addr.ipv4 import IPV4_BITS, IPV4_MAX, ascii_digits, int_to_ip, ip_to_int

__all__ = [
    "Prefix",
    "parse_prefix",
    "prefix_to_interval",
    "interval_to_prefixes",
    "intervalset_to_prefixes",
    "format_ip_set",
]


@dataclass(frozen=True, slots=True)
class Prefix:
    """A CIDR prefix ``network/length`` over ``bits``-bit addresses.

    ``network`` is the integer value of the address with host bits zeroed.
    """

    network: int
    length: int
    bits: int = IPV4_BITS

    def __post_init__(self) -> None:
        if not 0 <= self.length <= self.bits:
            raise AddressError(
                f"prefix length {self.length} out of range [0, {self.bits}]"
            )
        host_bits = self.bits - self.length
        if self.network & ((1 << host_bits) - 1):
            raise AddressError(
                f"prefix network {self.network:#x}/{self.length} has non-zero host bits"
            )
        if self.network > (1 << self.bits) - 1:
            raise AddressError(f"prefix network {self.network} exceeds {self.bits} bits")

    @property
    def lo(self) -> int:
        """Lowest address covered by the prefix."""
        return self.network

    @property
    def hi(self) -> int:
        """Highest address covered by the prefix."""
        return self.network | ((1 << (self.bits - self.length)) - 1)

    def to_interval(self) -> Interval:
        """The unique integer interval this prefix covers."""
        return Interval(self.lo, self.hi)

    def __str__(self) -> str:
        if self.bits == IPV4_BITS:
            return f"{int_to_ip(self.network)}/{self.length}"
        return f"{self.network:0{(self.bits + 3) // 4}x}/{self.length}"


def parse_prefix(text: str) -> Prefix:
    """Parse ``a.b.c.d/len`` or a bare address (treated as ``/32``).

    >>> str(parse_prefix("224.168.0.0/16"))
    '224.168.0.0/16'
    >>> parse_prefix("10.0.0.1").length
    32
    """
    text = text.strip()
    if "/" in text:
        addr_part, _, len_part = text.partition("/")
        if not ascii_digits(len_part):
            raise AddressError(f"invalid prefix length in {text!r}")
        length = int(len_part)
    else:
        addr_part, length = text, IPV4_BITS
    network = ip_to_int(addr_part)
    if not 0 <= length <= IPV4_BITS:
        raise AddressError(f"prefix length {length} out of range [0, {IPV4_BITS}]")
    host_bits = IPV4_BITS - length
    masked = network & ~((1 << host_bits) - 1) & IPV4_MAX
    if masked != network:
        raise AddressError(
            f"prefix {text!r} has host bits set (did you mean {int_to_ip(masked)}/{length}?)"
        )
    return Prefix(network, length)


def prefix_to_interval(text_or_prefix: str | Prefix) -> Interval:
    """Convert a CIDR prefix to its (unique) integer interval.

    "Note that every prefix can be converted to only one integer interval"
    (Section 7.1).
    """
    prefix = (
        text_or_prefix
        if isinstance(text_or_prefix, Prefix)
        else parse_prefix(text_or_prefix)
    )
    return prefix.to_interval()


def interval_to_prefixes(interval: Interval, bits: int = IPV4_BITS) -> list[Prefix]:
    """Convert an integer interval to its minimal prefix cover.

    Greedy aligned-block decomposition; a ``w``-bit interval yields at most
    ``2w - 2`` prefixes (Section 7.1, citing [14]).

    >>> [str(p) for p in interval_to_prefixes(Interval(2, 8), bits=4)]
    ['2/3', '4/2', '8/4']
    """
    return [Prefix(network, length, bits) for network, length in _blocks(interval, bits)]


def _blocks(interval: Interval, bits: int) -> Iterator[tuple[int, int]]:
    """The minimal prefix cover of ``interval`` as ``(network, length)``
    pairs, smallest network first, one block at a time."""
    if interval.hi > (1 << bits) - 1:
        raise AddressError(
            f"interval {interval} does not fit in {bits} bits"
        )
    lo, hi = interval.lo, interval.hi
    while lo <= hi:
        # Largest block size that is aligned at lo: lowest set bit of lo
        # (or the whole space when lo == 0).
        align = lo & -lo if lo else 1 << bits
        # Capped by the largest power of two that still fits under hi.
        size = min(align, 1 << ((hi - lo + 1).bit_length() - 1))
        yield lo, bits - size.bit_length() + 1
        lo += size


def intervalset_to_prefixes(values: IntervalSet, bits: int = IPV4_BITS) -> list[Prefix]:
    """Convert each interval of a set to prefixes and concatenate the covers."""
    prefixes: list[Prefix] = []
    for iv in values.intervals:
        prefixes.extend(interval_to_prefixes(iv, bits))
    return prefixes


def format_ip_set(values: IntervalSet, domain_max: int = IPV4_MAX) -> str:
    """Render an IP-field interval set in administrator-friendly form.

    The whole domain renders as ``all``; otherwise a comma-separated list
    of CIDR prefixes (single hosts render as bare addresses), mirroring how
    the paper presents discrepancy output "similar to those of original
    firewall rules" (Section 7.1).
    """
    if values.is_empty():
        return "none"
    if values.is_single_interval():
        only = values.intervals[0]
        if only.lo == 0 and only.hi == domain_max:
            return "all"
    direct = _set_blocks(values)
    # Sets like "everything but the malicious /16" cover the domain minus a
    # few blocks; their direct prefix cover is long (up to 2w-2 pieces per
    # hole) while the complement is short.  Render whichever reads better:
    # the complement only when it is at least two blocks shorter, so its
    # cover stops as soon as it reaches ``len(direct) - 1`` blocks.
    limit = len(direct) - 1
    if limit > 1:
        complement = IntervalSet.span(0, domain_max) - values
        inverse = _set_blocks(complement, limit)
        if len(inverse) < limit:
            rendered = ", ".join(_format_block(*block) for block in inverse)
            return f"all except {rendered}"
    return ", ".join(_format_block(*block) for block in direct)


def _set_blocks(
    values: IntervalSet, limit: int | None = None
) -> list[tuple[int, int]]:
    """:func:`intervalset_to_prefixes` as ``(network, length)`` pairs,
    cut off after ``limit`` blocks when a limit is given."""
    blocks = (
        block for iv in values.intervals for block in _blocks(iv, IPV4_BITS)
    )
    return list(islice(blocks, limit))


def _format_block(network: int, length: int) -> str:
    if length == IPV4_BITS:
        return int_to_ip(network)
    return f"{int_to_ip(network)}/{length}"
