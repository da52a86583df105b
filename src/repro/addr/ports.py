"""Port numbers, port ranges, and well-known service names.

Port fields (source and destination) are 16-bit integer intervals in the
paper's model.  This module parses the textual forms administrators use
(``25``, ``1024-65535``, ``smtp``, ``any``) into intervals and formats
interval sets back into the same vocabulary.
"""

from __future__ import annotations

from repro.addr.ipv4 import ascii_digits
from repro.exceptions import AddressError
from repro.intervals.interval import Interval
from repro.intervals.intervalset import IntervalSet

__all__ = [
    "PORT_BITS",
    "PORT_MAX",
    "SERVICES",
    "parse_port",
    "parse_port_range",
    "format_port_set",
]

#: Width of a TCP/UDP port in bits.
PORT_BITS = 16

#: Largest port number.
PORT_MAX = (1 << PORT_BITS) - 1

#: Well-known service name -> port map accepted by the parser.  Kept small
#: and explicit; extend per deployment rather than shipping /etc/services.
SERVICES: dict[str, int] = {
    "ftp-data": 20,
    "ftp": 21,
    "ssh": 22,
    "telnet": 23,
    "smtp": 25,
    "dns": 53,
    "domain": 53,
    "dhcp": 67,
    "http": 80,
    "www": 80,
    "pop3": 110,
    "ntp": 123,
    "imap": 143,
    "snmp": 161,
    "ldap": 389,
    "https": 443,
    "smtps": 465,
    "syslog": 514,
    "imaps": 993,
    "pop3s": 995,
    "mssql": 1433,
    "mysql": 3306,
    "rdp": 3389,
    "postgres": 5432,
}

_SERVICE_BY_PORT = {port: name for name, port in SERVICES.items()}


def parse_port(text: str) -> int:
    """Parse a single port: a number or a well-known service name.

    >>> parse_port("smtp")
    25
    """
    text = text.strip().lower()
    if ascii_digits(text):
        value = int(text)
        if value > PORT_MAX:
            raise AddressError(f"port {value} exceeds {PORT_MAX}")
        return value
    if text in SERVICES:
        return SERVICES[text]
    raise AddressError(f"unknown port or service {text!r}")


def parse_port_range(text: str) -> Interval:
    """Parse ``N``, ``N-M``, ``N:M``, a service name, or ``any``.

    >>> parse_port_range("1024-65535")
    Interval(lo=1024, hi=65535)
    """
    text = text.strip().lower()
    if text in ("any", "all", "*"):
        return Interval(0, PORT_MAX)
    for sep in ("-", ":"):
        if sep in text:
            lo_part, _, hi_part = text.partition(sep)
            lo, hi = parse_port(lo_part), parse_port(hi_part)
            if lo > hi:
                raise AddressError(f"port range {text!r} has lo > hi")
            return Interval(lo, hi)
    port = parse_port(text)
    return Interval(port, port)


def format_port_set(values: IntervalSet, *, names: bool = True) -> str:
    """Render a port-field interval set for humans.

    Whole domain renders as ``all``; single well-known ports render as
    ``25 (smtp)`` when ``names`` is true; other pieces render as ``lo-hi``.
    """
    if values.is_empty():
        return "none"
    if values.is_single_interval():
        only = values.intervals[0]
        if only.lo == 0 and only.hi == PORT_MAX:
            return "all"
    parts = []
    for iv in values.intervals:
        if iv.is_single():
            name = _SERVICE_BY_PORT.get(iv.lo)
            if names and name is not None:
                parts.append(f"{iv.lo} ({name})")
            else:
                parts.append(str(iv.lo))
        else:
            parts.append(f"{iv.lo}-{iv.hi}")
    return ", ".join(parts)
