"""Address formats: IPv4, CIDR prefixes, ports, and protocols.

Implements the format layer of Section 7.1: administrators write prefixes
and service names; the algorithms consume integer intervals; output is
converted back to prefixes and names so discrepancies read like rules.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.addr.ipv4": (
            "IPV4_BITS",
            "IPV4_MAX",
            "ascii_digits",
            "int_to_ip",
            "ip_to_int",
            "is_valid_ip",
        ),
        "repro.addr.ports": (
            "PORT_MAX",
            "SERVICES",
            "format_port_set",
            "parse_port",
            "parse_port_range",
        ),
        "repro.addr.prefix": (
            "Prefix",
            "format_ip_set",
            "interval_to_prefixes",
            "intervalset_to_prefixes",
            "parse_prefix",
            "prefix_to_interval",
        ),
        "repro.addr.protocol": (
            "PROTOCOL_MAX",
            "PROTOCOLS",
            "format_protocol_set",
            "parse_protocol",
        ),
    },
)
