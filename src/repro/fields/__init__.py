"""Packet-field schemas and packets (Section 3.1 of the paper)."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.fields.packet": ("Packet", "PacketSampler", "enumerate_universe"),
        "repro.fields.schema": (
            "Field",
            "FieldKind",
            "FieldSchema",
            "interface_schema",
            "standard_schema",
            "toy_schema",
        ),
    },
)
