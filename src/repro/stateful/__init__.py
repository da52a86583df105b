"""Stateful firewalls (the model of [11], on the stateless engine).

A stateful firewall = a state table (:class:`ConnectionTable`) + a
stateless rule section over the packet fields plus a synthetic ``state``
field.  Because the stateless section is an ordinary
:class:`repro.policy.Firewall`, every analysis in the library —
comparison, change impact, queries, redundancy — applies to stateful
policies unchanged.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.stateful.firewall": (
            "STATE_ESTABLISHED",
            "STATE_NEW",
            "StatefulFirewall",
            "stateful_schema",
        ),
        "repro.stateful.table": ("ConnectionTable", "FlowKey"),
    },
)
