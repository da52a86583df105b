"""Workload generation: synthetic firewalls, perturbations, canned policies."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.synth.generator": (
            "GeneratorConfig",
            "SyntheticFirewallGenerator",
            "generate_firewall_pair",
            "uniform_interval_firewall",
        ),
        "repro.synth.perturb": ("PerturbationRecord", "flip_decision", "perturb"),
        "repro.synth.traces": ("BoundaryTraceGenerator", "FlowTraceGenerator", "TimedPacket"),
        "repro.synth.workloads": (
            "average_42",
            "campus_87",
            "mail_example_schema",
            "paper_resolution_chooser",
            "resolved_reference_firewall",
            "team_a_firewall",
            "team_b_firewall",
            "university_661",
        ),
    },
)
