"""Seeded inputs for the three workloads, and the CLI calls each one times.

Every workload writes its inputs as files (policies, an iptables-save
dump, a packet list, a fleet directory) and lists one *pass*: the
``python -m repro`` invocations a user of that workload makes, each with
an oracle check of its output.  The program only ever sees the files.

Workload cost depends on FDD structure far more than on rule count (a
500-rule and a 300-rule policy from one generator stream can build the
same diagram), so drawing inputs by rule count alone gave seed-to-seed
spreads (IQR/median) of up to 0.66.  Each input is therefore drawn from the
seed's stream until its structural sizes - computed with the store engine or
the reference shaping, both deterministic - fall inside fixed bands.
The band fixes *how much structure* a workload has; the seed picks which
policies of that size are measured.  Bands and sizes are constants here
and are printed with every run.
"""

from __future__ import annotations

import json
import random
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.addr import int_to_ip
from repro.analysis import aggregate_discrepancies
from repro.bdd import compare_with_bdd
from repro.exceptions import BudgetExceededError
from repro.fdd import NodeStore, build_difference, construct_fdd, make_semi_isomorphic
from repro.fdd.fdd import FDD
from repro.guard import Budget, GuardContext
from repro.policy import (
    ACCEPT,
    DISCARD,
    Firewall,
    Predicate,
    Rule,
    dump,
    dumps,
    emit_policy,
    parse_policy,
)
from repro.synth import (
    BoundaryTraceGenerator,
    SyntheticFirewallGenerator,
    generate_firewall_pair,
    perturb,
)

WORKLOADS = ("design-diff", "team-review", "fleet-audit")

# design-diff: the Fig. 13 setting, one independently designed pair.
DESIGN_RULES = 300
DESIGN_PACKETS = 10_000
#: Memoized label operations when both policies are built in one NodeStore.
DESIGN_LABEL_OP_BAND = (24000, 32000)
#: Aggregated discrepancy regions of the pair.  Label ops alone leave
#: aggregation and rendering free (r = 0.90 between regions and in-process
#: impact time over 20 in-band pairs, against 0.74 for label ops).
DESIGN_REGION_BAND = (550, 850)
#: Allocation cap while measuring a candidate (no in-band pair needs more).
DESIGN_NODE_CAP = 7000

# team-review: a serial (reference-engine) review of a pair, plus a dump.
TEAM_PAIR_RULES = 24
#: Decision paths of the reference engine's semi-isomorphic pair.
TEAM_SHAPED_PATH_BAND = (9000, 16000)
TEAM_DUMP_RULES = 16
#: Decision paths of the dump policy's reduced FDD.
TEAM_DUMP_PATH_BAND = (45, 65)

# fleet-audit: Fig. 12 perturbations of one baseline, in two tenants.
FLEET_BASE_RULES = 32
FLEET_MEMBERS = 8
FLEET_X_RANGE = (0.05, 0.20)
#: Store edges summed over the members' FDDs.  Cold audit time follows
#: them (r = 0.95 against the members' lint time): lint's complete
#: redundancy check rebuilds each member's diagram once per rule.
FLEET_MEMBER_EDGE_BAND = (8500, 11000)
FLEET_CHECKS = "lint,compare,impact"

#: Independent inputs per timed run (one pass runs every command on each),
#: to narrow the seed-to-seed spread.
CASES = {"design-diff": 2, "team-review": 2, "fleet-audit": 3}
#: Candidates tried before a band is declared unreachable for a seed.
MAX_CANDIDATES = 200


class WorkloadError(Exception):
    """Inputs could not be generated (e.g. no candidate fell in a band)."""


@dataclass
class Call:
    """One timed CLI invocation: ``python -m repro <argv>``."""

    #: End-to-end metric this call is a sample of (e.g. ``compare_s``).
    metric: str
    argv: list[str]
    #: ``(exit code, stdout) -> error message or None``.
    check: Callable[[int, str], str | None]
    #: Run (untimed) before the call, e.g. to empty a cache.
    prepare: Callable[[], None] | None = None


@dataclass
class Workload:
    name: str
    workdir: Path
    #: Generated sizes and structural measures, printed with the results.
    sizes: dict = field(default_factory=dict)
    #: One pass over the workload, in order.
    calls: list[Call] = field(default_factory=list)
    #: Named input files (the traced run reads the same files).
    files: dict = field(default_factory=dict)
    #: Packets in the query batch (for packets/s), 0 when none.
    packets: int = 0


def candidate_seeds(workload: str, seed: int, role: str):
    """An endless, seed-determined stream of generator seeds for one input."""
    rng = random.Random(f"{workload}/{role}/{seed}")
    while True:
        yield rng.randrange(1 << 31)


def in_band(size, band) -> bool:
    """``lo <= size <= hi``; a tuple of sizes needs a tuple of bands."""
    if isinstance(size, tuple):
        return all(in_band(one, limits) for one, limits in zip(size, band))
    lo, hi = band
    return lo <= size <= hi


def draw_in_band(stream, make, measure, band, what: str):
    """First ``make(s)`` from ``stream`` whose ``measure`` lies in ``band``."""
    for _ in range(MAX_CANDIDATES):
        candidate = make(next(stream))
        size = measure(candidate)
        if in_band(size, band):
            return candidate, size
    raise WorkloadError(f"no {what} in band {band} after {MAX_CANDIDATES} draws")


# ----------------------------------------------------------------------
# Structural measures
# ----------------------------------------------------------------------
def pair_structure(pair) -> tuple[int, int]:
    """``(label ops, regions)`` of a policy pair built in one store.

    Label ops (``NodeStore.stats()["op_memo"]``) are the closest
    structural predictor of construction time (r = 0.94 over 300-rule
    pairs, against 0.82 for the node count); regions are the aggregated
    discrepancies of the pair, which aggregation and rendering follow.
    Builds allocating more than ``DESIGN_NODE_CAP`` nodes stop early and
    report -1 label ops, and regions are counted only for pairs in
    ``DESIGN_LABEL_OP_BAND`` (-1 otherwise): such pairs are out of band.
    """
    store = NodeStore(guard=GuardContext(Budget(max_nodes=DESIGN_NODE_CAP)))
    try:
        fdd_a, fdd_b = (store.construct(firewall) for firewall in pair)
    except BudgetExceededError:
        return -1, -1
    ops = store.stats()["op_memo"]
    if not in_band(ops, DESIGN_LABEL_OP_BAND):
        return ops, -1
    cells = build_difference(fdd_a, fdd_b, store=store).discrepancies()
    return ops, len(aggregate_discrepancies(cells))


def reduced_paths(firewall: Firewall) -> int:
    built = NodeStore().construct(firewall)
    return FDD(firewall.schema, built.root).stats().paths


def shaped_paths(pair) -> int:
    shaped_a, _ = make_semi_isomorphic(construct_fdd(pair[0]), construct_fdd(pair[1]))
    return shaped_a.stats().paths


# ----------------------------------------------------------------------
# Oracles (independent of the engines the CLI runs)
# ----------------------------------------------------------------------
def bdd_disputed(fw_a: Firewall, fw_b: Firewall) -> int:
    """Packets on which the two policies' permit/deny outcomes differ."""
    return compare_with_bdd(fw_a, fw_b, cube_limit=1).disputed_packets


def bdd_dead_rules(firewall: Firewall) -> set[int]:
    """Indices of rules whose predicate the earlier rules fully cover."""
    schema = firewall.schema
    everything = Rule(Predicate.match_all(schema), DISCARD)
    dead = set()
    for index, rule in enumerate(firewall.rules):
        earlier = [Rule(r.predicate, ACCEPT) for r in firewall.rules[:index]]
        without = Firewall(schema, earlier + [everything])
        with_rule = Firewall(schema, earlier + [Rule(rule.predicate, ACCEPT), everything])
        if bdd_disputed(without, with_rule) == 0:
            dead.add(index)
    return dead


def cell_size(fld, text: str) -> int:
    """Values in one rendered table cell (``all``, ``all except ...``,
    prefixes, ``lo-hi`` ranges, ``25 (smtp)``, protocol names)."""
    if text == "all":
        return fld.domain_size()
    if text.startswith("all except "):
        return fld.domain_size() - cell_size(fld, text[len("all except "):])
    total = 0
    for atom in text.split(","):
        atom = re.sub(r"\s*\(.*\)$", "", atom.strip())
        span = re.fullmatch(r"(\d+)-(\d+)", atom)
        if span:
            total += int(span.group(2)) - int(span.group(1)) + 1
        else:
            total += fld.parse_value_set(atom).count()
    return total


def first_match_counts(firewall: Firewall, packets) -> dict[str, int]:
    """Decision counts of first-match evaluation over ``packets``.

    Evaluated rule by rule over the whole batch with numpy (an interpreted
    ``Firewall.evaluate`` loop over tens of thousands of packets would
    dominate the run); a seeded sample of 1000 packets is checked against
    ``Firewall.evaluate`` itself, so the two agree by construction.
    """
    values = np.array(packets, dtype=np.int64)
    undecided = np.ones(len(packets), dtype=bool)
    names = np.empty(len(packets), dtype=object)
    for rule in firewall.rules:
        hit = undecided.copy()
        for column, values_set in enumerate(rule.predicate.sets):
            inside = np.zeros(len(packets), dtype=bool)
            for iv in values_set.intervals:
                inside |= (values[:, column] >= iv.lo) & (values[:, column] <= iv.hi)
            hit &= inside
        names[hit] = str(rule.decision)
        undecided &= ~hit
    decisions = list(names)
    for index in random.Random(len(packets)).sample(range(len(packets)), min(1000, len(packets))):
        if str(firewall.evaluate(packets[index])) != decisions[index]:
            raise WorkloadError(f"first-match oracle disagrees with Firewall.evaluate at packet {index}")
    counts: dict[str, int] = {}
    for name in decisions:
        counts[name] = counts.get(name, 0) + 1
    return counts


def table_packets(stdout: str, schema) -> tuple[int, int]:
    """``(regions, packets)`` of a printed discrepancy table.

    Columns are located from the dashed rule under the header, so cells
    containing spaces (``all except ...``) parse intact.
    """
    lines = stdout.splitlines()
    for at, line in enumerate(lines):
        if line and set(line) <= {"-", " "} and "--" in line:
            break
    else:
        raise ValueError("no discrepancy table in output")
    spans = [m.span() for m in re.finditer(r"-+", lines[at])]
    regions = packets = 0
    for line in lines[at + 1:]:
        if not line.strip():
            continue
        cells = [line[a:b].strip() for a, b in spans[:-1]] + [line[spans[-1][0]:].strip()]
        volume = 1
        for fld, text in zip(schema, cells[1:1 + len(schema)]):
            volume *= cell_size(fld, text)
        regions += 1
        packets += volume
    return regions, packets


def expect_verdict(code: int, disputed: int) -> str | None:
    want = 1 if disputed else 0
    return None if code == want else f"exit {code}, oracle expects {want}"


def check_compare(disputed: int, schema):
    def check(code: int, out: str) -> str | None:
        error = expect_verdict(code, disputed)
        if error or not disputed:
            return error
        match = re.search(r"(\d+) functional discrepancy region", out)
        regions, packets = table_packets(out, schema)
        if match is None or int(match.group(1)) != regions:
            return f"title does not match the {regions} printed region(s)"
        if packets != disputed:
            return f"regions cover {packets} packets, BDD says {disputed}"
        return None

    return check


def check_equivalent(disputed: int):
    def check(code: int, out: str) -> str | None:
        error = expect_verdict(code, disputed)
        if error:
            return error
        said = out.strip().splitlines()[-1] if out.strip() else ""
        if said.startswith("NOT equivalent") != bool(disputed):
            return f"verdict line {said!r} contradicts the oracle"
        return None

    return check


def check_impact(disputed: int):
    def check(code: int, out: str) -> str | None:
        error = expect_verdict(code, disputed)
        if error:
            return error
        if not disputed:
            return None if "no semantic effect" in out else "missing no-op verdict"
        match = re.search(r"(\d+) packet\(s\) affected", out)
        if match is None:
            return "no 'packet(s) affected' line"
        if int(match.group(1)) != disputed:
            return f"{match.group(1)} packet(s) affected, BDD says {disputed}"
        return None

    return check


# ----------------------------------------------------------------------
# design-diff
# ----------------------------------------------------------------------
def build_design_diff(workdir: Path, seed: int) -> Workload:
    (fw_a, fw_b), (label_ops, regions) = draw_in_band(
        candidate_seeds("design-diff", seed, "pair"),
        lambda s: generate_firewall_pair(DESIGN_RULES, seed=s),
        pair_structure,
        (DESIGN_LABEL_OP_BAND, DESIGN_REGION_BAND), "policy pair",
    )
    path_a, path_b = workdir / "a.fw", workdir / "b.fw"
    dump(fw_a, path_a, "standard")
    dump(fw_b, path_b, "standard")

    packets = BoundaryTraceGenerator(fw_a, seed=seed).packets(DESIGN_PACKETS)
    path_pk = workdir / "packets.txt"
    with open(path_pk, "w", encoding="utf-8") as handle:
        for p in packets:
            handle.write(f"{int_to_ip(p[0])} {int_to_ip(p[1])} {p[2]} {p[3]} {p[4]}\n")
    expected = first_match_counts(fw_a, packets)

    disputed = bdd_disputed(fw_a, fw_b)

    def check_query(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit {code}"
        summary = json.loads(out)
        if summary["packets"] != len(packets):
            return f"classified {summary['packets']} of {len(packets)} packets"
        if summary["counts"] != dict(sorted(expected.items())):
            return f"counts {summary['counts']} != first-match {expected}"
        return None

    return Workload(
        name="design-diff",
        workdir=workdir,
        sizes={
            "rules_per_policy": DESIGN_RULES,
            "store_label_ops": label_ops,
            "store_label_op_band": list(DESIGN_LABEL_OP_BAND),
            "regions": regions,
            "region_band": list(DESIGN_REGION_BAND),
            "packets": DESIGN_PACKETS,
            "disputed_packets": disputed,
        },
        calls=[
            Call("impact_s", ["impact", "a.fw", "b.fw"], check_impact(disputed)),
            Call(
                "compare_jobs2_s",
                ["compare", "--jobs", "2", "a.fw", "b.fw"],
                check_compare(disputed, fw_a.schema),
            ),
            Call(
                "query_batch_s",
                ["query", "a.fw", "--batch", "packets.txt", "--format", "json"],
                check_query,
            ),
        ],
        files={"a": path_a, "b": path_b, "packets": path_pk},
        packets=len(packets),
    )


# ----------------------------------------------------------------------
# team-review
# ----------------------------------------------------------------------
def build_team_review(workdir: Path, seed: int) -> Workload:
    (fw_a, fw_b), shaped = draw_in_band(
        candidate_seeds("team-review", seed, "pair"),
        lambda s: generate_firewall_pair(TEAM_PAIR_RULES, seed=s),
        shaped_paths,
        TEAM_SHAPED_PATH_BAND, "policy pair",
    )
    dump(fw_a, workdir / "a.fw", "standard")
    dump(fw_b, workdir / "b.fw", "standard")
    disputed = bdd_disputed(fw_a, fw_b)

    fw_dump, dump_paths = draw_in_band(
        candidate_seeds("team-review", seed, "dump"),
        lambda s: SyntheticFirewallGenerator(seed=s).generate(TEAM_DUMP_RULES, name="edge"),
        reduced_paths, TEAM_DUMP_PATH_BAND, "dump policy",
    )
    path_dump = workdir / "rules.v4"
    path_dump.write_text(emit_policy(fw_dump, "iptables"), encoding="utf-8")
    dead = bdd_dead_rules(fw_dump)

    def check_lint(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit {code}"
        report = json.loads(out)
        if report["policy"]["rules"] != len(fw_dump):
            return f"linted {report['policy']['rules']} of {len(fw_dump)} rules"
        found = {
            d["rule_index"] for d in report["diagnostics"] if d["code"] in ("FW001", "FW002")
        }
        if found != dead:
            return f"dead rules {sorted(found)} != BDD dead rules {sorted(dead)}"
        return None

    def check_simplify(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit {code}"
        simplified = parse_policy(out, "nftables").to_firewall()
        if len(simplified) > len(fw_dump):
            return f"simplify grew {len(fw_dump)} -> {len(simplified)} rules"
        if bdd_disputed(fw_dump, simplified):
            return "simplified policy is not BDD-equivalent to its input"
        return None

    return Workload(
        name="team-review",
        workdir=workdir,
        sizes={
            "rules_per_policy": TEAM_PAIR_RULES,
            "shaped_paths": shaped,
            "shaped_path_band": list(TEAM_SHAPED_PATH_BAND),
            "disputed_packets": disputed,
            "dump_rules": TEAM_DUMP_RULES,
            "dump_fdd_paths": dump_paths,
            "dump_path_band": list(TEAM_DUMP_PATH_BAND),
            "dump_dead_rules": len(dead),
        },
        calls=[
            Call("compare_s", ["compare", "a.fw", "b.fw"], check_compare(disputed, fw_a.schema)),
            Call("equivalent_s", ["equivalent", "a.fw", "b.fw"], check_equivalent(disputed)),
            Call("impact_s", ["impact", "a.fw", "b.fw"], check_impact(disputed)),
            Call(
                "lint_s",
                ["lint", "rules.v4", "--dialect", "iptables", "--format", "json",
                 "--fail-on", "never"],
                check_lint,
            ),
            Call(
                "simplify_s",
                ["simplify", "rules.v4", "--from", "iptables", "--to", "nftables"],
                check_simplify,
            ),
        ],
        files={"a": workdir / "a.fw", "b": workdir / "b.fw", "dump": path_dump},
    )


# ----------------------------------------------------------------------
# fleet-audit
# ----------------------------------------------------------------------
def audit_view(report: dict) -> dict:
    """Per-member findings and divergence, without cache/timing fields."""
    return {
        entry["name"]: {
            "status": entry["status"],
            "stages": entry["stages"],
        }
        for entry in report["policies"]
    }


def make_fleet(fleet_seed: int) -> tuple[Firewall, list[Firewall]]:
    """A baseline and its Fig.-12 perturbations (x drawn per member)."""
    rng = random.Random(fleet_seed)
    baseline = SyntheticFirewallGenerator(seed=rng.randrange(1 << 31)).generate(
        FLEET_BASE_RULES, name="golden"
    )
    members = [
        perturb(baseline, rng.uniform(*FLEET_X_RANGE), seed=rng.randrange(1 << 31))[0]
        for _ in range(FLEET_MEMBERS)
    ]
    return baseline, members


def member_edges(fleet) -> int:
    total = 0
    for member in fleet[1]:
        store = NodeStore()
        store.construct(member)
        total += store.edges_created
    return total


def build_fleet_audit(workdir: Path, seed: int) -> Workload:
    (baseline, fleet), edges = draw_in_band(
        candidate_seeds("fleet-audit", seed, "fleet"), make_fleet, member_edges,
        FLEET_MEMBER_EDGE_BAND, "fleet",
    )
    rng = random.Random(f"fleet-audit/edit/{seed}")
    dump(baseline, workdir / "golden.fw", "standard")
    members: dict[str, Firewall] = {}
    paths: dict[str, Path] = {}
    for index, member in enumerate(fleet):
        tenant = "tenant-a" if index < FLEET_MEMBERS // 2 else "tenant-b"
        name = f"{tenant}/fw{index}.fw"
        path = workdir / "fleet" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        dump(member.with_name(f"fw{index}"), path, "standard")
        members[name] = member
        paths[name] = path

    # The edit: flip one rule's decision in the first member.
    edited_name = "tenant-a/fw0.fw"
    original = members[edited_name]
    flip = rng.randrange(len(original) - 1)
    rules = list(original.rules)
    rules[flip] = rules[flip].with_decision(DISCARD if rules[flip].decision.permits else ACCEPT)
    edited = Firewall(original.schema, rules, name=original.name)
    edit_path = paths[edited_name]
    original_text = edit_path.read_text(encoding="utf-8")
    edited_text = dumps(edited, "standard")

    diverged = {name: bdd_disputed(baseline, fw) > 0 for name, fw in members.items()}
    diverged_edit = dict(diverged, **{edited_name: bdd_disputed(baseline, edited) > 0})
    cache = workdir / "cache"
    cold_view: dict = {}

    def reset_cold():
        edit_path.write_text(original_text, encoding="utf-8")
        shutil.rmtree(cache, ignore_errors=True)

    def apply_edit():
        edit_path.write_text(edited_text, encoding="utf-8")

    def member_errors(report: dict, want: dict) -> str | None:
        if report["stats"]["errors"] or report["stats"]["over_budget"]:
            return f"audit stats report failures: {report['stats']}"
        seen = {}
        for entry in report["policies"]:
            compare = entry["stages"].get("compare")
            if compare is None:
                return f"{entry['name']}: no compare stage"
            seen[entry["name"]] = not compare["equivalent"]
        if seen != want:
            return f"diverged flags {seen} != BDD {want}"
        return None

    def check_cold(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit {code}"
        report = json.loads(out)
        cold_view.clear()
        cold_view.update(audit_view(report))
        return member_errors(report, diverged)

    def check_warm(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit {code}"
        report = json.loads(out)
        if audit_view(report) != cold_view:
            return "warm report differs from the cold report"
        stats = report["stats"]
        if stats["fdd_constructions"] or stats["fully_cached"] != FLEET_MEMBERS:
            return f"warm audit was not fully cached: {stats}"
        return member_errors(report, diverged)

    def check_edit(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit {code}"
        report = json.loads(out)
        view = audit_view(report)
        for name, entry in cold_view.items():
            if name != edited_name and view.get(name) != entry:
                return f"{name}: edit report differs from the cold report"
        if report["stats"]["fully_cached"] != FLEET_MEMBERS - 1:
            return f"edit audit should recompute one member: {report['stats']}"
        return member_errors(report, diverged_edit)

    audit = [
        "audit", "--manifest", "fleet", "--baseline", "golden.fw",
        "--checks", FLEET_CHECKS, "--cache-dir", "cache", "--format", "json",
        "--fail-on", "never",
    ]
    return Workload(
        name="fleet-audit",
        workdir=workdir,
        sizes={
            "baseline_rules": FLEET_BASE_RULES,
            "member_store_edges": edges,
            "member_store_edge_band": list(FLEET_MEMBER_EDGE_BAND),
            "members": FLEET_MEMBERS,
            "tenants": 2,
            "diverged_members": sum(diverged.values()),
            "checks": FLEET_CHECKS,
        },
        calls=[
            Call("audit_cold_s", audit, check_cold, prepare=reset_cold),
            Call("audit_warm_s", audit, check_warm),
            Call("audit_edit_s", audit, check_edit, prepare=apply_edit),
        ],
        files={
            "baseline": workdir / "golden.fw",
            "fleet": workdir / "fleet",
            "cache": cache,
            "edit_member": edit_path,
            "edited_text": edited_text,
            "original_text": original_text,
        },
    )


BUILDERS = {
    "design-diff": build_design_diff,
    "team-review": build_team_review,
    "fleet-audit": build_fleet_audit,
}


def build(name: str, workdir: Path, seed: int, cases: int) -> list[Workload]:
    """``cases`` independent inputs of workload ``name``, one directory each."""
    built = []
    for index in range(cases):
        casedir = workdir / f"case{index}"
        casedir.mkdir(parents=True)
        built.append(BUILDERS[name](casedir, seed * 100 + index))
    return built
