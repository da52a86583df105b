"""The traced run: the same work as a workload's CLI pass, layer by layer.

For each CLI invocation of a pass, this module makes the same calls into
the layers' public functions from the benchmark's own process, wrapping
each call in a span (name, start, end, parent) and recording structural
counts next to it.  Nothing inside ``src/`` is instrumented.  Spans are
kept in memory and written at the end as Chrome trace-event JSON, which
Perfetto (ui.perfetto.dev) and ``chrome://tracing`` open directly.

Every per-layer metric is reported on every workload; a layer that the
workload's commands never cross reports 0, which says exactly that.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from repro.addr import ip_to_int
from repro.analysis import (
    ChangeImpactReport,
    aggregate_discrepancies,
    analyze_change,
    format_discrepancy_table,
    remove_redundant_rules,
)
from repro.analysis.effective import effective_rules
from repro.audit import ResultCache, audit_fleet, load_manifest, resolve_checkset
from repro.classify import compile_firewall
from repro.fdd import (
    NodeStore,
    build_difference,
    compare_shaped,
    construct_fdd,
    generate_firewall,
    make_semi_isomorphic,
    semantic_fingerprint,
)
from repro.lint import run_lint
from repro.policy import Firewall, emit_policy, load, parse_policy
from repro.simplify import simplify_firewall

#: ``(name, unit)`` of every per-layer metric, in report order.
PER_LAYER = (
    ("cli.startup_ms", "ms"),
    ("policy.load_ms", "ms"),
    ("policy.parse_ir_ms", "ms"),
    ("policy.emit_ms", "ms"),
    ("policy.rules", "count"),
    ("store.construct_ms", "ms"),
    ("store.nodes_created", "count"),
    ("store.edges_created", "count"),
    ("store.append_memo", "count"),
    ("store.op_memo", "count"),
    ("fast.product_ms", "ms"),
    ("fast.cells_ms", "ms"),
    ("diff.nodes", "count"),
    ("diff.paths", "count"),
    ("diff.cells", "count"),
    ("ref.construct_ms", "ms"),
    ("ref.shape_ms", "ms"),
    ("ref.compare_ms", "ms"),
    ("ref.cells", "count"),
    ("fingerprint_ms", "ms"),
    ("analysis.aggregate_ms", "ms"),
    ("analysis.render_ms", "ms"),
    ("analysis.impact_ms", "ms"),
    ("analysis.cells_in", "count"),
    ("analysis.regions_out", "count"),
    ("effective_ms", "ms"),
    ("redundancy_ms", "ms"),
    ("generation_ms", "ms"),
    ("simplify_ms", "ms"),
    ("simplify.rules_before", "count"),
    ("simplify.rules_after", "count"),
    ("lint_ms", "ms"),
    ("lint.findings", "count"),
    ("audit.cold_ms", "ms"),
    ("audit.warm_ms", "ms"),
    ("audit.edit_ms", "ms"),
    ("audit.cache_hits", "count"),
    ("audit.cache_misses", "count"),
    ("audit.fdd_constructions", "count"),
    ("audit.fully_cached", "count"),
    ("classify.compile_ms", "ms"),
    ("classify.kernel_ms", "ms"),
    ("classify.ingest_ms", "ms"),
    ("matcher.nodes", "count"),
    ("matcher.segments", "count"),
    ("parallel.construct_ms", "ms"),
    ("parallel.publish_ms", "ms"),
    ("parallel.shard_ms", "ms"),
    ("parallel.first_call_ms", "ms"),
    ("parallel.steady_ms", "ms"),
    ("parallel.pool_start_ms", "ms"),
    ("parallel.degradations", "count"),
)

#: Counts whose values must repeat exactly for one seed (determinism check).
STRUCTURAL = tuple(
    name
    for name, unit in PER_LAYER
    if unit == "count" and name.split(".")[0] in ("store", "diff", "ref", "analysis", "matcher", "audit")
)

STARTUP_SAMPLES = 3


class Tracer:
    """In-memory spans and counts, written out once at the end."""

    def __init__(self) -> None:
        self.origin = time.perf_counter_ns()
        #: ``[name, start_ns, end_ns, parent index or None]``
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        #: Values measured outside this process (e.g. a child's import time).
        self.values: dict[str, float] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter_ns()

    def add(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(value)

    def total_ms(self, name: str) -> float:
        return sum((end - start) / 1e6 for n, start, end, _ in self.spans if n == name)

    def chrome_trace(self, metadata: dict) -> dict:
        events = [
            {"name": "process_name", "ph": "M", "pid": 1, "args": {"name": "e2ebench traced run"}},
        ]
        for index, (name, start, end, parent) in enumerate(self.spans):
            events.append({
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (start - self.origin) / 1e3,
                "dur": (end - start) / 1e3,
                "args": {
                    "span_id": index,
                    "parent_id": parent,
                    "parent": self.spans[parent][0] if parent is not None else None,
                },
            })
        last = max((end for _, _, end, _ in self.spans), default=self.origin)
        events.append({
            "name": "counts", "ph": "C", "pid": 1, "tid": 1,
            "ts": (last - self.origin) / 1e3, "args": dict(self.counts),
        })
        return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": metadata}

    def metrics(self) -> dict[str, tuple[float, str]]:
        out = {}
        for name, unit in PER_LAYER:
            if unit == "count":
                out[name] = (self.counts.get(name, 0), unit)
            elif name in self.values:
                out[name] = (self.values[name], unit)
            else:
                out[name] = (self.total_ms(name[: -len("_ms")]), unit)
        return out


# ----------------------------------------------------------------------
# Layer calls shared by several commands
# ----------------------------------------------------------------------
def run_child(argv: list[str], env: dict, cwd: Path) -> tuple[float, str]:
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, *argv], cwd=cwd, env=env, capture_output=True, text=True,
        timeout=150, check=True,
    )
    return time.perf_counter() - start, done.stdout


def trace_startup(t: Tracer, env: dict, cwd: Path) -> float:
    """``cli.startup``: a fresh ``import repro.cli``; returns ``--help`` wall (s)."""
    imports, helps = [], []
    probe = "import time; t = time.perf_counter(); import repro.cli; print(time.perf_counter() - t)"
    for _ in range(STARTUP_SAMPLES):
        with t.span("cli.startup.process"):
            _, out = run_child(["-c", probe], env, cwd)
        imports.append(float(out.strip()) * 1000)
        with t.span("cli.help.process"):
            wall, _ = run_child(["-m", "repro", "--help"], env, cwd)
        helps.append(wall)
    t.values["cli.startup_ms"] = statistics.median(imports)
    return statistics.median(helps)


def load_policy(t: Tracer, path: Path) -> Firewall:
    with t.span("policy.load"):
        return load(path)


def store_construct(t: Tracer, firewalls):
    store = NodeStore()
    with t.span("store.construct"):
        built = [store.construct(fw) for fw in firewalls]
    stats = store.stats()
    for key in ("nodes_created", "edges_created", "append_memo", "op_memo"):
        t.add(f"store.{key}", stats[key])
    return store, built


def product_cells(t: Tracer, fdd_a, fdd_b, store: NodeStore):
    with t.span("fast.product"):
        diff = build_difference(fdd_a, fdd_b, store=store)
    with t.span("fast.cells"):
        cells = diff.discrepancies()
    t.add("diff.nodes", diff.node_count())
    t.add("diff.paths", diff.path_count())
    t.add("diff.cells", len(cells))
    return cells


def aggregate(t: Tracer, cells):
    with t.span("analysis.aggregate"):
        regions = aggregate_discrepancies(cells)
    t.add("analysis.cells_in", len(cells))
    t.add("analysis.regions_out", len(regions))
    return regions


def render_table(t: Tracer, regions, a: Firewall, b: Firewall) -> None:
    with t.span("analysis.render"):
        format_discrepancy_table(regions, name_a=a.name or "A", name_b=b.name or "B")


def trace_impact(t: Tracer, path_a: Path, path_b: Path) -> tuple[Firewall, Firewall]:
    """``repro impact A B``: store construction, product walk, aggregation."""
    with t.span("cmd.impact"):
        a, b = load_policy(t, path_a), load_policy(t, path_b)
        store, (fa, fb) = store_construct(t, [a, b])
        regions = aggregate(t, product_cells(t, fa, fb, store))
        with t.span("analysis.render"):
            ChangeImpactReport(before=a, after=b, discrepancies=regions).render()
    with t.span("analysis.impact"):
        analyze_change(a, b)
    return a, b


def count_rules(t: Tracer, firewalls) -> None:
    t.add("policy.rules", sum(len(fw) for fw in firewalls))


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def read_packets(path: Path) -> list[tuple[int, ...]]:
    packets = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            src, dst, sport, dport, proto = line.split()
            packets.append((ip_to_int(src), ip_to_int(dst), int(sport), int(dport), int(proto)))
    return packets


def trace_design_diff(t: Tracer, w, env: dict) -> None:
    from repro.parallel import compare_parallel, shutdown_pools

    help_s = trace_startup(t, env, w.workdir)
    fw_a, fw_b = trace_impact(t, w.files["a"], w.files["b"])
    count_rules(t, [fw_a, fw_b])

    with t.span("cmd.compare_jobs2"):
        try:
            with t.span("parallel.first_call"):
                first = compare_parallel(fw_a, fw_b, jobs=2, enumerate_discrepancies=True)
            with t.span("parallel.steady"):
                steady = compare_parallel(fw_a, fw_b, jobs=2, enumerate_discrepancies=True)
        finally:
            shutdown_pools()
        regions = aggregate(t, list(steady.discrepancies))
        render_table(t, regions, fw_a, fw_b)
    phases = steady.phase_ms
    t.values["parallel.construct_ms"] = phases.get("construct_wall_ms", 0.0)
    t.values["parallel.publish_ms"] = phases.get("publish_ms", 0.0)
    t.values["parallel.shard_ms"] = phases.get("shard_wall_ms", 0.0)
    first_ms, steady_ms = t.total_ms("parallel.first_call"), t.total_ms("parallel.steady")
    t.values["parallel.pool_start_ms"] = first_ms - steady_ms
    t.add("parallel.degradations", len(first.degradations) + len(steady.degradations))

    with t.span("cmd.query"):
        with t.span("cmd.query.process"):
            wall, _ = run_child(
                ["-m", "repro", "query", "a.fw", "--batch", "packets.txt", "--format", "json"],
                env, w.workdir,
            )
        load_ms = -t.total_ms("policy.load")
        firewall = load_policy(t, w.files["a"])
        load_ms += t.total_ms("policy.load")
        with t.span("classify.compile"):
            matcher = compile_firewall(firewall)
        packets = read_packets(w.files["packets"])
        with t.span("classify.kernel"):
            matcher.classify_batch(packets)
    stats = matcher.stats()
    t.add("matcher.nodes", stats["nodes"])
    t.add("matcher.segments", stats["segments"])
    # Ingest (reading and parsing the packet file) is not a public
    # function, so it is what remains of the query process's wall time.
    t.values["classify.ingest_ms"] = 1000 * (wall - help_s) - (
        load_ms + t.total_ms("classify.compile") + t.total_ms("classify.kernel")
    )


def trace_team_review(t: Tracer, w, env: dict) -> None:
    trace_startup(t, env, w.workdir)
    with t.span("cmd.compare"):
        a, b = load_policy(t, w.files["a"]), load_policy(t, w.files["b"])
        with t.span("ref.construct"):
            fa, fb = construct_fdd(a), construct_fdd(b)
        with t.span("ref.shape"):
            shaped_a, shaped_b = make_semi_isomorphic(fa, fb)
        with t.span("ref.compare"):
            cells = compare_shaped(shaped_a, shaped_b)
        t.add("ref.cells", len(cells))
        render_table(t, aggregate(t, cells), a, b)
    trace_impact(t, w.files["a"], w.files["b"])

    text = w.files["dump"].read_text(encoding="utf-8")
    with t.span("cmd.lint"):
        with t.span("policy.parse_ir"):
            firewall = parse_policy(text, "iptables").to_firewall()
        with t.span("lint"):
            report = run_lint(firewall)
    t.add("lint.findings", len(report.diagnostics))
    count_rules(t, [a, b, firewall])

    with t.span("cmd.simplify"):
        with t.span("policy.parse_ir"):
            firewall = parse_policy(text, "iptables").to_firewall()
        with t.span("effective"):
            analysis = effective_rules(firewall, engine="fast")
        dead = set(analysis.dead_indices())
        alive = Firewall(
            firewall.schema, [r for i, r in enumerate(firewall.rules) if i not in dead]
        )
        with t.span("redundancy"):
            remove_redundant_rules(alive)
        with t.span("generation"):
            generate_firewall(analysis.fdd, reduce=True, compact=True, store=analysis.store)
        with t.span("fingerprint"):
            semantic_fingerprint(firewall)
        with t.span("simplify"):
            result = simplify_firewall(firewall)
        with t.span("policy.emit"):
            emit_policy(result.firewall, "nftables")
    t.add("simplify.rules_before", result.rules_before)
    t.add("simplify.rules_after", result.rules_after)


def trace_fleet_audit(t: Tracer, w, env: dict) -> None:
    trace_startup(t, env, w.workdir)
    files = w.files
    cache_dir = w.workdir / "trace-cache"
    checkset = resolve_checkset(w.sizes["checks"])
    member = files["edit_member"]
    member.write_text(files["original_text"], encoding="utf-8")

    def audit(span: str):
        manifest = load_manifest(str(files["fleet"]), baseline=str(files["baseline"]))
        with t.span(span):
            report = audit_fleet(manifest, checkset=checkset, cache=ResultCache(cache_dir))
        stats = report.stats
        t.add("audit.fdd_constructions", stats.fdd_constructions)
        t.add("audit.fully_cached", stats.fully_cached)
        t.add("audit.cache_hits", report.cache_stats["hits"])
        t.add("audit.cache_misses", report.cache_stats["misses"])

    try:
        audit("audit.cold")
        audit("audit.warm")
        member.write_text(files["edited_text"], encoding="utf-8")
        audit("audit.edit")
    finally:
        member.write_text(files["original_text"], encoding="utf-8")

    # What a cold audit does per member, call by call, for attribution.
    with t.span("cmd.audit_cold.layers"):
        baseline = load_policy(t, files["baseline"])
        members = [load_policy(t, path) for path in sorted(files["fleet"].rglob("*.fw"))]
        count_rules(t, [baseline] + members)
        for firewall in members:
            store, (fb, fm) = store_construct(t, [baseline, firewall])
            with t.span("fingerprint"):
                semantic_fingerprint(firewall)
            with t.span("lint"):
                report = run_lint(firewall)
            t.add("lint.findings", len(report.diagnostics))
            aggregate(t, product_cells(t, fb, fm, store))


TRACERS = {
    "design-diff": trace_design_diff,
    "team-review": trace_team_review,
    "fleet-audit": trace_fleet_audit,
}
