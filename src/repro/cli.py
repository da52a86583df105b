"""Command-line interface: ``python -m repro <command> ...``.

Puts the paper's workflows at an administrator's fingertips, over policy
files in the library's text format (see :mod:`repro.policy.parser`):

.. code-block:: console

    $ python -m repro compare team_a.fw team_b.fw
    $ python -m repro impact before.fw after.fw
    $ python -m repro equivalent a.fw b.fw
    $ python -m repro query policy.fw "count accept where dst_port=smtp"
    $ python -m repro query policy.fw --batch packets.txt --format json
    $ python -m repro serve-bench team_a.fw team_b.fw --packets 50000
    $ python -m repro lint policy.fw --format sarif
    $ python -m repro export policy.fw --format iptables
    $ python -m repro import rules.v4 --format iptables
    $ python -m repro show policy.fw
    $ python -m repro fingerprint policy.fw
    $ python -m repro slice policy.fw "dst_ip=192.168.0.1"
    $ python -m repro audit --manifest fleet/ --baseline golden.fw \\
          --cache-dir .audit-cache --format sarif

All commands exit 0 on success; ``compare`` and ``impact`` exit 1 when
discrepancies exist, ``equivalent`` exits 1 when the policies differ, and
``lint`` exits 1 when findings reach the ``--fail-on`` threshold, so the
commands compose into shell checks (e.g. CI gates on policy changes).

``compare``, ``equivalent``, and ``impact`` accept execution budgets
(see ``docs/robustness.md``): ``--deadline SECONDS`` and
``--max-nodes N`` bound the run, and ``--approx-fallback`` degrades to
sampling-based comparison instead of failing when the budget trips.
The same three commands accept ``--jobs N`` to shard the comparison
across worker processes (they all run the same comparison underneath);
a pair too small to repay the workers' start-up is compared serially.
Exit codes:

* ``0`` — success (no discrepancies / equivalent / no-op change);
* ``1`` — discrepancies found (exact result);
* ``2`` — usage or input error;
* ``3`` — budget exceeded and no fallback requested;
* ``4`` — budget exceeded, approximate (sampled) report produced;
* ``5`` — correct but degraded: the result is exact and otherwise
  exit-0, but at least one parallel shard exhausted its retries and was
  re-executed serially (``--jobs`` runs only; see ``repro chaos`` and
  ``docs/robustness.md``);
* ``141`` — stdout was closed by its reader (``... | head -1``); the
  rest of the output is dropped without a traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from repro.exceptions import BudgetExceededError, ParseError, ReproError

__all__ = [
    "main",
    "build_parser",
    "EXIT_OK",
    "EXIT_DISCREPANCIES",
    "EXIT_ERROR",
    "EXIT_BUDGET_EXCEEDED",
    "EXIT_APPROXIMATE",
    "EXIT_DEGRADED",
    "EXIT_BROKEN_PIPE",
]

#: Exit codes (documented in docs/robustness.md).
EXIT_OK = 0
EXIT_DISCREPANCIES = 1
EXIT_ERROR = 2
EXIT_BUDGET_EXCEEDED = 3
EXIT_APPROXIMATE = 4
EXIT_DEGRADED = 5
#: Stdout closed by its reader; what a shell reports for a SIGPIPE kill.
EXIT_BROKEN_PIPE = 141


# The registered dialect names, spelled out so that building the parser
# imports no dialect code; tests pin them to
# repro.policy.frontends.dialect_names().
_DIALECTS = ("cisco", "iptables", "native", "nftables")


def _add_guard_options(sub, *, fallback: bool = True) -> None:
    """Budget options shared by the comparison-shaped commands."""
    sub.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget; exceeding it aborts with exit code 3",
    )
    sub.add_argument(
        "--max-nodes",
        type=int,
        default=None,
        metavar="N",
        help="cap on FDD nodes expanded across the whole pipeline",
    )
    if fallback:
        sub.add_argument(
            "--approx-fallback",
            action="store_true",
            help=(
                "on budget exhaustion, fall back to sampling-based"
                " comparison (approximate report, exit code 4)"
            ),
        )


def _jobs(text: str) -> int:
    """argparse type of every ``--jobs`` option: a positive worker count."""
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


def _add_jobs_option(sub) -> None:
    """``--jobs N``: shard the comparison across worker processes."""
    sub.add_argument(
        "--jobs",
        type=_jobs,
        default=1,
        metavar="N",
        help=(
            "shard the comparison across N worker processes"
            " (1 = serial, in this process); a pair whose two policies"
            " build in fewer partition visits than starting the workers"
            " would cost stays serial, with the serial output"
        ),
    )


def _compare_pair(fw_a, fw_b, args, *, aggregate: bool = False):
    """The one comparison behind ``compare``, ``equivalent`` and ``impact``.

    Runs :func:`~repro.analysis.analyze_change`, which picks the serial
    store engine or the sharded one from ``--jobs``.  Returns ``(report,
    coverage)``: ``coverage`` is ``None`` for an exact report, else the
    sampled fraction of the packet universe.  A budget trip propagates
    (exit code 3 via :func:`main`) unless ``--approx-fallback`` asks for
    the sampling comparator instead.  Degraded shards (the result is
    still exact) are reported on stderr here.
    """
    from repro.analysis.impact import ChangeImpactReport, analyze_change

    guard = _guard_from_args(args)
    try:
        report = analyze_change(
            fw_a, fw_b, aggregate=aggregate, guard=guard, jobs=args.jobs
        )
    except BudgetExceededError:
        if not getattr(args, "approx_fallback", False):
            raise
        from repro.analysis.aggregate import aggregate_discrepancies
        from repro.analysis.approximate import approximate_compare

        sampled = approximate_compare(fw_a, fw_b)
        discs = list(sampled.discrepancies)
        if aggregate:
            discs = aggregate_discrepancies(discs)
        return ChangeImpactReport(fw_a, fw_b, discs), sampled.coverage
    _warn_degraded(report.degradations)
    return report, None


def _warn_degraded(degradations) -> None:
    """One stderr line per degraded shard (never pollutes stdout)."""
    for item in degradations:
        print(
            f"warning: shard {item['shard']} degraded to serial execution"
            f" ({item['reason']} after {item['retries']} attempt(s));"
            " result is still exact",
            file=sys.stderr,
        )


def _budget_from_args(args):
    """A :class:`~repro.guard.Budget` from ``--deadline``/``--max-nodes``, or ``None``."""
    if args.deadline is None and args.max_nodes is None:
        return None
    from repro.guard.budget import Budget

    return Budget(deadline_s=args.deadline, max_nodes=args.max_nodes)


def _guard_from_args(args):
    """A :class:`~repro.guard.GuardContext` over the budget options, or ``None``."""
    budget = _budget_from_args(args)
    if budget is None:
        return None
    from repro.guard.context import GuardContext

    return GuardContext(budget)


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree (exposed for doc generation and tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Diverse firewall design: compare, resolve, audit policies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compare = sub.add_parser(
        "compare", help="all functional discrepancies between two policies"
    )
    compare.add_argument("policy_a")
    compare.add_argument("policy_b")
    compare.add_argument(
        "--raw", action="store_true", help="print raw cells (skip aggregation)"
    )
    _add_guard_options(compare)
    _add_jobs_option(compare)

    impact = sub.add_parser(
        "impact", help="change impact analysis: before vs after"
    )
    impact.add_argument("before")
    impact.add_argument("after")
    _add_guard_options(impact, fallback=False)
    _add_jobs_option(impact)

    equivalent = sub.add_parser(
        "equivalent", help="check two policies for semantic equivalence"
    )
    equivalent.add_argument("policy_a")
    equivalent.add_argument("policy_b")
    _add_guard_options(equivalent)
    _add_jobs_option(equivalent)

    query = sub.add_parser("query", help="answer a query against a policy")
    query.add_argument("policy")
    query.add_argument(
        "text", nargs="?", default=None, help='e.g. "count accept where dst_port=smtp"'
    )
    query.add_argument(
        "--batch",
        default=None,
        metavar="FILE",
        help=(
            "classify packets listed in FILE (one packet per line, values"
            " in schema field order; '-' reads stdin) through the compiled"
            " matcher and print a summary"
        ),
    )
    query.add_argument(
        "--format",
        dest="fmt",
        choices=("text", "json"),
        default="text",
        help="batch summary format (default: text)",
    )

    serve_bench = sub.add_parser(
        "serve-bench",
        help="compile policies into a serving cache and measure lookup throughput",
    )
    serve_bench.add_argument("policies", nargs="+")
    serve_bench.add_argument(
        "--packets",
        type=int,
        default=20000,
        metavar="N",
        help="synthetic packets per policy for the throughput run (default 20000)",
    )
    serve_bench.add_argument(
        "--seed", type=int, default=97, help="packet sampler seed (default 97)"
    )
    serve_bench.add_argument(
        "--capacity",
        type=int,
        default=8,
        metavar="N",
        help="artifact cache capacity (default 8)",
    )
    serve_bench.add_argument(
        "--json",
        dest="json_path",
        default=None,
        metavar="PATH",
        help="write the full report as JSON to PATH",
    )
    _add_guard_options(serve_bench, fallback=False)

    lint = sub.add_parser(
        "lint", help="static analysis: structured diagnostics over a policy"
    )
    lint.add_argument("policy", nargs="?", help="policy file (omit with --list-checks)")
    lint.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        dest="fmt",
        help="output format (sarif targets SARIF 2.1.0 for code scanning)",
    )
    lint.add_argument(
        "--enable",
        action="append",
        metavar="CODE",
        default=None,
        help="run only the listed checks (repeatable; codes or names)",
    )
    lint.add_argument(
        "--disable",
        action="append",
        metavar="CODE",
        default=None,
        help="skip the listed checks (repeatable; codes or names)",
    )
    lint.add_argument(
        "--fail-on",
        choices=("error", "warning", "never"),
        default="error",
        dest="fail_on",
        help="lowest severity that makes the command exit 1 (default: error)",
    )
    lint.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help=(
            "diff against a prior SARIF report (from 'repro lint --format"
            " sarif'): only NEW diagnostics are reported and gate the exit"
            " code"
        ),
    )
    lint.add_argument(
        "--list-checks",
        action="store_true",
        dest="list_checks",
        help="print the check catalog (code, severity, summary) and exit",
    )
    lint.add_argument(
        "--dialect",
        choices=_DIALECTS,
        default=None,
        help=(
            "parse the policy as a device dump in this dialect; findings"
            " then point at real lines in the dump (default: native)"
        ),
    )
    lint.add_argument(
        "--chain",
        default=None,
        help="chain to import for iptables/nftables dialects",
    )
    _add_guard_options(lint, fallback=False)

    export = sub.add_parser("export", help="render in a device-style format")
    export.add_argument("policy")
    export.add_argument(
        "--format",
        choices=("iptables", "cisco", "nftables", "native", "text"),
        default="text",
        dest="fmt",
    )

    simplify = sub.add_parser(
        "simplify",
        help=(
            "emit a provably equivalent policy with <= as many rules,"
            " in any registered dialect"
        ),
    )
    simplify.add_argument("policy", help="policy/dump file to simplify")
    simplify.add_argument(
        "--from",
        dest="from_dialect",
        choices=_DIALECTS,
        default="native",
        help="input dialect (default: native)",
    )
    simplify.add_argument(
        "--to",
        dest="to_dialect",
        choices=_DIALECTS,
        default="native",
        help="output dialect (default: native)",
    )
    simplify.add_argument(
        "--chain",
        default=None,
        help="chain to import for iptables/nftables inputs",
    )
    simplify.add_argument(
        "--stats-json",
        dest="stats_json",
        default=None,
        metavar="FILE",
        help="also write the reduction summary as JSON to FILE",
    )
    _add_guard_options(simplify, fallback=False)

    show = sub.add_parser("show", help="pretty-print a policy as a table")
    show.add_argument("policy")

    fingerprint = sub.add_parser(
        "fingerprint",
        help="semantic fingerprint (equal fingerprints = equal semantics)",
    )
    fingerprint.add_argument("policy")

    slice_cmd = sub.add_parser(
        "slice", help="the part of the policy deciding a region"
    )
    slice_cmd.add_argument("policy")
    slice_cmd.add_argument(
        "region", help='e.g. "dst_ip=192.168.0.1, dst_port=smtp"'
    )

    audit = sub.add_parser(
        "audit",
        help=(
            "lint, compare and impact over a fleet of policies as one"
            " text/JSON/SARIF report"
        ),
    )
    audit.add_argument(
        "--manifest",
        required=True,
        metavar="PATH",
        help=(
            "a directory of *.fw policies or a JSON manifest (tenants,"
            " budgets, baselines); see docs/auditing.md"
        ),
    )
    audit.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="fleet-wide comparison baseline policy (per-policy baselines win)",
    )
    audit.add_argument(
        "--cache-dir",
        default=None,
        dest="cache_dir",
        metavar="DIR",
        help=(
            "content-addressed result cache: re-audits only touch changed"
            " policies (created if missing)"
        ),
    )
    audit.add_argument(
        "--cache-max-mb",
        type=float,
        default=None,
        dest="cache_max_mb",
        metavar="N",
        help=(
            "bound the result cache's objects/ store to ~N MiB with LRU"
            " garbage collection (requires --cache-dir)"
        ),
    )
    audit.add_argument(
        "--checks",
        default=None,
        metavar="SPEC",
        help=(
            "stages to run: 'all' (default), or comma-separated from"
            " lint,simplify,compare,impact; 'lint=FW001+FW002' restricts"
            " the lint checks"
        ),
    )
    audit.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        dest="fmt",
        help="aggregated report format (sarif targets SARIF 2.1.0)",
    )
    audit.add_argument(
        "--fail-on",
        choices=("error", "warning", "divergence", "never"),
        default="error",
        dest="fail_on",
        help=(
            "what makes the audit exit 1: 'error' = lint errors or"
            " newly-allowed traffic (default), 'warning' also counts"
            " warnings and any divergence, 'divergence' only baseline"
            " divergence, 'never' always exits 0"
        ),
    )
    audit.add_argument(
        "--explain-cache",
        action="store_true",
        dest="explain_cache",
        help="explain each policy's cache resolution on stderr",
    )

    chaos = sub.add_parser(
        "chaos",
        help=(
            "run the seeded fault-injection scenarios against the"
            " supervised parallel engine"
        ),
    )
    chaos.add_argument(
        "--jobs",
        type=_jobs,
        default=2,
        metavar="N",
        help="worker processes per scenario run (default: 2)",
    )
    chaos.add_argument(
        "--seed",
        type=int,
        default=29,
        metavar="S",
        help="seed for the scenario policies (default: 29)",
    )
    chaos.add_argument(
        "--rules",
        type=int,
        default=10,
        metavar="N",
        help="rules per generated policy (default: 10)",
    )
    chaos.add_argument(
        "--scenario",
        action="append",
        metavar="NAME",
        default=None,
        help="run only the named scenario (repeatable; default: all)",
    )
    chaos.add_argument(
        "--start-method",
        choices=("fork", "spawn", "forkserver"),
        default=None,
        dest="start_method",
        help="multiprocessing start method (default: platform default)",
    )
    chaos.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        dest="json_path",
        help="also write the full suite report as JSON to PATH",
    )
    chaos.add_argument(
        "--list-scenarios",
        action="store_true",
        dest="list_scenarios",
        help="print the scenario catalogue and exit",
    )

    imp = sub.add_parser(
        "import", help="convert a device config to the policy text format"
    )
    imp.add_argument("config")
    imp.add_argument(
        "--format",
        choices=("iptables", "cisco", "nftables"),
        required=True,
        dest="fmt",
    )
    imp.add_argument(
        "--chain",
        default=None,
        help="chain to import for iptables/nftables dumps",
    )
    imp.add_argument(
        "--schema-header",
        action="store_true",
        help="emit a self-describing 'firewall ... schema=...' header",
    )
    return parser


def _cmd_compare(args) -> int:
    from repro.analysis.discrepancy import format_discrepancy_table
    from repro.policy.parser import load

    fw_a = load(args.policy_a)
    fw_b = load(args.policy_b)
    report, coverage = _compare_pair(fw_a, fw_b, args, aggregate=not args.raw)
    discs = report.discrepancies
    if not discs:
        if coverage is not None:
            print(
                "no disagreement found by sampling"
                f" (approximate; coverage ~{coverage:.2e});"
                " equivalence NOT proven"
            )
            return EXIT_APPROXIMATE
        print("the two policies are semantically equivalent")
        return EXIT_DEGRADED if report.degradations else EXIT_OK
    title = f"{len(discs)} functional discrepancy region(s)"
    if coverage is not None:
        title += f" (approximate: sampled, coverage ~{coverage:.2e})"
    print(
        format_discrepancy_table(
            discs,
            name_a=fw_a.name or "A",
            name_b=fw_b.name or "B",
            title=title,
        )
    )
    return EXIT_APPROXIMATE if coverage is not None else EXIT_DISCREPANCIES


def _cmd_impact(args) -> int:
    from repro.policy.parser import load

    report, _ = _compare_pair(load(args.before), load(args.after), args, aggregate=True)
    print(report.render())
    if report.is_noop:
        return EXIT_DEGRADED if report.degradations else EXIT_OK
    return EXIT_DISCREPANCIES


def _cmd_equivalent(args) -> int:
    from repro.analysis.aggregate import aggregate_discrepancies
    from repro.policy.parser import load

    report, coverage = _compare_pair(load(args.policy_a), load(args.policy_b), args)
    discs = report.discrepancies
    if coverage is not None:
        if discs:
            # A sampled disagreement is a concrete witness packet, so
            # non-equivalence is proven even though the report is partial.
            print(f"NOT equivalent: {len(discs)} witness packet(s) found by sampling")
            return EXIT_DISCREPANCIES
        print(
            "no disagreement found by sampling"
            f" (approximate; coverage ~{coverage:.2e});"
            " equivalence NOT proven"
        )
        return EXIT_APPROXIMATE
    if discs:
        print(f"NOT equivalent: {len(aggregate_discrepancies(discs))} region(s) differ")
        return EXIT_DISCREPANCIES
    print("equivalent")
    return EXIT_DEGRADED if report.degradations else EXIT_OK


def _cmd_query(args) -> int:
    if args.batch is not None:
        return _query_batch(args)
    if args.text is None:
        print("error: provide a query string or --batch FILE", file=sys.stderr)
        return EXIT_ERROR
    from repro.analysis.query_language import run_query
    from repro.policy.parser import load

    print(run_query(args.text, load(args.policy)))
    return 0


def _read_packets(handle, schema) -> list[tuple[int, ...]]:
    """Parse a packet-per-line stream using the schema's vocabulary.

    Values appear in schema field order, separated by commas and/or
    whitespace; each may be anything the field parses to a *single*
    value (integers, dotted quads, service or protocol names).  Blank
    lines and ``#`` comments are skipped.  Returns one tuple of ints per
    packet.

    Dotted quads on IP fields and plain ASCII integers on other fields
    convert directly; every other token, and any value outside its
    field's domain, goes through :meth:`Field.parse_value_set`, so each
    error reads as the field's own parser words it.
    """
    from repro.addr.ipv4 import ascii_digits, ip_to_int
    from repro.exceptions import AddressError
    from repro.fields.schema import FieldKind

    width = len(schema)
    columns = [(field, field.kind is FieldKind.IP, field.max_value) for field in schema]
    packets = []
    for lineno, line in enumerate(handle, 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        tokens = body.replace(",", " ").split()
        if len(tokens) != width:
            raise ParseError(
                f"line {lineno}: expected {width} field value(s),"
                f" got {len(tokens)}"
            )
        values = []
        for (field, is_ip, top), token in zip(columns, tokens):
            if is_ip:
                try:
                    value = ip_to_int(token)
                except AddressError:
                    value = -1
            elif ascii_digits(token):
                value = int(token)
            else:
                value = -1
            if not 0 <= value <= top:
                value = _parse_packet_value(field, token, lineno)
            values.append(value)
        packets.append(tuple(values))
    return packets


def _parse_packet_value(field, token: str, lineno: int) -> int:
    """``token`` as exactly one value of ``field``, by the field's parser."""
    try:
        value_set = field.parse_value_set(token)
    except ReproError as exc:
        raise ParseError(f"line {lineno}: {field.name}: {exc}") from exc
    if value_set.count() != 1:
        raise ParseError(
            f"line {lineno}: {field.name}: {token!r} names"
            f" {value_set.count()} values, need exactly one"
        )
    return value_set.min()


def _query_batch(args) -> int:
    import json
    import time

    from repro.classify.compiler import compile_firewall
    from repro.policy.parser import load

    firewall = load(args.policy)
    if args.batch == "-":
        packets = _read_packets(sys.stdin, firewall.schema)
    else:
        with open(args.batch, "r", encoding="utf-8") as handle:
            packets = _read_packets(handle, firewall.schema)
    matcher = compile_firewall(firewall)
    start = time.perf_counter()
    decisions = matcher.classify_batch(packets)
    elapsed = time.perf_counter() - start
    counts: dict[str, int] = {}
    for decision in decisions:
        counts[str(decision)] = counts.get(str(decision), 0) + 1
    summary = {
        "packets": len(packets),
        "counts": dict(sorted(counts.items())),
        "elapsed_ms": round(elapsed * 1000, 3),
        "per_lookup_us": (
            round(elapsed / len(packets) * 1e6, 3) if packets else None
        ),
        "matcher": matcher.stats(),
    }
    if args.fmt == "json":
        print(json.dumps(summary, indent=2, sort_keys=True))
        return EXIT_OK
    print(
        f"classified {summary['packets']} packet(s) in {summary['elapsed_ms']} ms"
        + (
            f" ({summary['per_lookup_us']} us/lookup)"
            if summary["per_lookup_us"] is not None
            else ""
        )
    )
    for name, count in summary["counts"].items():
        print(f"  {name:<14} {count}")
    stats = summary["matcher"]
    print(
        f"matcher: {stats['nodes']} node(s), {stats['segments']} segment(s),"
        f" {stats['size_bytes']} B"
    )
    return EXIT_OK


def _cmd_serve_bench(args) -> int:
    import json
    import time

    from repro.fields.packet import PacketSampler
    from repro.policy.parser import load
    from repro.serve.server import PolicyServer

    budget = _budget_from_args(args)
    server = PolicyServer(capacity=args.capacity, budget=budget)
    rows = []
    for path in args.policies:
        firewall = load(path)
        start = time.perf_counter()
        fingerprint = server.load(firewall, name=path)
        load_ms = (time.perf_counter() - start) * 1000
        matcher = server.matcher(path)
        sampler = PacketSampler(firewall.schema, seed=args.seed)
        packets = sampler.uniform_many(max(1, args.packets))
        matcher.batch_kernel()  # a serving process builds it once, up front
        start = time.perf_counter()
        decisions = matcher.classify_batch(packets)
        compiled_s = time.perf_counter() - start
        sample = packets[: min(len(packets), 2000)]
        start = time.perf_counter()
        baseline = [firewall.evaluate(p) for p in sample]
        baseline_s = time.perf_counter() - start
        if decisions[: len(sample)] != baseline:
            print(f"error: decision mismatch for {path}", file=sys.stderr)
            return EXIT_DISCREPANCIES
        counts: dict[str, int] = {}
        for decision in decisions:
            counts[str(decision)] = counts.get(str(decision), 0) + 1
        compiled_us = compiled_s / len(packets) * 1e6
        baseline_us = baseline_s / len(sample) * 1e6
        row = {
            "policy": path,
            "fingerprint": fingerprint,
            "rules": len(firewall),
            "load_ms": round(load_ms, 3),
            "packets": len(packets),
            "counts": dict(sorted(counts.items())),
            "compiled_us_per_lookup": round(compiled_us, 4),
            "firewall_us_per_lookup": round(baseline_us, 4),
            "speedup_vs_firewall": round(baseline_us / compiled_us, 2)
            if compiled_us
            else None,
            "matcher": matcher.stats(),
        }
        rows.append(row)
        print(
            f"{path}: {row['rules']} rule(s) -> {row['matcher']['nodes']} node(s),"
            f" {row['matcher']['size_bytes']} B, loaded in {row['load_ms']} ms"
        )
        print(
            f"  compiled {row['compiled_us_per_lookup']} us/lookup vs firewall"
            f" {row['firewall_us_per_lookup']} us/lookup"
            f" ({row['speedup_vs_firewall']}x)"
        )
    stats = server.stats()
    print(
        f"cache: {stats['artifacts']}/{stats['capacity']} artifact(s),"
        f" {stats['compiles']} compile(s), {stats['hits']} hit(s),"
        f" {stats['evictions']} eviction(s), {stats['size_bytes']} B resident"
    )
    report = {"policies": rows, "cache": stats}
    if args.json_path is not None:
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return EXIT_OK


def _cmd_lint(args) -> int:
    from repro.lint.diagnostic import Severity
    from repro.lint.engine import all_checks, run_lint
    from repro.lint.render import render_json, render_sarif, render_text

    if args.list_checks:
        for info in all_checks():
            print(
                f"{info.code}  v{info.version}  {info.name:<22}"
                f" {info.severity.value:<8} {info.summary}"
            )
        return EXIT_OK
    if args.policy is None:
        print("error: a policy file is required (or pass --list-checks)", file=sys.stderr)
        return EXIT_ERROR
    firewall = _load_dialect(args.policy, args.dialect, chain=args.chain)
    report = run_lint(
        firewall, enable=args.enable, disable=args.disable, guard=_guard_from_args(args)
    )
    if args.baseline is not None:
        from repro.lint.baseline import load_baseline, new_findings

        known = load_baseline(args.baseline)
        total = len(report.diagnostics)
        report = new_findings(report, known)
        if args.fmt == "text":
            print(
                f"# baseline {args.baseline}: {total - len(report.diagnostics)}"
                f" known finding(s) suppressed, {len(report.diagnostics)} new"
            )
    render = {"text": render_text, "json": render_json, "sarif": render_sarif}[args.fmt]
    print(render(report, path=args.policy))
    if args.fail_on == "never":
        return EXIT_OK
    threshold = Severity.ERROR if args.fail_on == "error" else Severity.WARNING
    return EXIT_DISCREPANCIES if report.has_at_least(threshold) else EXIT_OK


def _load_dialect(path: str, dialect: str | None, *, chain: str | None = None):
    """Load a policy file, optionally parsing it as a device dialect."""
    if dialect is None or dialect == "native":
        from repro.policy.parser import load

        return load(path)
    from repro.policy.frontends import parse_policy

    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return parse_policy(text, dialect, chain=chain).to_firewall()


def _cmd_export(args) -> int:
    from repro.policy.parser import load

    firewall = load(args.policy)
    if args.fmt == "text":
        from repro.policy.serializer import dumps

        sys.stdout.write(dumps(firewall))
    else:
        from repro.policy.frontends import emit_policy

        sys.stdout.write(emit_policy(firewall, args.fmt))
    return 0


def _cmd_simplify(args) -> int:
    from repro.simplify import simplify_text

    with open(args.policy, "r", encoding="utf-8") as handle:
        text = handle.read()
    emitted, result = simplify_text(
        text,
        from_dialect=args.from_dialect,
        to_dialect=args.to_dialect,
        chain=args.chain,
        guard=_guard_from_args(args),
    )
    sys.stdout.write(emitted)
    print(
        f"# simplify: {result.rules_before} -> {result.rules_after} rule(s)"
        f" ({result.removed_dead} dead, {result.removed_redundant} redundant,"
        f" strategy={result.strategy});"
        f" fingerprint {result.fingerprint[:16]} verified",
        file=sys.stderr,
    )
    if args.stats_json is not None:
        import json

        with open(args.stats_json, "w", encoding="utf-8") as handle:
            json.dump(result.summary(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    return EXIT_OK


def _cmd_show(args) -> int:
    from repro.policy.parser import load
    from repro.policy.serializer import to_table

    print(to_table(load(args.policy)))
    return 0


def _cmd_fingerprint(args) -> int:
    from repro.fdd.canonical import semantic_fingerprint
    from repro.policy.parser import load

    print(semantic_fingerprint(load(args.policy)))
    return 0


def _cmd_slice(args) -> int:
    from repro.analysis.slicing import relevant_rules, slice_firewall
    from repro.policy.parser import load
    from repro.policy.serializer import to_table

    firewall = load(args.policy)
    region = _parse_region(args.region, firewall.schema)
    indices = relevant_rules(firewall, region)
    print(
        f"# rules deciding the region: {', '.join(f'r{i + 1}' for i in indices) or '(none)'}"
    )
    print(to_table(slice_firewall(firewall, region)))
    return 0


def _parse_region(text: str, schema):
    """Parse a 'field=values, field=values' region description.

    Commas split conjuncts as in a rule line: a piece without ``=``
    continues the previous field's value list (``dst_port=25,80``).
    """
    from repro.policy.parser import _split_conjuncts
    from repro.policy.predicate import Predicate

    conjuncts = {}
    for chunk in _split_conjuncts(text):
        name, _, values = chunk.partition("=")
        conjuncts[name.strip()] = values.strip()
    return Predicate.from_fields(schema, **conjuncts)


def _cmd_audit(args) -> int:
    from repro.analysis.impact import ImpactKind
    from repro.audit.cache import ResultCache
    from repro.audit.checkset import resolve_checkset
    from repro.audit.manifest import load_manifest
    from repro.audit.pipeline import audit_fleet
    from repro.audit.report import JsonAuditWriter, SarifAuditWriter, TextAuditWriter

    manifest = load_manifest(args.manifest, baseline=args.baseline)
    checkset = resolve_checkset(args.checks)
    if args.cache_max_mb is not None and args.cache_dir is None:
        print("error: --cache-max-mb requires --cache-dir", file=sys.stderr)
        return EXIT_ERROR
    max_bytes = (
        int(args.cache_max_mb * 1024 * 1024)
        if args.cache_max_mb is not None
        else None
    )
    cache = (
        ResultCache(args.cache_dir, max_bytes=max_bytes)
        if args.cache_dir is not None
        else None
    )
    writer_cls = {
        "text": TextAuditWriter,
        "json": JsonAuditWriter,
        "sarif": SarifAuditWriter,
    }[args.fmt]
    writer = writer_cls(sys.stdout)
    writer.begin()
    report = audit_fleet(
        manifest,
        checkset=checkset,
        cache=cache,
        on_result=writer.add,
    )
    # Results streamed in resolution order; the report keeps manifest
    # order for programmatic consumers.
    writer.finish(report)
    sys.stdout.write("\n")

    if args.explain_cache:
        for result in report.results:
            if not result.cached:
                why = "no cacheable stages" if result.status == "ok" else result.status
                print(f"# cache {result.name}: {why}", file=sys.stderr)
            elif result.fully_cached:
                print(f"# cache {result.name}: all stages served", file=sys.stderr)
            else:
                computed = sorted(s for s, hit in result.cached.items() if not hit)
                served = sorted(s for s, hit in result.cached.items() if hit)
                print(
                    f"# cache {result.name}: computed {', '.join(computed)}"
                    + (f"; served {', '.join(served)}" if served else ""),
                    file=sys.stderr,
                )
        if report.cache_stats is not None:
            stats = report.cache_stats
            print(
                f"# cache totals: {stats['hits']} hit(s),"
                f" {stats['misses']} miss(es), {stats['stores']} store(s),"
                f" {stats['corrupt']} corrupt entr(ies) recomputed,"
                f" {stats['evictions']} eviction(s),"
                f" {report.stats.fdd_constructions} FDD construction(s)",
                file=sys.stderr,
            )

    if report.stats.errors:
        return EXIT_ERROR
    if report.stats.over_budget:
        return EXIT_BUDGET_EXCEEDED
    if args.fail_on != "never":
        diverged = any(r.diverged for r in report.results)
        severities = report.summary()["lint_by_severity"]
        newly_allowed = any(
            r.stages.get("impact", {})
            .get("packets_by_kind", {})
            .get(ImpactKind.NEWLY_ALLOWED, 0)
            for r in report.results
        )
        failed = {
            "divergence": diverged,
            "error": severities["error"] > 0 or newly_allowed,
            "warning": (
                severities["error"] > 0
                or severities["warning"] > 0
                or newly_allowed
                or diverged
            ),
        }[args.fail_on]
        if failed:
            return EXIT_DISCREPANCIES
    return EXIT_OK


def _cmd_chaos(args) -> int:
    import json

    from repro.chaos.scenarios import run_suite, scenario_catalogue

    if args.list_scenarios:
        for scenario in scenario_catalogue():
            print(f"{scenario.name:<16} {scenario.description}")
        return EXIT_OK
    try:
        report = run_suite(
            args.scenario,
            jobs=args.jobs,
            seed=args.seed,
            n_rules=args.rules,
            start_method=args.start_method,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    for item in report["scenarios"]:
        verdict = "PASS" if item["passed"] else "FAIL"
        notes = []
        if not item["parity"]:
            notes.append("summary diverged from serial baseline")
        if not item["engaged"]:
            notes.append("fault did not engage")
        if item["degradations"]:
            notes.append(f"{len(item['degradations'])} degradation(s)")
        failures = ", ".join(
            f"{f['reason']}@attempt{f['attempt']}" for f in item["failures"]
        )
        line = f"{verdict}  {item['scenario']:<16} [{failures or 'no failures'}]"
        if notes:
            line += f"  ({'; '.join(notes)})"
        print(line)
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    print(
        f"chaos suite: {sum(item['passed'] for item in report['scenarios'])}"
        f"/{len(report['scenarios'])} scenario(s) passed"
    )
    return EXIT_OK if report["passed"] else EXIT_DISCREPANCIES


def _cmd_import(args) -> int:
    from repro.policy.frontends import emit_policy, parse_policy
    from repro.policy.serializer import dumps

    with open(args.config, "r", encoding="utf-8") as handle:
        text = handle.read()
    firewall = parse_policy(text, args.fmt, chain=args.chain).to_firewall()
    if args.schema_header:
        sys.stdout.write(emit_policy(firewall, "native"))
    else:
        sys.stdout.write(dumps(firewall))
    return 0


_COMMANDS = {
    "compare": _cmd_compare,
    "impact": _cmd_impact,
    "equivalent": _cmd_equivalent,
    "query": _cmd_query,
    "serve-bench": _cmd_serve_bench,
    "lint": _cmd_lint,
    "export": _cmd_export,
    "simplify": _cmd_simplify,
    "show": _cmd_show,
    "fingerprint": _cmd_fingerprint,
    "slice": _cmd_slice,
    "audit": _cmd_audit,
    "chaos": _cmd_chaos,
    "import": _cmd_import,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (``repro compare ... | head -1``): drop
        # the rest of the output quietly, and point stdout at devnull so
        # the interpreter's own flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.progress:
            progress = ", ".join(f"{k}={v}" for k, v in exc.progress.items())
            print(f"progress at abort: {progress}", file=sys.stderr)
        print(
            "hint: raise --deadline/--max-nodes, or pass --approx-fallback"
            " for a sampled partial report",
            file=sys.stderr,
        )
        return EXIT_BUDGET_EXCEEDED
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        # Release any --jobs worker pools gracefully so worker atexit
        # hooks (coverage, profilers) run before the parent exits; the
        # in-process API relies on the pool module's own atexit instead.
        # A run that never started a pool never imported the module.
        pool = sys.modules.get("repro.parallel.pool")
        if pool is not None:
            pool.shutdown_pools()


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    raise SystemExit(main())
