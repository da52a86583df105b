#!/usr/bin/env python3
"""End-to-end benchmark of the ``repro`` CLI, with a traced per-layer run.

Run from the repository root::

    python3 e2ebench/run.py --workload design-diff --seed 1 --seconds 30 --trace 0

Workloads: design-diff, team-review, fleet-audit (see ``workloads.py``).
``--trace 0`` generates the workload's inputs from ``--seed``, then drives
``python -m repro`` on them in a closed loop with one client (one process
at a time; only ``compare --jobs 2`` starts two workers) for at most
``--seconds`` seconds of whole passes, checking every output against an
independent oracle.  ``--trace 1`` generates the first of the same inputs
and makes the same calls once into each layer's public functions
in-process, recording spans and counts (see ``tracing.py``); the spans
are written as Chrome trace-event JSON under ``e2ebench/work/``.

Human-readable results come first; the last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Exit code 0 means the run completed; any failed oracle check makes
``correct`` false.  Without the program's source (``src/repro``) the
benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from launcher import become_subreaper, reap_children

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"

#: ``--help`` invocations before the first pass (one more precedes every
#: pass); their median is ``setup_s``.
HELP_SAMPLES = 4
#: An invocation running longer than this is killed and counted failed.
CALL_TIMEOUT_S = 150

#: ``(name, unit)`` of the end-to-end metrics every workload reports.
END_TO_END = (
    ("setup_s", "s"),
    ("task_s", "s"),
    ("cmd_geomean_s", "s"),
    ("peak_rss_mb", "MB"),
)


def die(message: str) -> None:
    print(f"e2ebench: error: {message}", file=sys.stderr)
    sys.exit(2)


class Invocation:
    """The outcome of one ``python -m repro`` child process."""

    def __init__(self, wall: float, code: int, stdout: str, rss_mb: float, error: str | None):
        self.wall = wall
        self.code = code
        self.stdout = stdout
        self.rss_mb = rss_mb
        self.error = error


class Launcher:
    """The small process that forks every timed invocation (``launcher.py``)."""

    def __init__(self, env: dict) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CALL_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def invoke(self, argv: list[str], cwd: Path) -> Invocation:
        """Run ``python -m repro <argv>`` in ``cwd``; wall time is spawn to reap."""
        request = {"argv": ["-m", "repro", *argv], "cwd": str(cwd), "timeout": CALL_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        code = reply["status"]
        error = None
        if code < 0:
            error = f"killed by signal {-code} (timeout {CALL_TIMEOUT_S}s?)"
        elif code >= 2:
            tail = (cwd / ".stderr").read_text(encoding="utf-8", errors="replace")
            error = f"exit {code}: {' | '.join(tail.strip().splitlines()[-3:])}"
        stdout = (cwd / ".stdout").read_text(encoding="utf-8", errors="replace")
        return Invocation(reply["wall"], code, stdout, reply["rss_kb"] / 1024.0, error)


def stop_children() -> None:
    """Stop every process this run started or adopted, and wait for each to end."""
    pool = sys.modules.get("repro.parallel.pool")
    if pool is not None:
        pool.shutdown_pools()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        # The tracker exits when its pipe closes, which would be after we do.
        tracker._resource_tracker._stop()
    reap_children()


def input_digest(workdir: Path) -> str:
    """SHA-256 over every generated input file (relative path and bytes)."""
    digest = hashlib.sha256()
    for path in sorted(p for p in workdir.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(workdir)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def tail_percentile(n: int) -> int | None:
    """Highest percentile above the median with >= 10 samples beyond it."""
    if n < 21:
        return None
    return math.floor(100 * (1 - 10 / n))


def describe(samples: list[float], unit: str) -> str:
    n = len(samples)
    text = f"mean {statistics.fmean(samples):.4f} {unit}  median {statistics.median(samples):.4f} {unit}"
    p = tail_percentile(n)
    if p is None:
        text += "  (no tail percentile: n < 21)"
    else:
        text += f"  p{p} {statistics.quantiles(samples, n=100)[p - 1]:.4f} {unit}"
    return text + f"  n={n}"


def measure(cases, seconds: float, launcher: Launcher) -> dict:
    """The timed closed loop over ``cases``; returns the end-to-end metrics."""
    attempted = failed = 0
    peak_rss = 0.0
    failures: list[str] = []

    def record(label: str, result: Invocation, error: str | None) -> None:
        nonlocal attempted, failed, peak_rss
        attempted += 1
        peak_rss = max(peak_rss, result.rss_mb)
        error = result.error or error
        if error:
            failed += 1
            failures.append(f"{label}: {error}")

    start = time.perf_counter()
    helps: list[float] = []

    def sample_setup() -> None:
        result = launcher.invoke(["--help"], cases[0].workdir)
        ok = result.code == 0 and "usage: repro" in result.stdout
        record("--help", result, None if ok else f"exit {result.code}, no usage text")
        helps.append(result.wall)

    for _ in range(HELP_SAMPLES):
        sample_setup()

    samples: dict[str, list[float]] = {call.metric: [] for call in cases[0].calls}
    rates: list[float] = []
    passes: list[float] = []
    while True:
        # Interpreter start drifts over minutes; sample it throughout.
        sample_setup()
        pass_wall = 0.0
        for case in cases:
            for call in case.calls:
                if call.prepare is not None:
                    call.prepare()
                result = launcher.invoke(call.argv, case.workdir)
                try:
                    error = None if result.error else call.check(result.code, result.stdout)
                except (ValueError, KeyError, TypeError) as exc:
                    error = f"unreadable output: {exc!r}"
                record(f"{case.workdir.name} {call.metric}", result, error)
                samples[call.metric].append(result.wall)
                pass_wall += result.wall
                if case.packets and call.metric == "query_batch_s":
                    rates.append(case.packets / result.wall)
        passes.append(pass_wall / len(cases))
        # Whole passes only, so every run measures the same inputs; stop
        # before a pass that would overrun the budget.
        elapsed = time.perf_counter() - start
        if elapsed + pass_wall > seconds:
            break

    # Means, not medians, over the run: this host alternates between a fast
    # and a slow speed ~1.6x apart every 5-15 s, and the median of such a
    # mixture jumps between the two (see FINDINGS.md).
    means = {metric: statistics.fmean(walls) for metric, walls in samples.items()}
    metrics = {
        "setup_s": statistics.median(helps),
        "task_s": statistics.fmean(passes),
        "cmd_geomean_s": math.exp(statistics.fmean(math.log(m) for m in means.values())),
        "peak_rss_mb": peak_rss,
    }

    name = cases[0].name
    print(f"# {name}: {len(passes)} pass(es) over {len(cases)} input(s) in"
          f" {time.perf_counter() - start:.1f} s, closed loop, one client")
    print(f"  {'setup_s':<16} {describe(helps, 's')}   (python -m repro --help)")
    for metric, walls in samples.items():
        print(f"  {metric:<16} {describe(walls, 's')}")
    if rates:
        print(f"  {'query_batch_pps':<16} {describe(rates, '1/s')}"
              "   (packets / query process wall)")
    print(f"  {'task_s':<16} {describe(passes, 's')}   (every command once, per input)")
    print(f"  {'cmd_geomean_s':<16} {metrics['cmd_geomean_s']:.4f} s"
          "   (geometric mean of the per-command means)")
    print(f"  {'peak_rss_mb':<16} {peak_rss:.1f} MB   (largest child RSS, from wait4)")
    print(f"  {'failed_ratio':<16} {failed}/{attempted} = {failed / attempted:.4f}")
    for line in failures[:20]:
        print(f"  FAILED {line}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def traced(case, seed: int, env: dict) -> dict:
    """The traced run over one input; returns the per-layer metrics."""
    import tracing

    tracer = tracing.Tracer()
    tracing.TRACERS[case.name](tracer, case, env)
    metrics = tracer.metrics()
    trace_path = WORK / f"trace-{case.name}-seed{seed}.json"
    trace_path.write_text(
        json.dumps(tracer.chrome_trace({"workload": case.name, "seed": seed, "sizes": case.sizes})),
        encoding="utf-8",
    )
    print(f"# {case.name}: traced run, {len(tracer.spans)} spans -> {trace_path.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        shown = f"{value:.3f}" if unit == "ms" else f"{value}"
        print(f"  {name:<26} {shown} {unit}")
    print("  (classify.ingest_ms = query process wall - setup_s - load - compile - kernel)")
    return {
        "correct": True,
        "attempted": 1,
        "failed": 0,
        "metrics": {name: value for name, (value, _) in metrics.items()},
        "units": {name: unit for name, (_, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        die(f"program source not found at {SRC / 'repro'}; run from a full checkout")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    become_subreaper()
    # Started before the inputs exist, while this process is still small.
    launcher = None if args.trace else Launcher(env)
    try:
        sys.path.insert(0, str(SRC))
        import workloads

        if args.workload not in workloads.BUILDERS:
            die(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
        workdir = WORK / f"{args.workload}-seed{args.seed}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)

        started = time.perf_counter()
        # The traced run attributes one input's work; timing uses them all.
        count = 1 if launcher is None else workloads.CASES[args.workload]
        try:
            cases = workloads.build(args.workload, workdir, args.seed, count)
        except workloads.WorkloadError as exc:
            die(str(exc))
        print(f"# {args.workload} seed={args.seed}: {count} input(s) in"
              f" {time.perf_counter() - started:.1f} s")
        for case in cases:
            print(f"#   {case.workdir.name}: {json.dumps(case.sizes, sort_keys=True)}")
        print(f"# inputs sha256 {input_digest(workdir)}")

        if launcher is None:
            result = traced(cases[0], args.seed, env)
            units = result.pop("units")
        else:
            result = measure(cases, args.seconds, launcher)
            units = dict(END_TO_END)
    finally:
        if launcher is not None:
            launcher.close()
        stop_children()
    shutil.rmtree(workdir, ignore_errors=True)
    result["metrics"] = {
        name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
