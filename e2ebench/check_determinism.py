#!/usr/bin/env python3
"""Check that the benchmark's inputs and structural counts are seeded.

Run from the repository root::

    python3 e2ebench/check_determinism.py

For each workload this makes two traced runs with seed ``SEED`` and one
with the next seed.  It passes when the two same-seed runs report identical
structural counts (store, diff, ref, analysis, matcher and audit
counters) and identical input digests, and the other seed's inputs
differ.  Exit code 0 on success, 1 on any mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from tracing import STRUCTURAL  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7


def traced(workload: str, seed: int) -> tuple[str, dict]:
    """``(input digest, structural counts)`` of one ``--trace 1`` run."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, cwd=BENCH.parent,
    )
    lines = done.stdout.splitlines()
    digest = next(line.split()[-1] for line in lines if line.startswith("# inputs sha256"))
    metrics = json.loads(lines[-1])["metrics"]
    return digest, {name: metrics[name]["value"] for name in STRUCTURAL}


def main() -> int:
    ok = True
    for workload in WORKLOADS:
        digest_1, counts_1 = traced(workload, SEED)
        digest_2, counts_2 = traced(workload, SEED)
        digest_other, _ = traced(workload, SEED + 1)
        differing = sorted(name for name in STRUCTURAL if counts_1[name] != counts_2[name])
        checks = {
            "same seed, same inputs": digest_1 == digest_2,
            "same seed, same structural counts": not differing,
            "other seed, other inputs": digest_other != digest_1,
        }
        for label, passed in checks.items():
            print(f"{workload:<12} {'ok  ' if passed else 'FAIL'} {label}")
        if differing:
            for name in differing:
                print(f"{workload:<12}      {name}: {counts_1[name]} != {counts_2[name]}")
        ok = ok and all(checks.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
