"""What a command imports: lazy package exports and per-command CLI imports.

Every ``repro`` call starts a fresh interpreter, so the modules a command
loads are part of its wall time.  Package ``__init__`` modules resolve
their exports on first use (:mod:`repro._lazy`) and each CLI command
imports what it uses, so ``--help`` loads almost nothing and a
comparison loads neither the worker pool nor the paper-literal tree
engine (docs/architecture.md, invariant 8).  Each check runs in a
subprocess, because this test process has imported everything already.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import _DIALECTS
from repro.intervals import IntervalSet
from repro.policy import ACCEPT, DISCARD, Predicate, Rule, dump, dialect_names
from repro.synth import team_a_firewall, team_b_firewall, uniform_interval_firewall

ENV = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))

TREE_ENGINE = [
    f"repro.fdd.{name}" for name in ("construction", "shaping", "comparison", "simplify")
]
NOT_AT_STARTUP = [
    "numpy",
    "repro.parallel",
    "repro.audit",
    "repro.analysis",
    "repro.lint",
    "repro.synth",
    "repro.bdd",
    "repro.classify",
    "repro.policy.frontends",
    *TREE_ENGINE,
]

# Runs ``python -m repro ARGV`` in-process and reports, once ``main()``
# has returned, the exit code, every loaded module, the number of open
# worker pools and the number of live child processes.
_PROBE = """
import json, runpy, sys
sys.argv = ["repro", *json.loads(sys.argv[1])]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as exc:
    code = exc.code
modules = sorted(sys.modules)
pool = sys.modules.get("repro.parallel.pool")
report = {"code": code, "modules": modules, "pools": None, "children": None}
if pool is not None:
    import multiprocessing
    report["pools"] = len(pool._POOLS)
    report["children"] = len(multiprocessing.active_children())
print(json.dumps(report), file=sys.stderr)
"""


def _run(argv: list[str], cwd: Path) -> dict:
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(argv)],
        cwd=cwd,
        env=ENV,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return json.loads(done.stderr.strip().splitlines()[-1])


def _loaded(modules: list[str], names: list[str]) -> list[str]:
    """The entries of ``names`` loaded as a module or as a package's submodule."""
    return [
        name for name in names if any(m == name or m.startswith(name + ".") for m in modules)
    ]


@pytest.fixture
def policies(tmp_path):
    dump(team_a_firewall(), tmp_path / "a.fw", schema_key="interface")
    dump(team_b_firewall(), tmp_path / "b.fw", schema_key="interface")
    return tmp_path


def test_import_cli_loads_no_command_code(tmp_path):
    probe = "import json, sys, repro.cli; print(json.dumps(sorted(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=tmp_path,
        env=ENV,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert _loaded(json.loads(done.stdout), NOT_AT_STARTUP) == []


def test_help_loads_no_command_code(tmp_path):
    report = _run(["--help"], tmp_path)
    assert report["code"] == 0
    assert _loaded(report["modules"], NOT_AT_STARTUP) == []


def test_exit_path_imports_no_pool(policies):
    report = _run(["impact", "a.fw", "b.fw"], policies)
    assert report["code"] == 1
    assert _loaded(report["modules"], ["repro.parallel"]) == []


@pytest.fixture
def hard_policies(tmp_path):
    """A pair that builds above ``FANOUT_MIN_VISITS`` (about 67k partition
    visits): a 40-rule policy of uniform random intervals, and the same
    policy with one packet's decision flipped."""
    before = uniform_interval_firewall(40, seed=1)
    packet = (1, 2, 3, 4, 5)
    flipped = DISCARD if before(packet) == ACCEPT else ACCEPT
    one = Predicate(before.schema, [IntervalSet.single(value) for value in packet])
    dump(before, tmp_path / "a.fw", schema_key="standard")
    dump(before.prepend(Rule(one, flipped)), tmp_path / "b.fw", schema_key="standard")
    return tmp_path


def test_jobs_below_the_crossover_loads_no_pool(policies):
    report = _run(["impact", "--jobs", "2", "a.fw", "b.fw"], policies)
    assert report["code"] == 1
    assert _loaded(report["modules"], ["repro.parallel", "multiprocessing"]) == []


def test_jobs_still_shuts_its_pools_down(hard_policies):
    report = _run(["impact", "--jobs", "2", "a.fw", "b.fw"], hard_policies)
    assert report["code"] == 1
    assert "repro.parallel.pool" in report["modules"]
    assert report["pools"] == 0
    assert report["children"] == 0


@pytest.mark.parametrize("command", ["compare", "equivalent", "impact"])
def test_comparison_commands_load_no_tree_engine(policies, command):
    report = _run([command, "a.fw", "b.fw"], policies)
    assert report["code"] == 1
    assert _loaded(report["modules"], TREE_ENGINE) == []


def test_query_batch_below_the_crossover_loads_no_numpy(tmp_path):
    from repro.synth import SyntheticFirewallGenerator

    dump(SyntheticFirewallGenerator(seed=1).generate(30), tmp_path / "p.fw", schema_key="standard")
    line = "10.0.0.1, 192.168.0.1, 1024, smtp, tcp\n"
    (tmp_path / "packets.txt").write_text(line * 500, encoding="utf-8")
    report = _run(["query", "p.fw", "--batch", "packets.txt", "--format", "json"], tmp_path)
    assert report["code"] == 0
    assert "repro.classify.matcher" in report["modules"]
    assert _loaded(report["modules"], ["numpy", "repro.classify.kernels"]) == []


def test_cli_dialects_match_the_registry():
    assert _DIALECTS == dialect_names()


# Imports every submodule first, then reads every package's exports:
# a submodule named like an export (``repro.synth.perturb``) must not
# have replaced the export on its package.
_EXPORTS_PROBE = """
import importlib, json, pkgutil, types, repro
names = [name for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro.")]
for name in names:
    importlib.import_module(name)
problems = []
for name in ["repro", *names]:
    package = importlib.import_module(name)
    if not hasattr(package, "__path__"):
        continue
    namespace = {}
    exec(f"from {name} import *", namespace)
    for export in package.__all__:
        if isinstance(namespace[export], types.ModuleType):
            problems.append(f"{name}.{export}")
    problems += [f"{name}.{e} not in dir()" for e in set(package.__all__) - set(dir(package))]
print(json.dumps(problems))
"""


def test_exports_survive_importing_every_submodule(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", _EXPORTS_PROBE],
        cwd=tmp_path,
        env=ENV,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert json.loads(done.stdout) == []
