"""Only the tree engine itself, its re-exports and the paper-figure
timings import the paper-literal tree engine (docs/architecture.md,
invariant 8).

Production code runs on the store engine; the mutable-tree modules
``repro.fdd.construction``/``shaping``/``comparison``/``simplify`` are
the executable specification the tests use as their oracle.  Every
module under ``src/repro`` is parsed with :mod:`ast`, so a new import
anywhere else fails here before it ships.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
TREE_ENGINE = {
    f"repro.fdd.{name}" for name in ("construction", "shaping", "comparison", "simplify")
}
ALLOWED = TREE_ENGINE | {
    "repro",  # the paper-literal public API (compare_firewalls, ...)
    "repro.fdd",
    "repro.bench.timing",  # the paper-figure reference timings
    "repro.bench.harness",
}


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _exported_names() -> set[str]:
    """The names the tree modules list in ``__all__`` (their re-exports)."""
    names: set[str] = set()
    for module in TREE_ENGINE:
        tree = ast.parse((SRC / (module.replace(".", "/") + ".py")).read_text())
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            ):
                names |= set(ast.literal_eval(node.value))
    return names


def _lazy_table(node: ast.AST) -> dict[str, tuple[str, ...]] | None:
    """The ``{module: names}`` table of a ``lazy_exports(__name__, {...})`` call."""
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "lazy_exports":
        return ast.literal_eval(node.args[1])
    return None


def _tree_imports(
    source: str, module: str, exported: set[str], *, package: bool = False
) -> set[str]:
    """What ``module`` imports of the tree engine, directly, re-exported or
    through a package's lazy export table."""
    parts = module.split(".") if package else module.split(".")[:-1]
    found: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if (table := _lazy_table(node)) is not None:
            for base, names in table.items():
                if base in TREE_ENGINE:
                    found.add(base)
                found |= {
                    f"{base}.{name}"
                    for name in names
                    if base in ("repro", "repro.fdd") and name in exported
                }
        elif isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names} & TREE_ENGINE
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = parts[: len(parts) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            for alias in node.names:
                target = f"{base}.{alias.name}"
                if base in TREE_ENGINE:
                    found.add(base)
                elif target in TREE_ENGINE or (
                    base in ("repro", "repro.fdd") and alias.name in exported
                ):
                    found.add(target)
    return found


def _scan(path: Path, exported: set[str]) -> set[str]:
    return _tree_imports(
        path.read_text(),
        _module_name(path),
        exported,
        package=path.name == "__init__.py",
    )


def test_only_the_allowlist_imports_the_tree_engine():
    exported = _exported_names()
    offenders = {
        _module_name(path): sorted(imports)
        for path in sorted((SRC / "repro").rglob("*.py"))
        if _module_name(path) not in ALLOWED
        and (imports := _scan(path, exported))
    }
    assert offenders == {}


def test_the_scan_sees_each_import_form():
    """The scanner itself: absolute, relative and re-exported imports."""
    exported = _exported_names()
    assert {"construct_fdd", "make_simple", "compare_firewalls"} <= exported
    cases = {
        "import repro.fdd.shaping": {"repro.fdd.shaping"},
        "from repro.fdd.comparison import compare_shaped": {"repro.fdd.comparison"},
        "from repro.fdd import construction": {"repro.fdd.construction"},
        "from repro.fdd import construct_fdd, NodeStore": {"repro.fdd.construct_fdd"},
        "from repro import compare_firewalls": {"repro.compare_firewalls"},
        "from .simplify import make_simple": {"repro.fdd.simplify"},
        "from ..fdd import make_semi_isomorphic": {"repro.fdd.make_semi_isomorphic"},
        "from repro.fdd import compare_fast, semantic_fingerprint": set(),
        "from repro.fdd.fast import construct_fdd_fast": set(),
        'lazy_exports(__name__, {"repro.fdd.shaping": ("make_semi_isomorphic",)})': {
            "repro.fdd.shaping"
        },
        'lazy_exports(__name__, {"repro.fdd": ("construct_fdd", "NodeStore")})': {
            "repro.fdd.construct_fdd"
        },
        'lazy_exports(__name__, {"repro.fdd.fast": ("compare_fast",)})': set(),
    }
    for source, expected in cases.items():
        module = "repro.analysis.x" if source.startswith("from ..") else "repro.fdd.x"
        assert _tree_imports(source, module, exported) == expected, source
    fdd_init = SRC / "repro" / "fdd" / "__init__.py"
    assert "repro.fdd.construction" in _scan(fdd_init, exported)
