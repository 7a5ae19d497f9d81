"""The benchmark in ``bench/`` agrees with the package it measures.

The benchmark runs outside the test suite, so a rename in the package, a
constant that drifts from its copy, or a check that starts leaning on the
code it checks would otherwise go unnoticed.  These tests only read
``bench/*.py``; they import none of it.
"""

from __future__ import annotations

import ast
import importlib
import pathlib

import karmic.pipeline

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def imports(tree: ast.Module):
    """``(module, name, lineno)`` for each imported name; ``name`` is None
    for ``import module``, and a relative import's module starts with '.'."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            yield from ((module, alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None, node.lineno) for alias in node.names)


def test_bench_imports_from_karmic_resolve() -> None:
    found, missing = 0, []
    for path in sorted(BENCH.glob("*.py")):
        for module, name, lineno in imports(parse(path)):
            if module.split(".")[0] != "karmic":
                continue
            found += 1
            imported = importlib.import_module(module)
            if name is not None and not hasattr(imported, name):
                missing.append(f"{path.name}:{lineno} {module}.{name}")
    assert found > 0
    assert missing == []


def test_fixed_point_tolerance_matches_the_pipeline() -> None:
    # the traced fixed-point layer must time the solve each study row runs
    values = [ast.literal_eval(node.value) for node in parse(BENCH / "workloads.py").body
              if isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "FIXED_POINT_TOL" for t in node.targets)]
    assert values == [karmic.pipeline._FIXED_POINT_TOL]


def test_checks_import_no_karmic_module() -> None:
    # an independent check that called the library could pass its own fault
    modules = [module for module, _, _ in imports(parse(BENCH / "checks.py"))]
    assert "numpy" in modules
    assert [m for m in modules if m.split(".")[0] == "karmic" or m.startswith(".")] == []
