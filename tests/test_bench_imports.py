"""Every name the benchmark imports from karmic exists.

The benchmark in ``bench/`` runs outside the test suite, so a rename in the
package would otherwise break it without a failing test.  This only reads
``bench/*.py``; it imports none of it.
"""

from __future__ import annotations

import ast
import importlib
import pathlib

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def test_bench_imports_from_karmic_resolve() -> None:
    found, missing = 0, []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                pairs = [(node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                pairs = [(alias.name, None) for alias in node.names]
            else:
                continue
            for module, name in pairs:
                if module.split(".")[0] != "karmic":
                    continue
                found += 1
                imported = importlib.import_module(module)
                if name is not None and not hasattr(imported, name):
                    missing.append(f"{path.name}:{node.lineno} {module}.{name}")
    assert found > 0
    assert missing == []
