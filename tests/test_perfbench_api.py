"""The benchmark under perfbench/ imports names from dgtime; each must still exist.

The benchmark runs the library at two commits with the same scripts, so a
renamed or deleted name breaks it without failing any other test.  This
reads the scripts with ast and never runs them.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("dgtime", "dgtime.cli")


def _imports():
    """(script, module, name) of every `from dgtime[.cli] import name` in perfbench/*.py."""
    out = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module in MODULES:
                out += [(path.name, node.module, alias.name) for alias in node.names]
    return out


def test_benchmark_imports_names_from_dgtime():
    found = {(module, name) for _, module, name in _imports()}
    assert ("dgtime", "solve_constrained") in found
    assert ("dgtime.cli", "main") in found


@pytest.mark.parametrize("script,module,name", _imports())
def test_benchmark_import_resolves(script, module, name):
    assert hasattr(importlib.import_module(module), name), f"{script}: {module}.{name}"
