"""The library factors its constraint matrices in one place only.

systems._kernel_reduction holds the one SVD of [B1; B2]; every solver,
oracle and check reads it or, like the monolithic oracle, needs none.  This
reads src/dgtime/*.py with ast, never running it, so that a second
reduction cannot come back unnoticed.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dgtime"
REDUCTIONS = {"svd", "svdvals", "null_space", "pinv"}


def _reduction_calls():
    """(file, enclosing function, name) of every call of a REDUCTIONS name, by name or attribute."""
    out = []

    def visit(node, file, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in REDUCTIONS:
                out.append((file, where, name))
        for child in ast.iter_child_nodes(node):
            visit(child, file, where)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), path.name, None)
    return out


def test_the_kernel_reduction_is_the_only_svd():
    # validate_system's svdvals factors the r1 columns u[:r1] / sv of the kept
    # SVD for the inf-sup value; it never factors B1 or B2 again
    assert _reduction_calls() == [("systems.py", "_kernel_reduction", "svd"),
                                  ("systems.py", "validate_system", "svdvals")]
