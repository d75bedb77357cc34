"""The library factors its constraint matrices and projects its constraint data once each.

systems._kernel_reduction holds the one SVD of [B1; B2]; every solver,
oracle and check reads it or, like the monolithic oracle, needs none.
dgsolver._constraint_data holds the one projection of [g1; g2] that the
march, the oracle and both residual checks read.  This reads
src/dgtime/*.py with ast, never running it, so that a second reduction or
a second constraint-data path cannot come back unnoticed.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dgtime"
REDUCTIONS = {"svd", "svdvals", "null_space", "pinv"}


def _calls(names):
    """(file, enclosing function, name) of every call of one of names, by name or attribute."""
    out = []

    def visit(node, file, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in names:
                out.append((file, where, name))
        for child in ast.iter_child_nodes(node):
            visit(child, file, where)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), path.name, None)
    return out


def test_the_kernel_reduction_is_the_only_svd():
    # validate_system's svdvals factors the r1 columns u[:r1] / sv of the kept
    # SVD for the inf-sup value; it never factors B1 or B2 again
    assert _calls(REDUCTIONS) == [("systems.py", "_kernel_reduction", "svd"),
                                  ("systems.py", "validate_system", "svdvals")]


def test_the_solver_projects_its_constraint_data_in_one_place():
    # the public projections are the other callers; the march, the oracle,
    # dg_residual and constraint_residual all read _constraint_data
    assert _calls({"_slab_coeffs"}) == [
        ("analysis.py", "l2_project_broken", "_slab_coeffs"),
        ("dgsolver.py", "_constraint_data", "_slab_coeffs"),
        ("projection.py", "project_slab", "_slab_coeffs"),
        ("projection.py", "project_broken", "_slab_coeffs"),
    ]
