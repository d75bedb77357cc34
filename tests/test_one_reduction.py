"""The library factors its constraint matrices and projects its constraint data once each.

systems._kernel_reduction holds the one SVD of [B1; B2], and
systems._kernel_eigenbasis the one eigendecomposition of the kernel pair;
every solver, oracle and check reads them or, like the monolithic oracle,
needs none.
dgsolver._constraint_data holds the one projection of [g1; g2] that the
march, the oracle and both residual checks read.  This reads
src/dgtime/*.py with ast, never running it, so that a second reduction or
a second constraint-data path cannot come back unnoticed.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dgtime"
REDUCTIONS = {"svd", "svdvals", "null_space", "pinv"}


def _calls(names, keywords=False):
    """(file, enclosing function, name) of every call of one of names, by name or attribute.

    With keywords, each entry also holds the call's keyword arguments as source text.
    """
    out = []

    def visit(node, file, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in names:
                kw = tuple(f"{k.arg}={ast.unparse(k.value)}" for k in node.keywords)
                out.append((file, where, name) + ((kw,) if keywords else ()))
        for child in ast.iter_child_nodes(node):
            visit(child, file, where)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), path.name, None)
    return out


def test_the_kernel_reduction_is_the_only_svd():
    # validate_system's singular-value-only SVD factors the r1 columns
    # u[:r1] / sv of the kept SVD for the inf-sup value; it never factors B1
    # or B2 again
    assert _calls(REDUCTIONS, keywords=True) == [
        ("systems.py", "_kernel_reduction", "svd", ()),
        ("systems.py", "validate_system", "svd", ("compute_uv=False",))]


def test_the_kernel_eigenbasis_is_the_only_eigendecomposition():
    # the marching solver and validate_system both read the kept eigenbasis
    assert _calls({"eigh", "eigvalsh", "eig", "eigvals", "cholesky"}) == [
        ("systems.py", "_kernel_eigenbasis", "cholesky"),
        ("systems.py", "_kernel_eigenbasis", "eigh")]


def test_the_solver_projects_its_constraint_data_in_one_place():
    # the public projections are the other callers; the march, the oracle,
    # dg_residual and constraint_residual all read _constraint_data, which
    # reduces one sample of each field for every projection switch
    assert _calls({"_slab_coeffs", "_coeffs_from_samples"}) == [
        ("analysis.py", "l2_project_broken", "_slab_coeffs"),
        ("dgsolver.py", "_constraint_data", "_coeffs_from_samples"),
        ("projection.py", "_slab_coeffs", "_coeffs_from_samples"),
        ("projection.py", "project_slab", "_slab_coeffs"),
        ("projection.py", "project_broken", "_slab_coeffs"),
    ]
