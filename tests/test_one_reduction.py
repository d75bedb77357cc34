"""The library factors its constraint matrices and projects its constraint data once each.

ConstrainedSystem._reduction, one functools.cached_property, holds the one
SVD of [B1; B2] and the one eigendecomposition of the kernel pair; every
solver and check reads it or, like the monolithic oracle, needs none, and
nothing else keeps a value on a system.
projection._slab_coeffs is the one projection of data: the public
projections call it, and dgsolver._constraint_data calls it for the [g1; g2]
coefficients that the march, the oracle and both residual checks read.
This reads src/dgtime/*.py with ast, never running it, so that a second
reduction or a second constraint-data path cannot come back unnoticed.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dgtime"
REDUCTIONS = {"svd", "svdvals", "null_space", "pinv"}


def _trees():
    """(file name, parsed module) of every src/dgtime/*.py."""
    return [(path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
            for path in sorted(SRC.glob("*.py"))]


def _calls(names, keywords=False):
    """(file, enclosing qualified name, name) of every call of one of names, by name or attribute.

    The qualified name joins the enclosing classes and functions with dots.
    With keywords, each entry also holds the call's keyword arguments as
    source text.
    """
    out = []

    def visit(node, file, where):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name if where is None else f"{where}.{node.name}"
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in names:
                kw = tuple(f"{k.arg}={ast.unparse(k.value)}" for k in node.keywords)
                out.append((file, where, name) + ((kw,) if keywords else ()))
        for child in ast.iter_child_nodes(node):
            visit(child, file, where)

    for file, tree in _trees():
        visit(tree, file, None)
    return out


def test_the_kernel_reduction_is_the_only_svd():
    # the singular-value-only SVD factors the r1 columns u[:r1] / sv of the
    # full one for the inf-sup value; nothing factors B1 or B2 again
    assert _calls(REDUCTIONS, keywords=True) == [
        ("systems.py", "ConstrainedSystem._reduction", "svd", ()),
        ("systems.py", "ConstrainedSystem._reduction", "svd", ("compute_uv=False",))]


def test_the_kernel_eigenbasis_is_the_only_eigendecomposition():
    # the marching solver and validate_system both read the kept eigenbasis
    assert _calls({"eigh", "eigvalsh", "eig", "eigvals", "cholesky"}) == [
        ("systems.py", "ConstrainedSystem._reduction", "cholesky"),
        ("systems.py", "ConstrainedSystem._reduction", "eigh")]


def test_no_module_writes_items_of_an_instance_dict():
    # a kept value is a functools.cached_property, never a key written
    # into __dict__ by hand
    writes = []
    for file, tree in _trees():
        for node in ast.walk(tree):
            target = node.value if isinstance(node, (ast.Subscript, ast.Attribute)) else None
            if not (isinstance(target, ast.Attribute) and target.attr == "__dict__"):
                continue
            # x.__dict__[k] = v, del x.__dict__[k], x.__dict__.update(...) and the like
            if isinstance(node, ast.Attribute) or not isinstance(node.ctx, ast.Load):
                writes.append((file, node.lineno, ast.unparse(node)))
    assert writes == []


def test_the_solver_projects_its_constraint_data_in_one_place():
    # projection._slab_coeffs is the one projection: the public projections
    # call it, and so does _constraint_data, which the march, the oracle,
    # dg_residual and constraint_residual all read; it samples each field
    # once and returns the coefficients of every projection switch
    assert _calls({"_slab_coeffs", "_coeff_samples", "_coeffs_from_samples"}) == [
        ("dgsolver.py", "_constraint_data", "_slab_coeffs"),
        ("projection.py", "project_slab", "_slab_coeffs"),
        ("projection.py", "project_broken", "_slab_coeffs"),
        ("projection.py", "l2_project_broken", "_slab_coeffs"),
    ]
