"""Error norms, estimated orders of convergence, and study orchestration.

Errors are measured against manufactured exact solutions: a weighted
L2-in-time norm for the state (and the multiplier) and the maximum nodal
error over the breakpoints, the quantity that exhibits superconvergence of
order 2q - 1 when the constraint data is projected.  The error quadrature
deliberately uses one more Gauss point than the solvers, so accuracy is
never measured with the rule that assembled the system.

``eoc`` computes orders pairwise between consecutive refinement levels:
order_i = log(err_{i-1} / err_i) / log(N_i / N_{i-1}).  Errors at the
floating-point floor (below ``EOC_FLOOR``) give ``math.nan``, rendered as
"at-floor" by the CLI formatters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .dgsolver import SlabSolveError, SolverOptions, _check_switch, _march
from .projection import _sample, _slab_nodes
from .systems import ConstrainedSystem, build_heat_1d, build_saddle_dae
from .timecore import (_MAX_POINTS, BrokenFunction, Quadrature, _end_values, _is_count, _slab_inner,
                       _Slabs, _slab_values, _weight_matrix, build_uniform_mesh, gauss_legendre)

__all__ = [
    "EOC_FLOOR",
    "StudyRow",
    "EOCTable",
    "error_l2_energy",
    "error_nodal_max",
    "error_l2_multiplier",
    "eoc",
    "run_study",
]

EOC_FLOOR = 1e-13
STUDY_NORMS = ("energy", "nodal", "multiplier")


def _l2_errors(coeffs: np.ndarray, exact: np.ndarray, W: np.ndarray, quad: Quadrature,
               slabs: _Slabs) -> list:
    """The L2-in-time error on every mesh of slabs; coeffs (S, q, d), exact (S, npts, d) at quad."""
    # fresh, so subtracted in place; in C order, so _slab_inner reads it at unit stride
    D = np.ascontiguousarray(_slab_values(coeffs, quad))
    D -= exact
    squares = _slab_inner(D, W, D, quad)
    return [float(np.sqrt(s @ k)) for s, k in zip(slabs.split(squares), slabs.split(slabs.widths))]


def _nodal_errors(coeffs: np.ndarray, exact: np.ndarray, W: np.ndarray, slabs: _Slabs) -> list:
    """max_n ||U^n - exact(t_n)||_W on every mesh of slabs; coeffs (S, q, d), exact (S, d)."""
    d = _end_values(coeffs) - exact
    # a GEMV with ones adds the short trailing axis several times faster than .sum(axis=-1)
    return [float(e.max()) for e in slabs.split(np.sqrt(((d @ W) * d) @ np.ones(d.shape[1])))]


def _checked(compute, norm: str, weight: str) -> float:
    """compute(), or ValueError naming the norm and its weight when it is NaN.

    A weight that is indefinite on the error makes a square negative, and
    its root NaN; the public norms raise rather than return it.
    """
    with np.errstate(invalid="ignore"):
        value = compute()
    if math.isnan(value):
        raise ValueError(f"{norm} is NaN: its weight {weight} is not positive semidefinite "
                         "on the error, or an input is not finite")
    return value


def _l2_error(U: BrokenFunction, exact, W, quad: Quadrature, field: str, norm: str,
              weight: str) -> float:
    W, slabs = _weight_matrix(W, U.dim), _Slabs.of([U.mesh])
    values = _sample(exact, _slab_nodes(slabs, quad), field, U.dim, slabs.number)
    return _checked(lambda: _l2_errors(U.coeffs, values, W, quad, slabs)[0], norm, weight)


def error_l2_energy(U: BrokenFunction, exact, normU, quad: Quadrature) -> float:
    """L2-in-time error (sum_n int_{I_n} ||U - exact||_normU^2 dt)^(1/2); see _checked."""
    return _l2_error(U, exact, normU, quad, "exact_u", "error_l2_energy", "normU")


def error_nodal_max(U: BrokenFunction, exact, M) -> float:
    """max_n ||U^n - exact(t_n)||_M over the breakpoints t_1 .. t_N; see _checked."""
    W, slabs = _weight_matrix(M, U.dim), _Slabs.of([U.mesh])
    values = _sample(exact, slabs.right[:, None], "exact_u", U.dim, slabs.number)[:, 0]
    return _checked(lambda: _nodal_errors(U.coeffs, values, W, slabs)[0], "error_nodal_max", "M")


def error_l2_multiplier(P: BrokenFunction, exact_p, normQ1, quad: Quadrature) -> float:
    """L2-in-time error of the Lagrange multiplier; see _checked."""
    return _l2_error(P, exact_p, normQ1, quad, "exact_p", "error_l2_multiplier", "normQ1")


def _check_slab_counts(Ns: Sequence[int]) -> None:
    """The slab-count rule of a study: Ns is non-empty, integer and strictly increasing."""
    if len(Ns) == 0:
        raise ValueError("Ns must not be empty")
    if not all(_is_count(N) for N in Ns):
        raise ValueError(f"Ns must be integers, got {list(Ns)}")
    if not all(Ns[i] < Ns[i + 1] for i in range(len(Ns) - 1)):
        raise ValueError("Ns must be strictly increasing")


def eoc(errors: Sequence[float], Ns: Sequence[int]) -> list:
    """Pairwise estimated orders of convergence; nan marks at-floor entries."""
    if len(errors) != len(Ns) or len(errors) < 2:
        raise ValueError("need equally long error/N sequences of length >= 2")
    _check_slab_counts(Ns)
    if not all(0.0 <= e < math.inf for e in errors):
        raise ValueError(f"errors must be finite and nonnegative, got {list(errors)}")
    out = []
    for i in range(1, len(errors)):
        e_prev, e_cur = errors[i - 1], errors[i]
        if e_prev < EOC_FLOOR or e_cur < EOC_FLOOR:
            out.append(math.nan)  # at the floating-point floor
        else:
            out.append(math.log(e_prev / e_cur) / math.log(Ns[i] / Ns[i - 1]))
    return out


@dataclass(frozen=True)
class StudyRow:
    """One refinement level; None marks an unselected norm, nan an EOC at floor."""

    N: int
    k: float
    err_energy: Optional[float] = None
    eoc_energy: Optional[float] = None
    err_nodal: Optional[float] = None
    eoc_nodal: Optional[float] = None
    err_p: Optional[float] = None
    eoc_p: Optional[float] = None


@dataclass(frozen=True)
class EOCTable:
    """Convergence table for one problem / q / projection variant.

    Spatial error is designed out of the built-in problems, so the orders
    are purely temporal.
    """

    problem: str
    q: int
    use_projection: bool
    rows: tuple

    def __post_init__(self):
        _check_switch(self.use_projection)

    def column(self, name: str) -> list:
        return [getattr(r, name) for r in self.rows]


# The built-in problems by name; each builder sets the system's name to its key.
_PROBLEMS = {"heat1d": lambda: build_heat_1d(4), "stokes3": lambda: build_saddle_dae("stokes3")}


def _resolve_problem(problem: Union[str, ConstrainedSystem]) -> ConstrainedSystem:
    if isinstance(problem, ConstrainedSystem):
        return problem
    if problem not in _PROBLEMS:
        raise ValueError(f"unknown problem {problem!r} (expected "
                         f"{', '.join(map(repr, _PROBLEMS))}, or a ConstrainedSystem)")
    return _PROBLEMS[problem]()


def run_study(problem: Union[str, ConstrainedSystem], q: int, Ns: Sequence[int],
              use_projection: bool = True,
              norms: Sequence[str] = ("energy", "nodal")) -> EOCTable:
    """Solve a problem over a sequence of slab counts and tabulate errors.

    ``problem`` is "heat1d", "stokes3", or a ConstrainedSystem with
    manufactured exact solutions; the table carries the system's name.
    Each N gets a uniform mesh on (0, 1]; ``norms`` names at least one of
    STUDY_NORMS.  The study is one stacked march over all levels (the
    solver's _march), which returns stacked coefficients.  Each data field
    is sampled once for all levels, exact_u in one call at the error rule's
    nodes and the right end of every slab, and each norm is reduced per
    level, so a row holds what solve_constrained and the public norms give
    on its mesh.  A failure names the level's own N or 1-based slab; when
    several levels fail, the first failing stage (data, solve, norms)
    reports its first level.

    This is the one-variant case of _run_studies.  ``dgtime study
    --projection both`` runs both switches as one march that samples each
    field once, and its rows equal those of two separate run_study calls.
    """
    return _run_studies(problem, q, Ns, [use_projection], norms)[0]


def _run_studies(problem: Union[str, ConstrainedSystem], q: int, Ns: Sequence[int],
                 projections: Sequence[bool], norms: Sequence[str]) -> list:
    """run_study's table for each projection switch in projections, from one march.

    The variants' slabs are stacked as extra meshes of one march, whose
    data stage samples f, g1 and g2 once for all of them; exact_u and
    exact_p are sampled once and compared with every variant's U and P.
    Each variant's rows equal those of its own run_study.  A later variant
    may fail at an earlier stage than the first failing one, so on an error
    the variants run again one at a time, in order, and the first to fail
    raises its own error.
    """
    variants = [SolverOptions(q=q, use_projection=p) for p in projections]
    if q + 3 > _MAX_POINTS:
        raise ValueError(f"q must be at most {_MAX_POINTS - 3} for a study, whose error "
                         f"quadrature has q + 3 points; got {q}")
    _check_slab_counts(Ns)
    Ns = [int(N) for N in Ns]
    if isinstance(norms, str):
        raise ValueError(f"norms must be a sequence of norm names, not the string {norms!r}")
    norms = tuple(norms)
    if not norms:
        raise ValueError(f"norms must name at least one of {STUDY_NORMS}")
    unknown = set(norms) - set(STUDY_NORMS)
    if unknown:
        raise ValueError(f"unknown norms {sorted(unknown)} (choose from {STUDY_NORMS})")
    system = _resolve_problem(problem)
    if system.exact_u is None:
        raise ValueError("convergence study needs a system with exact_u")
    if "multiplier" in norms and (system.r1 == 0 or system.exact_p is None):
        raise ValueError("multiplier norm requires r1 >= 1 and exact_p")
    try:
        return _tables(system, Ns, variants, norms)
    except (ValueError, SlabSolveError):
        if len(variants) > 1:
            for variant in variants:
                _tables(system, Ns, [variant], norms)
        raise


def _tables(system: ConstrainedSystem, Ns: list, variants: list, norms: tuple) -> list:
    """The EOCTable of every variant, SolverOptions of one q, from one march over all levels."""
    q = variants[0].q
    errquad = gauss_legendre(q + 3)
    slabs = _Slabs.of([build_uniform_mesh(1.0, N) for N in Ns])
    U, P, _ = _march(system, slabs, variants)
    nodes = _slab_nodes(slabs, errquad)
    u = _sample(system.exact_u, np.hstack([nodes, slabs.right[:, None]]), "exact_u", system.m,
                slabs.number)
    p = (_sample(system.exact_p, nodes, "exact_p", system.r1, slabs.number)
         if "multiplier" in norms else None)
    tables, S = [], slabs.right.size
    for copy, variant in enumerate(variants):
        own = slice(copy * S, (copy + 1) * S)  # the variant's copy of the slabs
        errors = {}
        if "energy" in norms:
            errors["energy"] = _l2_errors(U[own], u[:, :-1], system.normU, errquad, slabs)
        if "nodal" in norms:
            errors["nodal"] = _nodal_errors(U[own], u[:, -1], system.M, slabs)
        if p is not None:
            errors["p"] = _l2_errors(P[own], p, system.normQ1, errquad, slabs)
        for i, N in enumerate(Ns):
            for name, errs in errors.items():
                if not math.isfinite(errs[i]):
                    raise ValueError(f"err_{name} is not finite ({errs[i]}) at N = {N}")
        orders = {name: [None] + (eoc(errs, Ns) if len(Ns) > 1 else [])
                  for name, errs in errors.items()}
        rows = []
        for i, N in enumerate(Ns):
            cells = {}
            for name, errs in errors.items():
                cells[f"err_{name}"], cells[f"eoc_{name}"] = errs[i], orders[name][i]
            rows.append(StudyRow(N=N, k=1.0 / N, **cells))
        tables.append(EOCTable(problem=system.name, q=q, use_projection=variant.use_projection,
                               rows=tuple(rows)))
    return tables
