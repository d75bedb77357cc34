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

from .dgsolver import SolverOptions, _march
from .projection import _sample, _slab_coeffs, _slab_nodes
from .systems import ConstrainedSystem, build_heat_1d, build_saddle_dae
from .timecore import (_MAX_POINTS, BrokenFunction, Quadrature, _is_count, _slab_inner, _Slabs,
                       _slab_values, _weight_matrix, build_uniform_mesh, gauss_legendre)

__all__ = [
    "EOC_FLOOR",
    "StudyRow",
    "EOCTable",
    "error_l2_energy",
    "error_nodal_max",
    "error_l2_multiplier",
    "eoc",
    "l2_project_broken",
    "run_study",
]

EOC_FLOOR = 1e-13
STUDY_NORMS = ("energy", "nodal", "multiplier")


def _l2_errors(coeffs: np.ndarray, exact, W: np.ndarray, quad: Quadrature, slabs: _Slabs,
               field: str) -> list:
    """The L2-in-time error of U against exact on every mesh of slabs; U's coeffs (S, q, d)."""
    ts = _slab_nodes(slabs, quad)
    D = _slab_values(coeffs, quad.nodes) - _sample(exact, ts, field, coeffs.shape[2], slabs.number)
    squares = _slab_inner(D, W, D, quad)
    return [float(np.sqrt(s @ k)) for s, k in zip(slabs.split(squares), slabs.split(slabs.widths))]


def _nodal_errors(coeffs: np.ndarray, exact, W: np.ndarray, slabs: _Slabs) -> list:
    """max_n ||U^n - exact(t_n)||_W on every mesh of slabs; U's coeffs (S, q, d)."""
    ts = slabs.right[:, None]
    d = coeffs.sum(axis=1) - _sample(exact, ts, "exact_u", coeffs.shape[2], slabs.number)[:, 0]
    return [float(e.max()) for e in slabs.split(np.sqrt(((d @ W) * d).sum(axis=-1)))]


def _l2_error(U: BrokenFunction, exact, W, quad: Quadrature, field: str) -> float:
    return _l2_errors(U.coeffs, exact, _weight_matrix(W, U.dim), quad, _Slabs.of([U.mesh]),
                      field)[0]


def error_l2_energy(U: BrokenFunction, exact, normU, quad: Quadrature) -> float:
    """L2-in-time error (sum_n int_{I_n} ||U - exact||_normU^2 dt)^(1/2)."""
    return _l2_error(U, exact, normU, quad, "exact_u")


def error_nodal_max(U: BrokenFunction, exact, M) -> float:
    """max_n ||U^n - exact(t_n)||_M over the breakpoints t_1 .. t_N."""
    return _nodal_errors(U.coeffs, exact, _weight_matrix(M, U.dim), _Slabs.of([U.mesh]))[0]


def error_l2_multiplier(P: BrokenFunction, exact_p, normQ1, quad: Quadrature) -> float:
    """L2-in-time error of the Lagrange multiplier."""
    return _l2_error(P, exact_p, normQ1, quad, "exact_p")


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


def l2_project_broken(phi, mesh, dim: int, q: int, quad: Quadrature) -> BrokenFunction:
    """Plain slab-wise L2 projection of degree q - 1 (measurement utility).

    Unlike the endpoint-interpolating projection this matches q moments and
    generally misses the breakpoint values; useful for comparing the two
    data treatments.
    """
    return BrokenFunction(mesh, _slab_coeffs(phi, _Slabs.of([mesh]), quad, q, "phi", dim, False))


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
    solver's _march): every data field and every norm's exact solution is
    sampled once for all levels, and each norm is reduced per level, so a
    row holds what solve_constrained and the public norms give on its mesh.
    A failure names the level's own N or 1-based slab; when several levels
    fail, the first failing stage (data, solve, norms) reports its first
    level.
    """
    opts = SolverOptions(q=q, use_projection=use_projection)
    if q + 3 > _MAX_POINTS:
        raise ValueError(f"q must be at most {_MAX_POINTS - 3} for a study, whose error "
                         f"quadrature has q + 3 points; got {q}")
    _check_slab_counts(Ns)
    Ns = [int(N) for N in Ns]
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
    errquad = gauss_legendre(q + 3)

    meshes = [build_uniform_mesh(1.0, N) for N in Ns]
    sols = _march(system, meshes, opts)
    slabs = _Slabs.of(meshes)
    U = np.concatenate([sol.U.coeffs for sol in sols])
    errors = {}
    if "energy" in norms:
        errors["err_energy"] = _l2_errors(U, system.exact_u, system.normU, errquad, slabs,
                                          "exact_u")
    if "nodal" in norms:
        errors["err_nodal"] = _nodal_errors(U, system.exact_u, system.M, slabs)
    if "multiplier" in norms:
        P = np.concatenate([sol.P.coeffs for sol in sols])
        errors["err_p"] = _l2_errors(P, system.exact_p, system.normQ1, errquad, slabs, "exact_p")
    recs = []
    for i, N in enumerate(Ns):
        rec = {"N": N, "k": 1.0 / N, **{key: errs[i] for key, errs in errors.items()}}
        for key, err in rec.items():
            if not math.isfinite(err):
                raise ValueError(f"{key} is not finite ({err}) at N = {N}")
        recs.append(rec)

    orders = {}
    for key in ("err_energy", "err_nodal", "err_p"):
        if key in recs[0] and len(recs) >= 2:
            orders[key] = [None] + eoc([r[key] for r in recs], Ns)
        else:
            orders[key] = [None] * len(recs)
    rows = tuple(
        StudyRow(
            N=r["N"], k=r["k"],
            err_energy=r.get("err_energy"), eoc_energy=orders["err_energy"][i],
            err_nodal=r.get("err_nodal"), eoc_nodal=orders["err_nodal"][i],
            err_p=r.get("err_p"), eoc_p=orders["err_p"][i],
        )
        for i, r in enumerate(recs)
    )
    return EOCTable(problem=system.name, q=q, use_projection=use_projection, rows=rows)
