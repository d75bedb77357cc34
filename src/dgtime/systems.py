"""Finite-dimensional linearly constrained parabolic systems.

A system collects the data of

    M u'(t) + A u(t) + B1^T p(t) = f(t)      (momentum)
    B1 u(t) = g1(t)                          (weak constraint, multiplier p)
    B2 u(t) = g2(t)                          (explicit constraint, eliminated)
    u(0) = u0,

with M SPD, A symmetric and elliptic on ker([B1; B2]), and [B1; B2] of
full row rank.  Either constraint block may be empty.  The marching solver
eliminates B2 with R = pinv([B1; B2]), computed from the matrices; the
monolithic oracle keeps both blocks with a multiplier each instead.  Both
give the same discrete state.

Two generators with manufactured exact solutions are built in:

* ``build_heat_1d`` — 1D heat equation on (0, 1), quadratic finite
  elements, Dirichlet values as the explicit constraint block (r1 = 0).
  The manufactured solution is required to be quadratic in space, so the
  spatial discretization is exact and measured errors are purely temporal.
* ``build_saddle_dae`` — a small index-2 saddle-point DAE (preset
  "stokes3") standing in for a mixed Stokes-type system (r2 = 0): the
  algebraic constraint B1 u = g1 is enforced by a Lagrange multiplier.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np

from .timecore import _readonly

__all__ = [
    "ConstrainedSystem",
    "ManufacturedSolution1D",
    "DEFAULT_HEAT_SOLUTION",
    "Check",
    "ValidationReport",
    "PRESET_FUNCTIONS",
    "build_heat_1d",
    "build_saddle_dae",
    "validate_system",
    "load_system",
]

_COMPAT_TOL = 1e-10
_STRUCTURE_TOL = 1e-12  # relative tolerance of the structural checks


def _asymmetry(X: np.ndarray) -> tuple:
    """(max |X - X^T|, whether it is within _STRUCTURE_TOL of max |X|)."""
    asym = float(np.abs(X - X.T).max(initial=0.0))
    return asym, asym <= _STRUCTURE_TOL * (float(np.abs(X).max(initial=0.0)) or 1.0)


_BLOCK = 64  # rows per diagonal block of _lower_solve


def _lower_solve(L: np.ndarray, B: np.ndarray, transpose: bool = False) -> np.ndarray:
    """L^-1 B, or L^-T B with transpose, for a lower triangular L (n, n) and B (n, k).

    Blocked substitution: each _BLOCK rows of the result take one GEMM with
    the rows already solved and one np.linalg.solve on their diagonal block
    of L, forward for L^-1 and backward for L^-T.
    """
    n = L.shape[0]
    X = np.empty_like(B)
    starts = range(0, n, _BLOCK)
    for s in (reversed(starts) if transpose else starts):
        e = min(s + _BLOCK, n)
        if transpose:
            D, rhs = L[s:e, s:e].T, B[s:e] - L[e:, s:e].T @ X[e:]
        else:
            D, rhs = L[s:e, s:e], B[s:e] - L[s:e, :s] @ X[:s]
        X[s:e] = np.linalg.solve(D, rhs)
    return X


def _full_row_rank(sv: np.ndarray, rows: int) -> bool:
    """The rank rule: `rows` singular values, the smallest above _STRUCTURE_TOL of the largest."""
    return bool(sv.size == rows and (rows == 0 or sv[-1] > _STRUCTURE_TOL * sv[0]))


class _Reduction(NamedTuple):
    """A system's kept spatial reduction (ConstrainedSystem._reduction)."""

    sv: np.ndarray
    asymmetry: tuple
    infsup: np.ndarray
    sigma: Optional[np.ndarray]
    R: Optional[np.ndarray]
    VR: Optional[np.ndarray]
    MR: Optional[np.ndarray]
    AR: Optional[np.ndarray]
    Mu0: Optional[np.ndarray]
    RMV: Optional[np.ndarray]
    RAV: Optional[np.ndarray]

    @property
    def V(self) -> np.ndarray:
        """The eigenbasis, (m, mw): the first mw columns of VR, a view."""
        return self.VR[:, :self.sigma.size]


def _u0_mismatch(system) -> list:
    """(label, residual) for every constraint block that u0 violates at t = 0."""
    out = []
    for B, g, label in ((system.B1, system.g1, "g1"), (system.B2, system.g2, "g2")):
        if B.shape[0] == 0:
            continue
        Bu0 = B @ system.u0
        res = float(np.abs(Bu0 - np.atleast_1d(np.asarray(g(0.0), dtype=float))).max())
        if res > _COMPAT_TOL * (1.0 + float(np.abs(Bu0).max())):
            out.append((label, res))
    return out


@dataclass(frozen=True, eq=False)
class ConstrainedSystem:
    """Immutable system data; function fields must be pure and reentrant.

    A function field maps one time to a scalar or (d,) vector; it may also
    map an array of times (n,) to (d, n), which lets the solvers sample it
    once for all slabs; they probe for this and otherwise call it per time.

    The solvers keep the spatial reduction of (M, A, B1, B2) on the
    instance (_reduction): computed on first use, read-only, and reused by
    every later solve, dg_residual and validate_system, so no solve after
    the first use multiplies by M or A.  Build a new system
    (dataclasses.replace) to change the matrices.
    """

    M: np.ndarray
    A: np.ndarray
    f: Callable[[float], np.ndarray]
    u0: np.ndarray
    B1: Optional[np.ndarray] = None
    B2: Optional[np.ndarray] = None
    g1: Optional[Callable[[float], np.ndarray]] = None
    g2: Optional[Callable[[float], np.ndarray]] = None
    normU: Optional[np.ndarray] = None
    normQ1: Optional[np.ndarray] = None
    exact_u: Optional[Callable[[float], np.ndarray]] = None
    exact_p: Optional[Callable[[float], np.ndarray]] = None
    name: str = "custom"

    def __post_init__(self):
        M = _readonly(self.M)
        m = M.shape[0]
        if M.shape != (m, m):
            raise ValueError("M must be square")
        A = _readonly(self.A)
        if A.shape != (m, m):
            raise ValueError("A must match the shape of M")
        u0 = _readonly(self.u0)
        if u0.shape != (m,):
            raise ValueError("u0 must be a length-m vector")
        B1 = _readonly(self.B1 if self.B1 is not None else np.zeros((0, m)))
        B2 = _readonly(self.B2 if self.B2 is not None else np.zeros((0, m)))
        if B1.ndim != 2 or B1.shape[1] != m:
            raise ValueError("B1 must have shape (r1, m)")
        if B2.ndim != 2 or B2.shape[1] != m:
            raise ValueError("B2 must have shape (r2, m)")
        if B1.shape[0] > 0 and self.g1 is None:
            raise ValueError("g1 data required when B1 is present")
        if B2.shape[0] > 0 and self.g2 is None:
            raise ValueError("g2 data required when B2 is present")
        normU = _readonly(self.normU if self.normU is not None else M + A)
        normQ1 = _readonly(self.normQ1 if self.normQ1 is not None else np.eye(B1.shape[0]))
        if normU.shape != (m, m):
            raise ValueError("normU must have shape (m, m)")
        if normQ1.shape != (B1.shape[0],) * 2:
            raise ValueError("normQ1 must have shape (r1, r1)")
        for fld, val in (("M", M), ("A", A), ("B1", B1), ("B2", B2), ("u0", u0),
                         ("normU", normU), ("normQ1", normQ1)):
            if not np.isfinite(val).all():
                raise ValueError(f"{fld} has non-finite entries")
            object.__setattr__(self, fld, val)
        for label, res in _u0_mismatch(self):
            # stacklevel 3 skips this method and the dataclass __init__
            warnings.warn(f"initial state is incompatible with {label}(0) "
                          f"(residual {res:.3e}); reduced accuracy expected",
                          UserWarning, stacklevel=3)

    @property
    def m(self) -> int:
        return self.M.shape[0]

    @property
    def r1(self) -> int:
        return self.B1.shape[0]

    @property
    def r2(self) -> int:
        return self.B2.shape[0]

    @cached_property
    def _reduction(self) -> _Reduction:
        """The one SVD of B = [B1; B2], the eigenbasis on its kernel and the march's products.

        The SVD u diag(sv) vt, r = r1 + r2 rows, gives Q = vt[r:]^T, which
        spans ker B when B has full row rank, and the kernel pair
        Mw = Q^T M Q, Aw = Q^T A Q; asymmetry holds the _asymmetry of each.
        With the Cholesky factor L of Mw = L L^T, sigma and Y are the
        eigenpairs of C = L^-1 Aw L^-T, and W = L^-T Y, so W^T Mw W = I.
        L^-1 is never formed: two blocked triangular solves (_lower_solve)
        give C, and a third, with L^T, gives W.  C is symmetrized before its
        eigendecomposition, which averages the rounding of its two triangles
        (eigh reads one).  sigma is None when Mw has no Cholesky factor.

        With full row rank (_full_row_rank), R = pinv(B) =
        vt[:r]^T diag(1/sv) u^T, (m, r): its first r1 columns R1 lie in
        ker B2 and invert B1, and B2 R[:, r1:] = I; otherwise R is None.
        The singular values of B1 on ker B2 are the reciprocals of those of
        R1, which are those of u[:r1] / sv: infsup holds them, largest
        first, when r1 > 0 and R exists, and is empty otherwise.  When R and
        sigma both exist, it also holds what the march forms from the system
        alone: VR = [Q W, R1], of which V = Q W is a view, with V^T M V = I
        and V^T A V = diag(sigma), M R, A R, M u0, R1^T M V and R1^T A V;
        otherwise they are None.  vt, Q, the kernel pair and W are not
        kept: VR is m x (mw + r1), mw = m - r, and no other array has more
        than m max(r, 1) entries.  Every array is read-only.  A broken rule
        raises nothing here: dgsolver._modes and validate_system apply them.
        """
        B = np.vstack([self.B1, self.B2])
        r1, r = self.r1, B.shape[0]
        u, sv, vt = np.linalg.svd(B)
        Q = vt[r:].T
        Mw, Aw = Q.T @ self.M @ Q, Q.T @ self.A @ Q
        try:
            L = np.linalg.cholesky(Mw)
            C = _lower_solve(L, _lower_solve(L, Aw).T)
            sigma, Y = np.linalg.eigh(0.5 * (C + C.T))
            W = _lower_solve(L, Y, transpose=True)
        except np.linalg.LinAlgError:
            sigma = None
        R, infsup, march = None, np.zeros(0), (None,) * 6
        if _full_row_rank(sv, r):
            R = (vt[:r].T / sv) @ u.T
            if r1:
                infsup = (1.0 / np.linalg.svd(u[:r1] / sv, compute_uv=False))[::-1]
            if sigma is not None:
                M, A, R1 = self.M, self.A, R[:, :r1]
                VR = np.hstack([Q @ W, R1])
                V = VR[:, :sigma.size]
                march = (VR, M @ R, A @ R, M @ self.u0, R1.T @ M @ V, R1.T @ A @ V)
        value = _Reduction(sv, (_asymmetry(Mw), _asymmetry(Aw)), infsup, sigma, R, *march)
        for a in value:
            if isinstance(a, np.ndarray):
                a.setflags(write=False)
        return value


# ---------------------------------------------------------------------------
# validation

@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    value: Optional[float]
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple
    warnings: tuple

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)


def validate_system(system: ConstrainedSystem) -> ValidationReport:
    """Check the structural assumptions the solvers rely on.

    Reads the system's kept reduction (ConstrainedSystem._reduction) and
    applies the solvers' rules to it: full row rank of B = [B1; B2], M and
    A symmetric and M positive definite on ker B (its Cholesky
    factorization succeeds) and a free state component.  A is elliptic on
    ker B when the smallest eigenvalue of (Q^T A Q, Q^T M Q) exceeds 1e-12
    times the largest in size.  B1 is checked for inf-sup rank on ker(B2)
    by the rank rule on its singular values there, which the reduction
    keeps.  A broken rule is a failed check, never an exception.
    Initial-data compatibility is reported as a warning, never a failure.
    """
    red = system._reduction
    sv, sigma, (sym_m, ok_m), (sym_a, ok_a) = red.sv, red.sigma, *red.asymmetry
    checks = [Check("kernel mass SPD", ok_m and sigma is not None, sym_m,
                    f"max asymmetry {sym_m:.2e}, Cholesky {'failed' if sigma is None else 'ok'}"),
              Check("kernel stiffness symmetric", ok_a, sym_a, f"max asymmetry {sym_a:.2e}")]
    if sv.size == 0:
        checks.append(Check("constraint row rank", True, None, "no constraints"))
    else:
        checks.append(Check("constraint row rank", red.R is not None,
                            float(sv[-1]), f"smallest singular value {sv[-1]:.3e}"))
    if sigma is None:
        checks.append(Check("kernel ellipticity", False, None, "M not positive definite"))
    elif sigma.size == 0:
        checks.append(Check("kernel ellipticity", True, None, "trivial kernel"))
    else:
        checks.append(Check("kernel ellipticity", bool(sigma[0] > _STRUCTURE_TOL * abs(sigma[-1])),
                            float(sigma[0]), f"smallest kernel eigenvalue {sigma[0]:.3e}"))
    if system.r2 > 0:
        free = system.m - system.r2
        checks.append(Check("free state components", free > 0, float(free),
                            f"{free} of {system.m} components not fixed by B2"))
    if system.r1 > 0:
        # empty without R, that is without full row rank of B, which fails the rank check too
        smin = float(red.infsup[-1]) if red.infsup.size else 0.0
        checks.append(Check("inf-sup (B1 on ker B2)", _full_row_rank(red.infsup, system.r1), smin,
                            f"smallest singular value {smin:.3e}"))

    warns = tuple(f"initial state incompatible with {label}(0) (residual {res:.3e})"
                  for label, res in _u0_mismatch(system))
    return ValidationReport(tuple(checks), warns)


# ---------------------------------------------------------------------------
# 1D heat generator (quadratic elements)

@dataclass(frozen=True)
class ManufacturedSolution1D:
    """Space-time solution handle; callables of (x, t), vectorized in x.

    Callables that also broadcast over an array of times (x of shape (P, 1),
    t of shape (n,)) let the solvers sample the data once for all slabs.
    """

    u: Callable
    u_t: Callable
    u_xx: Callable


DEFAULT_HEAT_SOLUTION = ManufacturedSolution1D(
    u=lambda x, t: (1.0 + x * x) * np.sin(4.0 * t) + x * np.cos(3.0 * t),
    u_t=lambda x, t: 4.0 * (1.0 + x * x) * np.cos(4.0 * t) - 3.0 * x * np.sin(3.0 * t),
    u_xx=lambda x, t: 2.0 * np.sin(4.0 * t) + 0.0 * x,
)

# P2 element matrices on an element of width h:
#   mass = h/30 * EL_MASS,  stiffness = 1/(3h) * EL_STIFF
EL_MASS = np.array([[4.0, 2.0, -1.0], [2.0, 16.0, 2.0], [-1.0, 2.0, 4.0]])
EL_STIFF = np.array([[7.0, -8.0, 1.0], [-8.0, 16.0, -8.0], [1.0, -8.0, 7.0]])

# 3-point Gauss on [0, 1] (exactness 5) for load integrals against P2 shapes.
_GAUSS3_X = np.array([0.5 - np.sqrt(15.0) / 10.0, 0.5, 0.5 + np.sqrt(15.0) / 10.0])
_GAUSS3_W = np.array([5.0, 8.0, 5.0]) / 18.0


def _p2_shapes(xi):
    """Quadratic Lagrange shapes on [0, 1] at nodes 0, 1/2, 1; shape (len(xi), 3)."""
    xi = np.asarray(xi, dtype=float)
    return np.stack(
        [2.0 * xi * xi - 3.0 * xi + 1.0, 4.0 * xi * (1.0 - xi), 2.0 * xi * xi - xi],
        axis=-1,
    )


def _at_points(fn, x: np.ndarray, t) -> np.ndarray:
    """fn(x, t) as (len(x),) for a scalar t and as (len(x), n) for n times.

    A handle's result is returned as it is when it has that shape, so it may
    be x itself; one that ignores x or t is broadcast to it, in a copy.
    """
    if np.ndim(t) == 0:
        shape, v = (x.size,), fn(x, t)
    else:
        t = np.asarray(t, dtype=float)
        shape, v = (x.size, t.size), fn(x[:, None], t)
    v = np.asarray(v, dtype=float)
    return v if v.shape == shape else np.array(np.broadcast_to(v, shape))


def build_heat_1d(n_elements: int, solution: Optional[ManufacturedSolution1D] = None) -> ConstrainedSystem:
    """Heat equation u_t - u_xx = f on (0, 1) with Dirichlet data, P2 elements.

    The manufactured ``solution`` must be quadratic in x so its nodal
    interpolant is exact; the builder verifies this by checking that the
    interior semidiscrete residual vanishes and rejects anything else.
    Returns a system with r1 = 0 and B2 selecting the two boundary dofs.
    """
    if n_elements < 2:
        raise ValueError("need at least 2 elements (boundary dofs must be distinct)")
    sol = solution if solution is not None else DEFAULT_HEAT_SOLUTION
    h = 1.0 / n_elements
    m = 2 * n_elements + 1
    x_nodes = _readonly(np.linspace(0.0, 1.0, m))  # _at_points may hand back a handle's x

    M = np.zeros((m, m))
    A = np.zeros((m, m))
    for e in range(n_elements):
        idx = slice(2 * e, 2 * e + 3)
        M[idx, idx] += (h / 30.0) * EL_MASS
        A[idx, idx] += (1.0 / (3.0 * h)) * EL_STIFF

    # f(t) assembles the P2 load vector from v(t) = u_t - u_xx at the element
    # Gauss points: element e's three shapes take el_load @ v_e, and its end
    # shapes add into the nodes it shares with its neighbours.
    x_gauss = (x_nodes[:-1:2][:, None] + h * _GAUSS3_X[None, :]).ravel()
    el_load = h * (_GAUSS3_W[:, None] * _p2_shapes(_GAUSS3_X)).T  # (3 shapes, 3 gauss)

    def f(t):
        v = _at_points(sol.u_t, x_gauss, t) - _at_points(sol.u_xx, x_gauss, t)
        loads = el_load @ v.reshape(n_elements, 3, -1)  # (element, shape, time)
        out = np.zeros((m, loads.shape[2]))
        out[:-1:2] = loads[:, 0]
        out[1::2] = loads[:, 1]
        out[2::2] += loads[:, 2]
        return out.reshape((m,) + v.shape[1:])

    B2 = np.zeros((2, m))
    B2[0, 0] = 1.0
    B2[1, m - 1] = 1.0
    x_boundary = _readonly(x_nodes[[0, -1]])

    def g2(t):
        return _at_points(sol.u, x_boundary, t)

    def exact_u(t):
        return _at_points(sol.u, x_nodes, t)

    u0 = sol.u(x_nodes, 0.0)

    system = ConstrainedSystem(
        M=M, A=A, f=f, u0=u0, B2=B2, g2=g2, exact_u=exact_u, name="heat1d",
    )

    # Reject solutions the P2 space cannot represent exactly: for those the
    # interior rows of M u_t + A u - f do not vanish.  The four probe times
    # are fixed draws from (0, 1), literals so that no numpy.random loads.
    for t in (0.5427709237464297, 0.2529864184077171, 0.2809319884322955, 0.2750020290626779):
        ft = f(t)
        res = M @ sol.u_t(x_nodes, t) + A @ sol.u(x_nodes, t) - ft
        scale = 1.0 + float(np.abs(ft).max(initial=0.0))
        if np.abs(res[1:-1]).max(initial=0.0) > 1e-10 * scale:
            raise ValueError(
                "manufactured solution is not quadratic in space: interior "
                f"residual {np.abs(res[1:-1]).max():.3e} at t = {t:.3f}"
            )
    return system


# ---------------------------------------------------------------------------
# saddle-point DAE generator

_STOKES3_A = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])


def _stokes3_handles():
    def u(t):
        return np.array([np.sin(4.0 * t) * (1.0 + t), np.cos(3.0 * t), np.exp(-t) + t * t])

    def du(t):
        return np.array([4.0 * np.cos(4.0 * t) * (1.0 + t) + np.sin(4.0 * t),
                         -3.0 * np.sin(3.0 * t),
                         -np.exp(-t) + 2.0 * t])

    def p(t):
        return np.array([np.exp(t)])

    return u, du, p


def build_saddle_dae(preset: Optional[str] = None, *,
                     M=None, A=None, B1=None,
                     exact_u=None, exact_du=None, exact_p=None,
                     name: Optional[str] = None) -> ConstrainedSystem:
    """Index-2 saddle DAE  M u' + A u + B1^T p = f,  B1 u = g1  (r2 = 0).

    Either pass ``preset="stokes3"`` or matrices M, A, B1 together with
    manufactured handles (exact_u, exact_du, exact_p); f and g1 are derived
    so the handles solve the system identically.  B1 may be omitted for an
    unconstrained parabolic ODE system.
    """
    if preset is not None:
        if preset != "stokes3":
            raise ValueError(f"unknown preset {preset!r}")
        M = np.eye(3)
        A = _STOKES3_A.copy()
        B1 = np.array([[1.0, 1.0, 1.0]])
        exact_u, exact_du, exact_p = _stokes3_handles()
        name = preset
    if M is None or A is None or exact_u is None or exact_du is None:
        raise ValueError("matrices M, A and handles exact_u, exact_du are required")
    M = np.asarray(M, dtype=float)
    A = np.asarray(A, dtype=float)
    B1 = np.zeros((0, M.shape[0])) if B1 is None else np.asarray(B1, dtype=float)
    r1 = B1.shape[0]

    def f(t: float) -> np.ndarray:
        out = M @ exact_du(t) + A @ exact_u(t)
        if r1 > 0:
            out = out + B1.T @ np.atleast_1d(exact_p(t))
        return out

    g1 = (lambda t: B1 @ exact_u(t)) if r1 > 0 else None

    system = ConstrainedSystem(
        M=M, A=A, f=f, u0=np.asarray(exact_u(0.0), dtype=float),
        B1=B1 if r1 > 0 else None, g1=g1, exact_u=exact_u, exact_p=exact_p if r1 > 0 else None,
        name=name or "saddle-dae",
    )
    if r1 > 0:
        # the system's own reduction, which its solves and validation then reuse
        if system._reduction.R is None:
            raise ValueError("B1 must have full row rank")
        if exact_p is None:
            raise ValueError("exact_p handle required when B1 is present")
    return system


# ---------------------------------------------------------------------------
# JSON ingestion (named data presets only; no expression parsing)

# Every preset maps an array of times to an array of the same shape.
PRESET_FUNCTIONS = {
    "zero": lambda t: np.zeros_like(t, dtype=float),
    "const1": lambda t: np.ones_like(t, dtype=float),
    "t": lambda t: t,
    "tsq": lambda t: t * t,
    "sin4t": lambda t: np.sin(4.0 * t),
    "cos3t": lambda t: np.cos(3.0 * t),
    "exp_t": lambda t: np.exp(t),
    "exp_neg_t": lambda t: np.exp(-t),
}


def _preset_vector_fn(entry, dim: int, field_name: str):
    """Build t -> R^dim from a preset name or a list of per-component names."""
    if entry is None:
        entry = "zero"
    if isinstance(entry, str):
        names = [entry] * dim
    elif isinstance(entry, list) and all(isinstance(s, str) for s in entry):
        names = list(entry)
    else:
        raise ValueError(f"{field_name}: expected a preset name or list of names")
    if len(names) != dim:
        raise ValueError(f"{field_name}: got {len(names)} presets for dimension {dim}")
    try:
        fns = [PRESET_FUNCTIONS[s] for s in names]
    except KeyError as exc:
        raise ValueError(f"{field_name}: unknown preset {exc.args[0]!r} "
                         f"(known: {sorted(PRESET_FUNCTIONS)})") from exc
    return lambda t: np.array([fn(t) for fn in fns], dtype=float)


def _numeric(raw: dict, key: str, ndim: int):
    """raw[key] as a float array with ndim axes; None when the key is absent."""
    if key not in raw:
        return None
    try:
        X = np.asarray(raw[key], dtype=float)
    except (TypeError, ValueError, OverflowError):
        X = None
    if X is None or X.ndim != ndim:
        raise ValueError(f"{key} must be a {ndim}-D array of numbers")
    return X


def load_system(path) -> ConstrainedSystem:
    """Read a ConstrainedSystem from a JSON file.

    The file holds one object.  Matrices are row-major nested arrays of
    numbers; data functions (f, g1, g2, exact_u, exact_p) are named presets
    from PRESET_FUNCTIONS, either one name (broadcast over components) or a
    list of per-component names.  A file gives no right inverse of B2: the
    solvers take what they need from the matrices.  Unknown keys are
    ignored; malformed content raises ValueError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("system file must hold a JSON object")
    if "M" not in raw or "u0" not in raw:
        raise ValueError("system file must define at least 'M' and 'u0'")
    M = _numeric(raw, "M", 2)
    m = M.shape[0]
    A = _numeric(raw, "A", 2)
    B1, B2 = _numeric(raw, "B1", 2), _numeric(raw, "B2", 2)
    r1 = 0 if B1 is None else B1.shape[0]
    r2 = 0 if B2 is None else B2.shape[0]
    return ConstrainedSystem(
        M=M, A=np.zeros((m, m)) if A is None else A,
        f=_preset_vector_fn(raw.get("f"), m, "f"),
        u0=_numeric(raw, "u0", 1),
        B1=B1, B2=B2,
        g1=_preset_vector_fn(raw.get("g1"), r1, "g1") if r1 > 0 else None,
        g2=_preset_vector_fn(raw.get("g2"), r2, "g2") if r2 > 0 else None,
        normU=_numeric(raw, "normU", 2),
        normQ1=_numeric(raw, "normQ1", 2),
        exact_u=_preset_vector_fn(raw["exact_u"], m, "exact_u") if "exact_u" in raw else None,
        exact_p=_preset_vector_fn(raw["exact_p"], r1, "exact_p") if "exact_p" in raw else None,
        name=str(raw.get("name", "file")),
    )
