"""Per-slab DG solvers for linearly constrained parabolic systems.

On the slab I_n = (t_{n-1}, t_n] of width k, expanding the unknown in the
shifted Legendre basis, U|_{I_n} = sum_j phi_j u_j, the DG-in-time weak
form reduces to the dense linear system

    sum_j (Dmat_ij M + Smat_ij A) u_j [+ sum_j Smat_ij B1^T p_j]
        = F_i + e_i M u_prev,
    sum_j Smat_ij B1 u_j = G_i,

where Dmat collects the weak time derivative plus the upwind jump term,
Smat = diag(k / (2j+1)) is the slab mass matrix, e_i = phi_i(t_{n-1}+)
= (-1)^i, F_i = int_{I_n} phi_i f dt, and u_prev is the terminal value of
the previous slab (the initial state for n = 1).  Slabs are solved in
sequence, but only the u_prev term links one slab to the next: all data
(load moments, projected constraint data, lift coefficients) is computed
for every slab at once, and for every class of equal slab widths the
dense system K is factored once and solved for that class's data
right-hand sides Y in one call.  Marching is then x_n = Y_n + K^{-1} E u_{n-1}, with
E u_prev the u_prev term: a width class with at least as many slabs as E
has columns stores the propagator H = K^{-1} E in place of its factors
and pays one product per slab, any other class one solve per slab.

Constraint data enters through G_i.  With the projection switch on, g1 is
replaced by its endpoint-interpolating slab projection, which makes the
discrete constraint B1 U = (projected g1) hold identically as a polynomial
on every slab; switched off, G_i falls back to the raw quadrature moments
of g1 (the discrete constraint then only matches g1 in the L2 sense, which
costs nodal superconvergence and a full order of the multiplier).

Explicitly constrained components (B2 u = g2) are eliminated before the
solve: the data lift G(t) = L g2(t) is projected slab-wise, the solution
is written as U = Z y + (proj G) with Z an orthonormal kernel basis of B2,
and the slab system above is posed for y on the kernel.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve, null_space
from scipy.linalg.lapack import dgecon

from .projection import DataError, _moments, _sample, _slab_coeffs, _slab_nodes
from .timecore import _MAX_POINTS, BrokenFunction, Quadrature, TimeMesh, gauss_legendre

__all__ = [
    "SolverOptions",
    "MixedSolution",
    "SlabSolveError",
    "DataError",
    "assemble_temporal_matrices",
    "solve_mixed",
    "solve_constrained",
    "solve_monolithic",
    "dg_residual",
    "constraint_residual",
]


class SlabSolveError(RuntimeError):
    """A slab system could not be solved; carries the 1-based slab index."""

    def __init__(self, slab: int, message: str):
        super().__init__(f"slab {slab}: {message}")
        self.slab = slab


@dataclass(frozen=True)
class SolverOptions:
    """q temporal dofs per slab (degree q-1) and the projection switch."""

    q: int = 2
    use_projection: bool = True

    def __post_init__(self):
        if not 1 <= self.q <= _MAX_POINTS - 2:
            raise ValueError(f"q must be in 1..{_MAX_POINTS - 2}, got {self.q}")

    def quadrature(self) -> Quadrature:
        """The slab rule, max(q + 2, 4) Gauss points: exact beyond degree 2q - 1."""
        return gauss_legendre(max(self.q + 2, 4))


@dataclass(frozen=True, eq=False)
class MixedSolution:
    """Broken state U, broken multiplier P (None when r1 = 0), diagnostics."""

    U: BrokenFunction
    P: Optional[BrokenFunction]
    condition_estimates: np.ndarray


def assemble_temporal_matrices(q: int, width: float):
    """Per-slab temporal matrices in the shifted Legendre basis.

    Returns (Dmat, Smat, e) with

        Dmat_ij = int phi_j' phi_i dt + phi_j(a+) phi_i(a+),
        Smat    = diag(width / (2j + 1)),
        e_i     = phi_i(a+) = (-1)^i.

    The derivative part is width-independent: int P_j' P_i dx over [-1, 1]
    equals 2 for j > i with j - i odd and vanishes otherwise.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if not width > 0.0:
        raise ValueError("slab width must be positive")
    j = np.arange(q)
    e = (-1.0) ** j
    Dmat = np.outer(e, e)
    for i in range(q):
        for jj in range(i + 1, q, 2):
            Dmat[i, jj] += 2.0
    Smat = np.diag(width / (2.0 * j + 1.0))
    return Dmat, Smat, e


_WIDTH_ULPS = 4


def _class_widths(widths: np.ndarray, T: float) -> np.ndarray:
    """Width of the first slab of every slab's width class, (N,).

    A class holds the widths within _WIDTH_ULPS ulps of T of its smallest
    width.  Rounding spreads the widths of a uniform mesh by up to about
    one ulp of T, so every uniform mesh is one class.
    """
    w = np.sort(widths)
    lows, i = [], 0
    while i < w.size:
        lows.append(w[i])
        i = int(np.searchsorted(w, w[i] + _WIDTH_ULPS * np.spacing(T), side="right"))
    cls = np.searchsorted(lows, widths, side="right") - 1
    return widths[np.unique(cls, return_index=True)[1]][cls]


@dataclass(frozen=True, eq=False)
class _SlabData:
    """The data side of the slab equations, for all N slabs at once.

    k holds the class width of every slab, at which its matrix is built,
    (N,); S the slab mass matrix diagonals at k, (N, q).  F are the load
    moments int phi_i f dt, (N, q, m); G the constraint-row data S times the
    g1 coefficients, (N, q, r1); D2 the g2 coefficients, (N, q, r2); C the
    lift coefficients D2 L^T, (N, q, m).  Constraint data is projected
    (endpoint-interpolating) or L2-projected as the options say.
    """

    k: np.ndarray
    S: np.ndarray
    F: np.ndarray
    G: np.ndarray
    D2: np.ndarray
    C: np.ndarray


def _slab_data(system, mesh: TimeMesh, opts: SolverOptions) -> _SlabData:
    """Sample f, g1 and g2 once over all slabs and reduce them to slab data."""
    q, quad = opts.q, opts.quadrature()
    bp, widths, N = mesh.breakpoints, mesh.widths, mesh.N
    k = _class_widths(widths, mesh.T)
    S = k[:, None] / (2.0 * np.arange(q) + 1.0)
    F = _moments(_sample(system.f, _slab_nodes(bp, quad), "f", system.m), widths, quad, q)

    def coeffs(g, field, dim):
        if dim == 0:
            return np.zeros((N, q, 0))
        return _slab_coeffs(g, bp, quad, q, field, dim, opts.use_projection)

    G = S[:, :, None] * coeffs(system.g1, "g1", system.r1)
    D2 = coeffs(system.g2, "g2", system.r2)
    C = D2 @ system.lift.T if system.r2 else np.zeros_like(F)
    return _SlabData(k, S, F, G, D2, C)


def _slab_matrix(Dmat, Smat, Mmat, Amat, B1mat) -> np.ndarray:
    top = np.kron(Dmat, Mmat) + np.kron(Smat, Amat)
    if B1mat is None or B1mat.shape[0] == 0:
        return top
    nc = Smat.shape[0] * B1mat.shape[0]
    return np.block([
        [top, np.kron(Smat, B1mat.T)],
        [np.kron(Smat, B1mat), np.zeros((nc, nc))],
    ])


def _factor(K: np.ndarray, slab: int):
    """LU factors of K and the LAPACK gecon estimate of its 1-norm condition."""
    with warnings.catch_warnings():
        # singularity is detected below and raised as SlabSolveError
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = lu_factor(K, check_finite=False)
    d = np.abs(np.diag(lu))
    if d.size == 0 or d.min() <= d.max() * K.shape[0] * np.finfo(float).eps:
        raise SlabSolveError(slab, "singular slab system (check constraint ranks / inf-sup)")
    rcond, _ = dgecon(lu, np.abs(K).sum(axis=0).max(), norm="1")
    return (lu, piv), (1.0 / rcond if rcond > 0.0 else np.inf)


def _kernel_basis(system) -> np.ndarray:
    lift_res = float(np.abs(system.B2 @ system.lift - np.eye(system.r2)).max())
    if lift_res > 1e-10:
        raise ValueError(f"lift is not a right inverse of B2 (residual {lift_res:.2e})")
    Z = null_space(np.asarray(system.B2, dtype=float))
    if Z.shape[1] == 0:
        raise ValueError("B2 leaves no free state components")
    return Z


class _SlabOperator:
    """Spatial blocks on ker B2 and the slab coupling, shared by every solver.

    The slab unknown x stacks the q kernel coefficients y_j (u_j = Z y_j +
    c_j) and the q multiplier coefficients.  E maps the previous terminal
    value u_prev to its right-hand side term, e (x) Z^T M u_prev, and Pend
    maps x to the kernel part of the slab's terminal value, Z sum_j y_j.
    Without explicit constraints Z is the identity and c = 0.
    """

    def __init__(self, system, q: int):
        m, r1 = system.m, system.r1
        self.system, self.q = system, q
        self.Z = _kernel_basis(system) if system.r2 > 0 else None
        Z = np.eye(m) if self.Z is None else self.Z
        self.mz = Z.shape[1]
        ZtM = Z.T @ system.M
        self.Mz, self.Az = ZtM @ Z, Z.T @ system.A @ Z
        self.B1z = system.B1 @ Z if r1 else None
        self.Dmat, _, e = assemble_temporal_matrices(q, 1.0)
        self.s = q * (self.mz + r1)
        self.E = np.zeros((self.s, m))
        self.E[: q * self.mz] = np.kron(e[:, None], ZtM)
        self.Pend = np.zeros((m, self.s))
        self.Pend[:, : q * self.mz] = np.kron(np.ones((1, q)), Z)

    def matrix(self, width: float) -> np.ndarray:
        _, Smat, _ = assemble_temporal_matrices(self.q, width)
        return _slab_matrix(self.Dmat, Smat, self.Mz, self.Az, self.B1z)

    def rhs(self, data: _SlabData) -> np.ndarray:
        """Data part of every slab right-hand side, (N, s)."""
        sysm, N = self.system, data.F.shape[0]
        F, G = data.F, data.G
        if self.Z is not None:
            S, C = data.S[:, :, None], data.C
            F = (F - self.Dmat @ (C @ sysm.M.T) - S * (C @ sysm.A.T)) @ self.Z
            G = G - S * (C @ sysm.B1.T)
        return np.concatenate([F.reshape(N, -1), G.reshape(N, -1)], axis=1)

    def solution(self, mesh: TimeMesh, X: np.ndarray, data: _SlabData,
                 conds: np.ndarray) -> MixedSolution:
        q, mz, r1 = self.q, self.mz, self.system.r1
        y = X[:, : q * mz].reshape(mesh.N, q, mz)
        U = BrokenFunction(mesh, y if self.Z is None else y @ self.Z.T + data.C)
        P = BrokenFunction(mesh, X[:, q * mz:].reshape(mesh.N, q, r1)) if r1 else None
        return MixedSolution(U, P, conds)


def _march(system, mesh: TimeMesh, opts: SolverOptions) -> MixedSolution:
    """Sequential solve, slab data batched per width class."""
    data = _slab_data(system, mesh, opts)
    op = _SlabOperator(system, opts.q)
    E = op.E
    X = op.rhs(data)
    widths, first, cls = np.unique(data.k, return_index=True, return_inverse=True)
    step = [None] * widths.size  # u_prev -> K^{-1} E u_prev, per width class
    conds = np.empty(widths.size)
    for c in np.argsort(first):
        lu, conds[c] = _factor(op.matrix(widths[c]), int(first[c]) + 1)
        idx = cls == c
        X[idx] = lu_solve(lu, X[idx].T, check_finite=False).T
        # H costs one solve per column of E, so it pays only for a width
        # with at least that many slabs.
        if np.count_nonzero(idx) >= E.shape[1]:
            step[c] = lu_solve(lu, E, check_finite=False).__matmul__
        else:
            step[c] = lambda u, lu=lu: lu_solve(lu, E @ u, check_finite=False)
    u = system.u0
    cend = data.C.sum(axis=1)
    for n, c in enumerate(cls.tolist()):
        X[n] += step[c](u)
        u = op.Pend @ X[n] + cend[n]
    return op.solution(mesh, X, data, conds[cls])


def solve_mixed(system, mesh: TimeMesh, opts: SolverOptions) -> MixedSolution:
    """Sequential slab-by-slab solve of the multiplier formulation (r2 = 0)."""
    if system.r2 != 0:
        raise ValueError("solve_mixed requires r2 = 0; use solve_constrained")
    return _march(system, mesh, opts)


def solve_constrained(system, mesh: TimeMesh, opts: SolverOptions) -> MixedSolution:
    """Sequential solve with the explicit constraint block eliminated (r2 >= 1).

    The lifted data L g2 is projected slab-wise; on every slab the total
    coefficients are u_j = Z y_j + c_j with c the lift coefficients, so the
    kernel system for y carries the lift contribution on its right-hand
    side.  When B1 is also present, the multiplier block is retained on the
    kernel (combined case).
    """
    if system.r2 == 0:
        raise ValueError("solve_constrained requires r2 >= 1; use solve_mixed")
    return _march(system, mesh, opts)


def solve_monolithic(system, mesh: TimeMesh, opts: SolverOptions) -> MixedSolution:
    """Assemble all slabs into one block lower-triangular system and solve once.

    Produces the same solution as the sequential solvers (cross-check path;
    the global matrix is dense, so keep N small).
    """
    data = _slab_data(system, mesh, opts)
    op = _SlabOperator(system, opts.q)
    N, s = mesh.N, op.s
    rhs = op.rhs(data)
    rhs[0] += op.E @ system.u0
    # the lift part of the previous terminal value stays on the right-hand side
    rhs[1:] += data.C[:-1].sum(axis=1) @ op.E.T
    couple = op.E @ op.Pend
    Kg = np.zeros((N * s, N * s))
    for n, k in enumerate(data.k):
        row = n * s
        Kg[row: row + s, row: row + s] = op.matrix(k)
        if n > 0:
            Kg[row: row + s, row - s: row] = -couple
    lu, cond = _factor(Kg, 0)
    X = lu_solve(lu, rhs.ravel(), check_finite=False).reshape(N, s)
    return op.solution(mesh, X, data, np.full(N, cond))


def dg_residual(system, mesh: TimeMesh, opts: SolverOptions, U: BrokenFunction,
                P: Optional[BrokenFunction] = None) -> np.ndarray:
    """Max absolute residual of the discrete equations, per slab.

    Tests the momentum equation against every temporal basis function (on
    the constraint kernel when an explicit block is present) and the
    constraint equations in their modal coefficients, using the same data
    treatment as the solvers.
    """
    if U.dim != system.m or U.degree != opts.q - 1:
        raise ValueError("solution shape does not match system/options")
    r1 = system.r1
    if r1 and (P is None or P.dim != r1):
        raise ValueError("multiplier P of dimension r1 required")
    M, A, B1 = system.M, system.A, system.B1
    Z = _kernel_basis(system) if system.r2 > 0 else None
    data = _slab_data(system, mesh, opts)
    Dmat, _, e = assemble_temporal_matrices(opts.q, 1.0)
    S = data.S[:, :, None]
    uc = U.coeffs
    u_prev = np.vstack([system.u0, uc[:-1].sum(axis=1)])
    R = Dmat @ (uc @ M.T) + S * (uc @ A.T) - data.F - e[:, None] * (u_prev @ M.T)[:, None, :]
    if r1:
        R = R + S * (P.coeffs @ B1)
    parts = [np.abs(R if Z is None else R @ Z).max(axis=(1, 2))]
    if r1:
        parts.append(np.abs(S * (uc @ B1.T) - data.G).max(axis=(1, 2)))
    if system.r2 > 0:
        parts.append(np.abs(uc @ system.B2.T - data.D2).max(axis=(1, 2)))
    return np.max(parts, axis=0)


def constraint_residual(system, mesh: TimeMesh, opts: SolverOptions,
                        U: BrokenFunction) -> np.ndarray:
    """Per-slab max modal coefficient of B U minus the projected data.

    This is the quantity that vanishes identically (up to rounding) when
    the projection switch is on: the discrete constraint holds as a
    polynomial identity on every slab, not just in quadrature.
    """
    quad = opts.quadrature()
    out = np.zeros(mesh.N)
    for B, g, field in ((system.B1, system.g1, "g1"), (system.B2, system.g2, "g2")):
        if B.shape[0]:
            d = _slab_coeffs(g, mesh.breakpoints, quad, opts.q, field, B.shape[0], True)
            out = np.maximum(out, np.abs(U.coeffs @ B.T - d).max(axis=(1, 2)))
    return out
