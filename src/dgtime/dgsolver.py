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
the previous slab (the initial state for n = 1).  All data (load moments
and projected constraint data) is computed for every slab at once.

Constraint data enters through G_i.  With the projection switch on, g1 is
replaced by its endpoint-interpolating slab projection, which makes the
discrete constraint B1 U = (projected g1) hold identically as a polynomial
on every slab; switched off, G_i falls back to the raw quadrature moments
of g1 (the discrete constraint then only matches g1 in the L2 sense, which
costs nodal superconvergence and a full order of the multiplier).

The marching solver never forms this dense system.  One SVD of the
stacked constraints B = [B1; B2], the reduction validate_system checks,
gives Q, an orthonormal basis of ker B, and R = pinv(B), so both blocks
enter the same way: every coefficient is u_j = V w_j + kappa_j, where
kappa_j = [G_j / Smat_jj, D2_j] R^T, D2 the g2 coefficients, is known
from the data.  One generalized symmetric eigendecomposition of
(Q^T A Q, Q^T M Q) gives sigma and V = Q W with V^T M V = I and
V^T A V = diag(sigma).  Tested with V, every slab, at any width k,
splits into one q x q block per mode l,

    (Dmat + k sigma_l diag(1/(2i+1))) w_l = rhs_l + e (V^T M u_prev)_l,

and the blocks of all slabs and modes are solved in one batched call.
Since V^T M V = I, the only sequential step is the scalar recurrence of
the modal terminal value, w_end_n = alpha_n + r_n w_end_{n-1}, with
r_n = 1^T K^{-1} e the DG stability function at k sigma.  The first r1
columns of R lie in ker B2 and invert B1; the multiplier is the momentum
residual tested with them, divided by Smat.  Since U - kappa is solved
on ker B, the solution does not depend on which right inverse of B
builds kappa.

solve_monolithic is the independent check.  It eliminates the explicit
block with its own SVD of B2 alone: with Z an orthonormal basis of ker B2
and L = pinv(B2), U = Z y + D2 L^T.  Slabs couple only through e M u_prev,
so the all-slabs system for y is block lower-triangular.  It is solved slab
by slab, on LU factors of the slab system above in kron form, taken once
per distinct width; the slab condition estimates read the same factors.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Optional

import numpy as np
from scipy.linalg import LinAlgWarning, eigh, lu_factor, lu_solve
from scipy.linalg.lapack import dgecon

from .projection import DataError, _moments, _sample, _slab_coeffs, _slab_nodes
from .systems import (_asymmetry, _explicit_reduction, _free_components, _full_row_rank,
                      _kernel_reduction)
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


_EPS = np.finfo(float).eps
_SINGULAR = "singular slab system (check constraint ranks / inf-sup)"


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
        if not (isinstance(self.q, (int, np.integer)) and 1 <= self.q <= _MAX_POINTS - 2):
            raise ValueError(f"q must be in 1..{_MAX_POINTS - 2}, got {self.q}")

    def quadrature(self) -> Quadrature:
        """The slab rule, max(q + 2, 4) Gauss points: exact beyond degree 2q - 1."""
        return gauss_legendre(max(self.q + 2, 4))


@dataclass(frozen=True, eq=False)
class MixedSolution:
    """Broken state U, broken multiplier P (None when r1 = 0), diagnostics.

    condition_estimates, (N,), is the LAPACK gecon estimate of the 1-norm
    condition of every slab's kron matrix, from the per-width LU factors
    solve_monolithic solves with; the march factors them on first access.
    """

    U: BrokenFunction
    P: Optional[BrokenFunction]
    _conditions: Callable[[], np.ndarray] = field(repr=False)

    @cached_property
    def condition_estimates(self) -> np.ndarray:
        return self._conditions()


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


@dataclass(frozen=True, eq=False)
class _SlabData:
    """The data side of the slab equations, for all N slabs at once.

    S holds the slab mass matrix diagonals, (N, q).  F are the load moments
    int phi_i f dt, (N, q, m); G the constraint-row data S times the g1
    coefficients, (N, q, r1); D2 the g2 coefficients, (N, q, r2).
    Constraint data is projected (endpoint-interpolating) or L2-projected
    as the options say.
    """

    S: np.ndarray
    F: np.ndarray
    G: np.ndarray
    D2: np.ndarray


def _slab_data(system, mesh: TimeMesh, opts: SolverOptions) -> _SlabData:
    """Sample f, g1 and g2 once over all slabs and reduce them to slab data."""
    q, quad = opts.q, opts.quadrature()
    bp, k, N = mesh.breakpoints, mesh.widths, mesh.N
    S = k[:, None] / (2.0 * np.arange(q) + 1.0)
    F = _moments(_sample(system.f, _slab_nodes(bp, quad), "f", system.m), k, quad, q)

    def coeffs(g, field, dim):
        if dim == 0:
            return np.zeros((N, q, 0))
        return _slab_coeffs(g, bp, quad, q, field, dim, opts.use_projection)

    G = S[:, :, None] * coeffs(system.g1, "g1", system.r1)
    return _SlabData(S, F, G, coeffs(system.g2, "g2", system.r2))


def _factor(K: np.ndarray, slab: int):
    """LU factors of K and the LAPACK gecon estimate of its 1-norm condition."""
    with warnings.catch_warnings():
        # singularity is detected below and raised as SlabSolveError
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = lu_factor(K, check_finite=False)
    d = np.abs(np.diag(lu))
    if d.size == 0 or d.min() <= d.max() * K.shape[0] * _EPS:
        raise SlabSolveError(slab, _SINGULAR)
    rcond, _ = dgecon(lu, np.abs(K).sum(axis=0).max(), norm="1")
    return (lu, piv), (1.0 / rcond if rcond > 0.0 else np.inf)


def _check_explicit_block(system):
    """Reject a B2 that fixes every state component."""
    if system.r2 and not _free_components(system)[1]:
        raise ValueError("B2 leaves no free state components")


def _kernel_basis(system) -> tuple:
    """(Z, L) of _explicit_reduction: ker B2 and pinv(B2), for a B2 the march accepts."""
    _check_explicit_block(system)
    explicit = _explicit_reduction(system)
    if explicit is None:
        raise SlabSolveError(1, _SINGULAR)
    return explicit


def _slab_matrix(q: int, width: float, Mz, Az, B1z) -> np.ndarray:
    """The kron slab system for the kernel coefficients and the multiplier."""
    Dmat, Smat, _ = assemble_temporal_matrices(q, width)
    top = np.kron(Dmat, Mz) + np.kron(Smat, Az)
    if B1z.shape[0] == 0:
        return top
    nc = q * B1z.shape[0]
    return np.block([
        [top, np.kron(Smat, B1z.T)],
        [np.kron(Smat, B1z), np.zeros((nc, nc))],
    ])


def _slab_factors(system, Z: np.ndarray, q: int, k: np.ndarray):
    """Yield _factor of every slab's kron matrix on ker B2 = span Z, in slab order.

    Each distinct width is factored once and its factors are held until its
    last slab; a singular matrix raises SlabSolveError with its first slab.
    """
    blocks = Z.T @ system.M @ Z, Z.T @ system.A @ Z, system.B1 @ Z
    last, held = {w: n for n, w in enumerate(k)}, {}
    for n, w in enumerate(k):
        if w not in held:
            held[w] = _factor(_slab_matrix(q, w, *blocks), n + 1)
        yield held[w] if last[w] > n else held.pop(w)


def _conditions(system, q: int, k: np.ndarray) -> np.ndarray:
    """gecon estimates at the slab widths k, one factorization per distinct width."""
    Z, _ = _kernel_basis(system)
    return np.array([cond for _, cond in _slab_factors(system, Z, q, k)])


def _modes(system):
    """(sigma, V, R): the spatial eigenbasis of the slab equations and pinv(B).

    The reduction validate_system checks, _kernel_reduction, gives Q, an
    orthonormal basis of ker B, B = [B1; B2], and R = pinv(B), (m, r1 + r2);
    R's first r1 columns lie in ker B2.  eigh(Q^T A Q, Q^T M Q) gives sigma,
    (mw,), and W with W^T Q^T M Q W = I; V = Q W, (m, mw), so V^T M V = I
    and V^T A V = diag(sigma).
    """
    _check_explicit_block(system)
    u, sv, vt, Q, Mw, Aw = _kernel_reduction(system)
    r = system.r1 + system.r2
    if not _full_row_rank(sv, r):
        raise SlabSolveError(1, _SINGULAR)
    for name, X in (("M", Mw), ("A", Aw)):
        asym, ok = _asymmetry(X)
        if not ok:
            raise ValueError(f"{name} is not symmetric (max asymmetry {asym:.2e})")
    try:
        sigma, W = eigh(Aw, Mw)
    except np.linalg.LinAlgError:
        raise SlabSolveError(1, "singular slab system: M is not positive definite "
                                "on the constraint kernel") from None
    return sigma, Q @ W, (vt[:r].T / sv) @ u.T


def _march(system, mesh: TimeMesh, opts: SolverOptions) -> MixedSolution:
    """Sequential solve in the spatial eigenbasis, one q x q block per slab and mode.

    Every coefficient is u_j = V w_j + kappa_j, kappa the known part: the
    constraint data on R = pinv(B).  Only the modal terminal value w_end
    runs through the slabs, by w_end_n = alpha_n + r_n w_end_{n-1}.
    """
    sigma, V, R = _modes(system)
    data = _slab_data(system, mesh, opts)
    M, A, R1 = system.M, system.A, R[:, :system.r1]
    Dmat, _, e = assemble_temporal_matrices(opts.q, 1.0)
    N, q, mw = mesh.N, opts.q, sigma.size
    S = data.S[:, :, None]
    with np.errstate(over="ignore", invalid="ignore"):
        kappa = np.concatenate([data.G / S, data.D2], axis=-1) @ R.T
        kM = kappa @ M.T
        # tested with the modes V and, for the multiplier, with R1
        VR = np.hstack([V, R1])
        rhs = (data.F - Dmat @ kM - S * (kappa @ A.T)) @ VR
        # the known part of every slab's u_prev term: u0, then kappa's terminal value
        prev = np.vstack([M @ system.u0, kM[:-1].sum(axis=1)]) @ VR
        K = Dmat + (data.S[:, None, :] * sigma[:, None])[..., None] * np.eye(q)
        Y = np.empty((N, mw, q, 2))
        Y[..., 0] = (rhs[:, :, :mw] + e[:, None] * prev[:, None, :mw]).transpose(0, 2, 1)
        Y[..., 1] = e
        try:
            X = np.linalg.solve(K, Y)
        except np.linalg.LinAlgError:
            smax, smin = np.linalg.svd(K, compute_uv=False)[..., [0, -1]].T
            bad = (smin <= smax * q * _EPS).any(axis=0)
            raise SlabSolveError(int(np.argmax(bad)) + 1, _SINGULAR) from None
        a, v = X[..., 0], X[..., 1]
        alpha, r = a.sum(axis=-1), v.sum(axis=-1)
        wprev = np.zeros((N, mw))  # modal terminal value of the previous slab
        for n in range(1, N):
            wprev[n] = alpha[n - 1] + r[n - 1] * wprev[n - 1]
        w = (a + v * wprev[:, :, None]).transpose(0, 2, 1)
        U = w @ V.T + kappa
        P = None
        if system.r1:
            # the momentum residual tested with R1 is S_ii p_i
            RMV, RAV = R1.T @ M @ V, R1.T @ A @ V
            P = (rhs[:, :, mw:] + e[:, None] * (prev[:, mw:] + wprev @ RMV.T)[:, None, :]
                 - Dmat @ (w @ RMV.T) - S * (w @ RAV.T)) / S
    bad = ~np.isfinite(U).all(axis=(1, 2))
    if P is not None:
        bad |= ~np.isfinite(P).all(axis=(1, 2))
    if bad.any():
        raise SlabSolveError(int(np.argmax(bad)) + 1, "non-finite solution coefficients")
    return MixedSolution(BrokenFunction(mesh, U), None if P is None else BrokenFunction(mesh, P),
                         partial(_conditions, system, q, mesh.widths))


def solve_constrained(system, mesh: TimeMesh, opts: SolverOptions) -> MixedSolution:
    """Sequential slab-by-slab solve of any constraint configuration.

    The system takes B1 only, B2 only, both, or neither.  The projected g2
    data is imposed exactly through R = pinv([B1; B2]), computed from the
    constraint blocks themselves, and the rest of the solution is marched
    on ker [B1; B2].  P carries the multiplier of B1, None when r1 = 0.
    """
    return _march(system, mesh, opts)


# the same solver under its older name
solve_mixed = solve_constrained


def solve_monolithic(system, mesh: TimeMesh, opts: SolverOptions) -> MixedSolution:
    """Solve the block lower-triangular all-slabs system slab by slab.

    The cross-check of the sequential solver: slab n solves rhs_n + E u_prev
    on the LU factors of its width, the factors the condition estimates read.
    """
    data = _slab_data(system, mesh, opts)
    M, A, B1 = system.M, system.A, system.B1
    q, m, N, r1 = opts.q, system.m, mesh.N, system.r1
    Z, L = _kernel_basis(system)
    mz = Z.shape[1]
    Dmat, _, e = assemble_temporal_matrices(q, 1.0)
    # u_j = Z y_j + C_j with C = D2 L^T the g2 coefficients on pinv(B2)
    C = data.D2 @ L.T
    S = data.S[:, :, None]
    F = (data.F - Dmat @ (C @ M.T) - S * (C @ A.T)) @ Z
    G = data.G - S * (C @ B1.T)
    rhs = np.concatenate([F.reshape(N, -1), G.reshape(N, -1)], axis=1)
    # E u_prev is the upwind term e (x) Z^T M u_prev of the previous terminal value
    E = np.zeros((rhs.shape[1], m))
    E[: q * mz] = np.kron(e[:, None], Z.T @ M)
    X, conds = np.empty_like(rhs), np.empty(N)
    u_prev = system.u0
    for n, (lu, cond) in enumerate(_slab_factors(system, Z, q, mesh.widths)):
        X[n] = lu_solve(lu, rhs[n] + E @ u_prev, check_finite=False)
        conds[n] = cond
        u_prev = X[n, : q * mz].reshape(q, mz).sum(axis=0) @ Z.T + C[n].sum(axis=0)
    U = BrokenFunction(mesh, X[:, : q * mz].reshape(N, q, mz) @ Z.T + C)
    P = BrokenFunction(mesh, X[:, q * mz:].reshape(N, q, r1)) if r1 else None
    return MixedSolution(U, P, lambda: conds)


def _check_on_mesh(mesh: TimeMesh, **funcs) -> None:
    """Reject a broken function that lives on other breakpoints than mesh."""
    for name, F in funcs.items():
        if F is not None and not np.array_equal(F.mesh.breakpoints, mesh.breakpoints):
            raise ValueError(f"{name} lives on another mesh than the one given")


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
    _check_on_mesh(mesh, U=U, P=P)
    r1 = system.r1
    if r1 and (P is None or P.dim != r1):
        raise ValueError("multiplier P of dimension r1 required")
    M, A, B1 = system.M, system.A, system.B1
    Z, _ = _kernel_basis(system)
    data = _slab_data(system, mesh, opts)
    Dmat, _, e = assemble_temporal_matrices(opts.q, 1.0)
    S = data.S[:, :, None]
    uc = U.coeffs
    u_prev = np.vstack([system.u0, uc[:-1].sum(axis=1)])
    R = Dmat @ (uc @ M.T) + S * (uc @ A.T) - data.F - e[:, None] * (u_prev @ M.T)[:, None, :]
    if r1:
        R = R + S * (P.coeffs @ B1)
    parts = [np.abs(R @ Z).max(axis=(1, 2))]
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
    _check_on_mesh(mesh, U=U)
    quad = opts.quadrature()
    out = np.zeros(mesh.N)
    for B, g, field in ((system.B1, system.g1, "g1"), (system.B2, system.g2, "g2")):
        if B.shape[0]:
            d = _slab_coeffs(g, mesh.breakpoints, quad, opts.q, field, B.shape[0], True)
            out = np.maximum(out, np.abs(U.coeffs @ B.T - d).max(axis=(1, 2)))
    return out
