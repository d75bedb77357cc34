"""Per-slab DG solvers for linearly constrained parabolic systems.

On the slab I_n = (t_{n-1}, t_n] of width k, expanding the unknown in the
shifted Legendre basis, U|_{I_n} = sum_j phi_j u_j, the DG-in-time weak
form reduces to the dense linear system

    sum_j (Dmat_ij M + Smat_ij A) u_j [+ sum_j Smat_ij B1^T p_j]
        = F_i + e_i M u_prev,
    sum_j Smat_ij B1 u_j = Smat_ii c_i,

where Dmat collects the weak time derivative plus the upwind jump term,
Smat = diag(k / (2j+1)) is the slab mass matrix, e_i = phi_i(t_{n-1}+)
= (-1)^i, F_i = int_{I_n} phi_i f dt, and u_prev is the terminal value of
the previous slab (the initial state for n = 1).  All data (load moments
and projected constraint data) is computed for every slab at once, from
one call per data field.

Constraint data enters through c_i, the slab coefficients of g1 (those of
g2 fix B2 u_i).  With the projection switch on, they are its
endpoint-interpolating slab projection, which makes the discrete
constraint B1 U = (projected g1) hold identically as a polynomial on every
slab; switched off, they are its L2 projection, Smat_ii c_i the raw
quadrature moments of g1 (the discrete constraint then only matches g1 in
the L2 sense, which costs nodal superconvergence and a full order of the
multiplier).

The marching solver never forms this dense system.  One SVD of the
stacked constraints B = [B1; B2], the reduction validate_system checks,
gives Q, an orthonormal basis of ker B, and R = pinv(B), so both blocks
enter the same way: every coefficient is u_j = V w_j + kappa_j, where
kappa_j = C_j R^T, C_j the j-th coefficients of [g1; g2], is known from
the data.  One generalized symmetric eigendecomposition of
(Q^T A Q, Q^T M Q) gives sigma and V = Q W with V^T M V = I and
V^T A V = diag(sigma).  The SVD and the eigenbasis depend only on M, A,
B1 and B2, so they are computed once per system, on its first use, and
kept on it (ConstrainedSystem._reduction), together with every product
the march forms from the system alone: VR = [V, R1] and, at rank
r = r1 + r2, the known part's products with M and A tested with it,
(M R)^T VR, (A R)^T VR and (M u0)^T VR, and, for the multiplier,
R1^T M V and R1^T A V.  The solves of a convergence study, dg_residual
and validate_system share them, and no solve after the first multiplies
by M or A.  Tested with V, every slab, at any width k, splits
into one q x q block per mode l,

    (Dmat + k sigma_l diag(1/(2i+1))) w_l = rhs_l + e (V^T M u_prev)_l.

The block depends only on z = k sigma_l; one closed-form O(q) sweep
(_sweep) solves the blocks of all slabs and modes at once, elementwise,
so nothing is factored or grouped by width.  Its pivots are at least 2
for z >= 0; modes with sigma < 0, which only an A indefinite on ker B has
(validate_system rejects it), go to np.linalg.solve.  Since V^T M V = I,
the only sequential step is the scalar recurrence of the modal terminal
value, w_end_n = alpha_n + r_n w_end_{n-1}, with r_n = 1^T K^{-1} e the DG
stability function at k sigma; it runs in blocks of about sqrt(N) slabs,
sliced from the slabs, so about 2 sqrt(N) Python steps besides a few per
mesh.  The first r1 columns of R lie in ker B2 and invert B1; the
multiplier is the momentum residual tested with them, divided by Smat.
Since U - kappa is solved on ker B, the solution does not depend on which
right inverse of B builds kappa.

A convergence study is one such march over all of its meshes: their slabs
are stacked mesh after mesh, the data is sampled once per field for all of
them, one sweep solves every level's blocks, and the recurrence
restarts from u0 at each mesh's first slab.  Each mesh keeps its own
sqrt(N) blocks, so its recurrence is the one a march on it alone runs;
the meshes share its Python steps, bmax + max nb in all, bmax the longest
block of any mesh and max nb the most blocks of one.
A study with the projection both on and off (dgtime study --projection
both) is still one march: the second variant's slabs are stacked as
further meshes, one call of projection._slab_coeffs each samples g1 and
g2 once at the nodes and right ends and reduces them to both the
projected and the L2 coefficients, and f is sampled once for both; only
C differs between the variants, so each variant's rows equal those of
its own study.  The march returns stacked arrays; only solve_constrained
builds a MixedSolution.

solve_monolithic is the independent check, the paper's implicit treatment
of both blocks: B2, like B1, gets a multiplier, so it needs no reduction.
Slab n solves the kron form of the system above with B = [B1; B2] in place
of B1 and Smat C on its constraint rows.  Slabs couple only through u_prev,
so the all-slabs system is block lower-triangular.  Its right-hand side is
rhs_n + E u_prev, affine in u_prev, so one inverse K^{-1} per distinct
width gives, by two products, K^{-1} rhs_n for all its slabs and K^{-1} E,
and each slab is then X_n = K^{-1} rhs_n + (K^{-1} E) u_prev.  The same
inverse makes the slab condition numbers exact.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import accumulate
from typing import Callable, Optional

import numpy as np

from .projection import DataError, _moments, _sample, _slab_coeffs, _slab_nodes
from .timecore import (_MAX_POINTS, BrokenFunction, Quadrature, TimeMesh, _end_values, _gemm,
                       _is_count, _slab_apply, _Slabs, assemble_temporal_matrices, gauss_legendre)

__all__ = [
    "SolverOptions",
    "MixedSolution",
    "SlabSolveError",
    "DataError",
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


def _check_switch(use_projection) -> None:
    """The projection switch is a Python or numpy bool; "off", 0 or None is rejected."""
    if not isinstance(use_projection, (bool, np.bool_)):
        raise ValueError(f"use_projection must be a bool, got {use_projection!r}")


@dataclass(frozen=True)
class SolverOptions:
    """q temporal dofs per slab (degree q-1) and the projection switch."""

    q: int = 2
    use_projection: bool = True

    def __post_init__(self):
        if not (_is_count(self.q) and 1 <= self.q <= _MAX_POINTS - 2):
            raise ValueError(f"q must be in 1..{_MAX_POINTS - 2}, got {self.q!r}")
        _check_switch(self.use_projection)

    def quadrature(self) -> Quadrature:
        """The slab rule, max(q + 2, 4) Gauss points: exact beyond degree 2q - 1."""
        return gauss_legendre(max(self.q + 2, 4))


@dataclass(frozen=True, eq=False)
class MixedSolution:
    """Broken state U, broken multiplier P (None when r1 = 0), diagnostics.

    condition_estimates, (N,), is the 1-norm condition ||K||_1 ||K^{-1}||_1
    of every slab's saddle matrix K, exact, from the one inverse per width
    that solve_monolithic forms; the march forms those inverses on first
    access.

    The U of a solve_constrained result carries the data its march sampled,
    for as long as U lives: dg_residual and constraint_residual of that U,
    with the same system object and equal options, read it and sample no
    data again (constraint_residual only after a solve with the projection
    on).  A copy of U, a U built from its coefficients or unpickled, and
    solve_monolithic's U carry none, so their checks sample afresh.
    """

    U: BrokenFunction
    P: Optional[BrokenFunction]
    _conditions: Callable[[], np.ndarray] = field(repr=False)

    @cached_property
    def condition_estimates(self) -> np.ndarray:
        return self._conditions()


@dataclass(frozen=True, eq=False)
class _SlabData:
    """The data side of the slab equations, for all slabs at once.

    S holds the slab mass matrix diagonals, (N, q).  F are the load moments
    int phi_i f dt, (N, q, m); C the constraint data (_constraint_data),
    (N, q, r1 + r2).
    """

    S: np.ndarray
    F: np.ndarray
    C: np.ndarray


def _constraint_data(system, slabs: _Slabs, variants) -> np.ndarray:
    """Slab coefficients of [g1; g2], (V S, q, r1 + r2), projected or L2-projected.

    variants are V SolverOptions of one q; the coefficients of each follow
    its projection switch and are stacked like slabs.repeat(V).  One call of
    projection._slab_coeffs per field samples g1, resp. g2, once for all
    variants and fills its column block of every variant's C.
    """
    q, quad, r1, r = variants[0].q, variants[0].quadrature(), system.r1, system.r1 + system.r2
    switches = [v.use_projection for v in variants]
    C = np.zeros((len(variants), slabs.right.size, q, r))
    for g, field, block in ((system.g1, "g1", C[..., :r1]), (system.g2, "g2", C[..., r1:])):
        if block.shape[-1]:
            block[...] = _slab_coeffs(g, slabs, quad, q, field, block.shape[-1], switches)
    return C.reshape(C.shape[0] * C.shape[1], q, r)


def _slab_data(system, slabs: _Slabs, variants) -> _SlabData:
    """Sample f, g1 and g2 once over slabs and reduce them to the slab data of every variant.

    variants are SolverOptions of one q.  The data is stacked like
    slabs.repeat(len(variants)): S and F, the moments of f, repeat; C, from
    _constraint_data, follows each variant's projection switch.
    """
    q, quad, k = variants[0].q, variants[0].quadrature(), slabs.widths
    F = _moments(_sample(system.f, _slab_nodes(slabs, quad), "f", system.m, slabs.number),
                 k, quad, q)
    S, copies = k[:, None] / (2.0 * np.arange(q) + 1.0), len(variants)
    if copies > 1:
        S, F = np.tile(S, (copies, 1)), np.tile(F, (copies, 1, 1))
    return _SlabData(S, F, _constraint_data(system, slabs, variants))


def _slab_matrix(q: int, width: float, M, A, B) -> np.ndarray:
    """The kron slab system for the state coefficients and the multipliers of B."""
    Dmat, Smat, _ = assemble_temporal_matrices(q, width)
    nc = q * B.shape[0]
    return np.block([
        [np.kron(Dmat, M) + np.kron(Smat, A), np.kron(Smat, B.T)],
        [np.kron(Smat, B), np.zeros((nc, nc))],
    ])


def _singular(cond, n: int):
    """Whether order n and condition cond make a matrix singular: cond * n eps not below 1, or NaN.

    The one rule for every slab matrix and every sigma < 0 modal block.
    """
    return ~(cond * (n * _EPS) < 1.0)


def _width_inverses(system, q: int, k: np.ndarray):
    """Yield (slabs, K^{-1}, cond) for every distinct width of k, in the order of its first slab.

    slabs are the indices of its slabs and K their full-space saddle matrix
    (_slab_matrix), so cond = ||K||_1 ||K^{-1}||_1 is exact.  A K with an
    exact zero pivot, or _singular, raises SlabSolveError with its first
    slab.
    """
    B = np.vstack([system.B1, system.B2])
    widths, first, cls, counts = np.unique(k, return_index=True, return_inverse=True,
                                           return_counts=True)
    members = np.split(np.argsort(cls, kind="stable"), np.cumsum(counts)[:-1])
    for c in np.argsort(first).tolist():
        K = _slab_matrix(q, widths[c], system.M, system.A, B)
        try:
            Kinv = np.linalg.inv(K)
            cond = np.abs(K).sum(axis=0).max() * np.abs(Kinv).sum(axis=0).max()
        except np.linalg.LinAlgError:  # an exact zero pivot
            cond = np.inf
        if _singular(cond, K.shape[0]):
            raise SlabSolveError(int(first[c]) + 1, _SINGULAR) from None
        yield members[c], Kinv, cond


def _conditions(system, q: int, k: np.ndarray) -> np.ndarray:
    """The 1-norm conditions at the slab widths k, one inverse per distinct width."""
    conds = np.empty(k.size)
    for slabs, _, cond in _width_inverses(system, q, k):
        conds[slabs] = cond
    return conds


def _modes(system, march: bool = True):
    """The system's kept reduction (ConstrainedSystem._reduction), after the march's rules.

    [B1; B2] must have full row rank (SlabSolveError on slab 1), so that
    R = pinv([B1; B2]) exists; dg_residual, with march False, needs no
    more.  A trivial constraint kernel, as when B2 fixes every component,
    is no error.  The march also needs M and A symmetric on the constraint
    kernel (ValueError) and M positive definite there (SlabSolveError on
    slab 1), so that the eigenbasis V and the products it forms from the
    system alone exist.  Nothing is kept here: a system that fails a rule
    raises on every call.
    """
    red = system._reduction
    if red.R is None:
        raise SlabSolveError(1, _SINGULAR)
    if march:
        for name, (asym, ok) in zip("MA", red.asymmetry):
            if not ok:
                raise ValueError(f"{name} is not symmetric (max asymmetry {asym:.2e})")
        if red.sigma is None:
            raise SlabSolveError(1, "singular slab system: M is not positive definite "
                                    "on the constraint kernel")
    return red


def _sweep(z: np.ndarray, b: np.ndarray):
    """Backward pass of the O(q) solve of K(z) x = b, K(z) = Dmat + z diag(s), s_i = 1/(2i + 1).

    b is (q, *z.shape).  Row r-1 minus row r+1 (r < q-1), and row q-2 plus
    row q-1, of K x = b are tridiagonal: z s_{r-1} x_{r-1} + 2 x_r
    - z s_{r+1} x_{r+1} = b'_r, with + z s_{q-1} x_{q-1} in the last.  Row
    0 is sum_j x_j + z x_0 = b_0.  Eliminating upward gives
    x_r = alpha_r - beta_r x_{r-1}; the pivots, d_r = 2 + z s_{r+1}
    beta_{r+1} and d_{q-1} = 2 + z s_{q-1}, are at least 2 for z >= 0.
    Row 0 becomes (g + z) x_0 = b_0 - T, T = sum_r h_r alpha_r, and
    sum_j x_j = T + g x_0.  The row operations map e to (1, 0, ..., 0), so
    K^{-1} e starts with inv0 = 1 / (g + z), and the DG stability function
    1^T K^{-1} e is r = g inv0, the (q-1, q) Padé approximant of exp(-z).

    Returns (alpha, beta, T, inv0, r); alpha and beta are indexed 1..q-1.
    """
    q = b.shape[0]
    alpha, beta, T, h = [None] * q, [None] * q, 0.0, 1.0
    for i in range(q - 1, 0, -1):
        if i == q - 1:
            d = z / (2.0 * i + 1.0)
            a = b[i - 1] + b[i]
        else:
            zs = z / (2.0 * i + 3.0)  # z s_{i+1}
            d = zs * beta[i + 1]
            h = 1.0 - beta[i + 1] * h
            a = b[i - 1] - b[i + 1]
            zs *= alpha[i + 1]
            a += zs
        d += 2.0
        a /= d
        beta[i] = (z / (2.0 * i - 1.0) if i > 1 else z) / d
        alpha[i] = a
        T = a if i == q - 1 else T + h * a
    g = 1.0 - beta[1] * h if q > 1 else 1.0
    inv0 = 1.0 / (g + z)
    return alpha, beta, T, inv0, g * inv0


def _terminal_values(alpha: np.ndarray, r: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """w with w[n] = alpha[n-1] + r[n-1] w[n-1], (S, mw), restarting from w = 0 at each start.

    starts holds the first slab of every mesh and S; the recurrence of each
    mesh runs in blocks of b = ceil(sqrt(N)) slabs, N its slab count: one
    loop down every block of every mesh at once from a zero start gives loc
    and the running product P of r, then one loop carries each block's end
    into the next block of its mesh, and a slab's value is loc + P carry.
    loc and P are (bmax, sum nb, mw), block j of a mesh its column
    col0 + j: a mesh's full blocks are a reshape of its slabs, copied in
    by one slice, and its partial last block a second slice; one statement
    per mesh reads its values back in whole blocks, shifted by one slab.
    The carry copies every mesh's block ends by one slice into a
    (max nb, meshes, mw) array, padded past a mesh's last block with loc 0
    and P 1, and steps it once per block index for all meshes at once.
    That makes bmax + max nb array steps, bmax = max b and nb a mesh's
    block count, about 2 sqrt(max N), besides a few slice copies per mesh.
    A doubling scan would take log N, but its error grows several times
    faster in N.  A block shorter than the longest is padded with
    alpha = 0, r = 1, which carries its end unchanged, so every mesh gets
    the arithmetic it would get on its own.
    """
    mw, bounds = alpha.shape[1], starts.tolist()
    counts = [e - s for s, e in zip(bounds, bounds[1:])]
    bs = [math.isqrt(N - 1) + 1 for N in counts]
    nb = [-(-N // b) for N, b in zip(counts, bs)]
    # (first slab, slab count, block length, block count, first block column)
    meshes = list(zip(bounds, counts, bs, nb, accumulate(nb, initial=0)))
    shape = (max(bs), sum(nb), mw)
    loc, P = np.zeros(shape), np.ones(shape)
    for s, N, b, n, c in meshes:
        full = N // b
        for x, blocks in ((alpha, loc), (r, P)):
            blocks[:b, c:c + full] = x[s:s + full * b].reshape(full, b, mw).transpose(1, 0, 2)
            if N > full * b:
                blocks[:N - full * b, c + full] = x[s + full * b:s + N]
    for j in range(1, shape[0]):
        loc[j] += P[j] * loc[j - 1]
        P[j] *= P[j - 1]
    ends = np.zeros((2, max(nb), len(nb), mw))  # loc 0, P 1 past a mesh's last block
    ends[1] = 1.0
    for i, (*_, n, c) in enumerate(meshes):
        ends[:, :n, i] = loc[-1, c:c + n], P[-1, c:c + n]
    carried = np.zeros(ends.shape[1:])  # each mesh's first block starts from zero
    for k in range(1, carried.shape[0]):
        carried[k] = ends[0, k - 1] + ends[1, k - 1] * carried[k - 1]
    P *= np.concatenate([carried[:n, i] for i, n in enumerate(nb)])
    loc += P
    # slab i's value is w of slab i + 1; each mesh writes whole blocks, and
    # the rows they fill past its last slab, like every mesh's first row,
    # are overwritten by the meshes after it, zeroed or dropped
    w = np.empty((alpha.shape[0] + shape[0], mw))
    for s, _, b, n, c in meshes:
        w[s + 1:s + 1 + n * b].reshape(n, b, mw)[...] = loc[:b, c:c + n].transpose(1, 0, 2)
    w[bounds[:-1]] = 0.0
    return w[:alpha.shape[0]]


def _modal_solve(sigma: np.ndarray, b: np.ndarray, prev: np.ndarray, slabs: _Slabs):
    """(w, wprev) with K(k_n sigma_l) w_nl = b_nl + e (prev_nl + wprev_nl), every slab n, mode l.

    b is (S, q, mw) and prev (S, mw), stacked over the slabs of every mesh;
    wprev is the modal terminal value of the slab before, 0 on each mesh's
    first slab.  The backward pass (_sweep) gives each slab's known
    terminal value T + r (b_0 + prev - T), the recurrence
    (_terminal_values) gives wprev, and one forward pass from
    x_0 = inv0 (b_0 + prev - T + wprev) gives w.  A mode with sigma < 0 (A
    indefinite on ker B) has z < 0, where a sweep pivot can vanish at a
    regular block (q = 2, z = -6): np.linalg.solve solves such modes
    instead, after naming the first slab with a singular block.
    """
    q = b.shape[1]
    z = slabs.widths[:, None] * sigma
    X = b.transpose(1, 0, 2).copy()  # (q, S, mw): every row slice contiguous
    alpha, beta, T, inv0, r = _sweep(z, X)
    u = X[0] + prev
    u -= T
    ends = r * u
    ends += T
    neg = np.flatnonzero(sigma < 0.0)
    if neg.size:
        Dmat, _, e = assemble_temporal_matrices(q, 1.0)
        K = Dmat + np.eye(q) * (z[:, neg, None, None] / (2.0 * np.arange(q) + 1.0))
        # cond returns inf, and does not raise, for an exactly singular block
        singular = _singular(np.linalg.cond(K, 1), q).any(axis=1)
        if singular.any():
            raise SlabSolveError(int(slabs.number[np.argmax(singular)]), _SINGULAR)
        Y = np.stack(np.broadcast_arrays(b[:, :, neg] + e[:, None] * prev[:, None, neg],
                                         e[:, None]), axis=-1)
        Xn = np.linalg.solve(K, Y.transpose(0, 2, 1, 3))  # (S, neg, q, [known, e])
        ends[:, neg], r[:, neg] = np.moveaxis(Xn.sum(axis=2), -1, 0)
    wprev = _terminal_values(ends, r, slabs.starts)
    u += wprev
    np.multiply(inv0, u, out=X[0])
    for i in range(1, q):
        np.multiply(beta[i], X[i - 1], out=X[i])
        np.subtract(alpha[i], X[i], out=X[i])
    w = X.transpose(1, 0, 2).copy()
    if neg.size:
        w[:, :, neg] = (Xn[..., 0] + Xn[..., 1] * wprev[:, neg, None]).transpose(0, 2, 1)
    return w, wprev


def _march(system, slabs: _Slabs, variants):
    """(U, P, data): the coefficients of one sequential solve per variant on every mesh of slabs.

    variants are SolverOptions of one q.  U is (V S, q, m) and P
    (V S, q, r1), None when r1 = 0, both stacked like slabs.repeat(V): one
    copy of the slabs per variant, in the order of variants; data is the
    _SlabData they were solved with, stacked the same way.  All of them
    are solved as one: one data stage (_slab_data) and one modal solve
    (_modal_solve), whose recurrence is cut at each mesh's first slab,
    which starts from u0.  The spatial eigenbasis and its products with M
    and A are the system's kept reduction, checked by _modes, so only the
    first use of a system pays its O(m^3) reduction, and no later solve
    multiplies by M or A.  Every coefficient is u_j = V w_j + kappa_j,
    kappa = C R^T the known part: the constraint data on R = pinv(B).  Its
    products with M and A enter only as tested with VR = [V, R1], which the
    reduction keeps at rank r = r1 + r2: the right-hand side is
    F VR - Dmat (C RMVR) - S (C RAVR), and the upwind term's known part is
    u0MVR on a mesh's first slab and the end value of C RMVR on the slab
    before.  So the only m-wide products, F VR, w V^T and kappa, are one
    2-D GEMM each over all slabs.  Every slab's modal blocks are solved by
    the closed-form sweep (_sweep), elementwise over all slabs and modes,
    whatever their widths.  Only the modal terminal value w_end runs
    through the slabs, by w_end_n = alpha_n + r_n w_end_{n-1}, in sqrt(N)
    blocks of each mesh (_terminal_values).  An error names the 1-based
    slab within its own mesh; it is raised at the first stage that fails
    on any mesh, for the first such mesh.

    P, the momentum residual tested with R1 divided by Smat, carries the
    data's rounding times about (2q - 1)/k: p depends on g1', so its
    rounding floor, about (2q - 1) eps max|g1| / k, grows as k shrinks.
    Sampled index-2 data causes it, not the march.
    """
    modes = _modes(system)
    sigma, V, VR = modes.sigma, modes.V, modes.VR
    data = _slab_data(system, slabs, variants)
    slabs = slabs.repeat(len(variants))
    q, mw, firsts = variants[0].q, sigma.size, slabs.starts[:-1]
    Dmat, _, e = assemble_temporal_matrices(q, 1.0)
    S = data.S[:, :, None]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # kappa M^T and kappa A^T tested with the modes V and, for the
        # multiplier, with R1, formed at rank r from C
        kM, kA = _gemm(data.C, modes.RMVR), _gemm(data.C, modes.RAVR)
        rhs = _gemm(data.F, VR)
        rhs -= _slab_apply(Dmat, kM)
        rhs -= S * kA
        # the known part of every slab's u_prev term, tested likewise: u0 on
        # a mesh's first slab, else kappa's terminal value on the slab before
        prev = np.empty((slabs.right.size, VR.shape[1]))
        prev[1:] = _end_values(kM[:-1])
        prev[firsts] = modes.u0MVR
        w, wprev = _modal_solve(sigma, rhs[:, :, :mw], prev[:, :mw], slabs)
        U = _gemm(w, V.T)
        U += _gemm(data.C, modes.R.T)
        P = None
        if system.r1:
            # the momentum residual tested with R1 is S_ii p_i
            RMV, RAV = modes.RMV, modes.RAV
            P = (rhs[:, :, mw:] + e[:, None] * (prev[:, mw:] + wprev @ RMV.T)[:, None, :]
                 - _slab_apply(Dmat, _gemm(w, RMV.T)) - S * _gemm(w, RAV.T)) / S
    if not (np.isfinite(U).all() and (P is None or np.isfinite(P).all())):
        # the per-slab mask only to name the first bad slab
        bad = ~np.isfinite(U).all(axis=(1, 2))
        if P is not None:
            bad |= ~np.isfinite(P).all(axis=(1, 2))
        raise SlabSolveError(int(slabs.number[np.argmax(bad)]), "non-finite solution coefficients")
    return U, P, data


# every U solve_constrained returned, while it lives, to (weakref to its
# system, its options, the _SlabData its march sampled)
_SOLVED = weakref.WeakKeyDictionary()


def _solved_data(system, opts: SolverOptions, U: BrokenFunction) -> Optional[_SlabData]:
    """The data U's solve sampled, if U is a solve_constrained result of this system and opts."""
    solved = _SOLVED.get(U)
    if solved is not None and solved[0]() is system and solved[1] == opts:
        return solved[2]
    return None


def solve_constrained(system, mesh: TimeMesh, opts: SolverOptions) -> MixedSolution:
    """Sequential slab-by-slab solve of any constraint configuration.

    The system takes B1 only, B2 only, both, or neither.  The projected g2
    data is imposed exactly through R = pinv([B1; B2]), computed from the
    constraint blocks themselves, and the rest of the solution is marched
    on ker [B1; B2].  P carries the multiplier of B1, None when r1 = 0.
    U carries the data the march sampled (MixedSolution).
    """
    U, P, data = _march(system, _Slabs.of([mesh]), [opts])
    sol = MixedSolution(BrokenFunction(mesh, U), None if P is None else BrokenFunction(mesh, P),
                        partial(_conditions, system, opts.q, mesh.widths))
    _SOLVED[sol.U] = (weakref.ref(system), opts, data)
    return sol


# the same solver under its older name
solve_mixed = solve_constrained


def solve_monolithic(system, mesh: TimeMesh, opts: SolverOptions) -> MixedSolution:
    """Solve the block lower-triangular all-slabs system slab by slab.

    The cross-check of the sequential solver, in the implicit treatment of
    both blocks: slab n solves rhs_n + E u_prev for U and the multipliers
    of [B1; B2] as X_n = Y_n + Z u_prev, Y_n = K^{-1} rhs_n and
    Z = K^{-1} E, from the one inverse of its width (_width_inverses) that
    also gives the condition numbers.  P is the multiplier of B1; that of
    B2 is dropped.
    """
    data = _slab_data(system, _Slabs.of([mesh]), [opts])
    q, m, N, r1 = opts.q, system.m, mesh.N, system.r1
    _, _, e = assemble_temporal_matrices(q, 1.0)
    # the constraint rows are Smat times the coefficients of [g1; g2]
    rhs = np.concatenate([data.F.reshape(N, -1), (data.S[:, :, None] * data.C).reshape(N, -1)],
                         axis=1)
    # E u_prev is the upwind term e (x) M u_prev of the previous terminal value
    E = np.zeros((rhs.shape[1], m))
    E[: q * m] = np.kron(e[:, None], system.M)
    X, conds, held = np.empty_like(rhs), np.empty(N), {}
    widths = _width_inverses(system, q, mesh.widths)
    u_prev = system.u0
    for n in range(N):
        while n not in held:  # the next width's first slab is n
            slabs, Kinv, cond = next(widths)
            Z = Kinv @ E
            held.update(zip(slabs.tolist(), ((y, Z) for y in rhs[slabs] @ Kinv.T)))
            conds[slabs] = cond
        y, Z = held.pop(n)
        X[n] = y + Z @ u_prev
        u_prev = X[n, : q * m].reshape(q, m).sum(axis=0)
    U = BrokenFunction(mesh, X[:, : q * m].reshape(N, q, m))
    P = BrokenFunction(mesh, X[:, q * m:].reshape(N, q, -1)[..., :r1]) if r1 else None
    return MixedSolution(U, P, lambda: conds)


def _check_solution(system, mesh: TimeMesh, opts: SolverOptions, U: BrokenFunction,
                    P: Optional[BrokenFunction] = None) -> None:
    """Reject a U (or P) of another shape than system and opts give, or on another mesh."""
    if U.dim != system.m or U.degree != opts.q - 1 or (P is not None and P.degree != U.degree):
        raise ValueError("solution shape does not match system/options")
    for name, F in (("U", U), ("P", P)):
        if F is not None and not np.array_equal(F.mesh.breakpoints, mesh.breakpoints):
            raise ValueError(f"{name} lives on another mesh than the one given")


def dg_residual(system, mesh: TimeMesh, opts: SolverOptions, U: BrokenFunction,
                P: Optional[BrokenFunction] = None) -> np.ndarray:
    """Max absolute residual of the discrete equations, per slab.

    Tests the momentum equation against every temporal basis function (on
    ker B2 when an explicit block is present) and the constraint equations
    in their modal coefficients, the B1 rows times Smat, using the same
    data treatment as the solvers.  I - R2 B2, R2 = pinv([B1; B2])[:, r1:],
    projects onto ker B2.  P is required when r1 > 0 and refused when
    r1 = 0.

    A U that solve_constrained returned carries the data its solve sampled
    (MixedSolution): checked with the same system object and equal opts,
    no data is sampled again; any other U (a copy, a perturbed U,
    solve_monolithic's) samples f, g1 and g2 afresh.  The upwind term reuses
    U M^T, which the momentum equation needs anyway: u_prev M^T is u0 M^T on
    the first slab and the terminal value of U M^T on the slab before.
    """
    _check_solution(system, mesh, opts, U, P)
    r1 = system.r1
    if r1 and (P is None or P.dim != r1):
        raise ValueError("multiplier P of dimension r1 required")
    if not r1 and P is not None:
        raise ValueError("multiplier P given, but the system has no B1 (r1 = 0)")
    M, A, B1, B2 = system.M, system.A, system.B1, system.B2
    R2 = _modes(system, march=False).R[:, r1:]
    data = _solved_data(system, opts, U)
    if data is None:
        data = _slab_data(system, _Slabs.of([mesh]), [opts])
    Dmat, _, e = assemble_temporal_matrices(opts.q, 1.0)
    S = data.S[:, :, None]
    uc = U.coeffs
    uM = _gemm(uc, M.T)
    upwind = np.vstack([system.u0 @ M.T, _end_values(uM[:-1])])  # u_prev M^T
    Rm = _slab_apply(Dmat, uM) + S * _gemm(uc, A.T) - data.F - e[:, None] * upwind[:, None, :]
    if r1:
        Rm = Rm + S * _gemm(P.coeffs, B1)
    gap = uc @ np.vstack([B1, B2]).T - data.C
    gap[..., :r1] *= S
    return np.maximum(np.abs(Rm - _gemm(_gemm(Rm, R2), B2)).max(axis=(1, 2)),
                      np.abs(gap).max(axis=(1, 2), initial=0.0))


def constraint_residual(system, mesh: TimeMesh, opts: SolverOptions,
                        U: BrokenFunction) -> np.ndarray:
    """Per-slab max modal coefficient of B U minus the projected data.

    This is the quantity that vanishes identically (up to rounding) when
    the projection switch is on: the discrete constraint holds as a
    polynomial identity on every slab, not just in quadrature.  Zero on
    every slab of a system without constraints.

    The comparison is always with the projected data, whatever
    opts.use_projection says.  A U that solve_constrained returned with the
    projection on carries that data (MixedSolution): checked with the same
    system object and equal opts, g1 and g2 are not sampled again.  After a
    solve with the projection off, and for any other U, they are.
    """
    _check_solution(system, mesh, opts, U)
    data = _solved_data(system, opts, U) if opts.use_projection else None
    C = (data.C if data is not None
         else _constraint_data(system, _Slabs.of([mesh]), [SolverOptions(opts.q)]))
    return np.abs(U.coeffs @ np.vstack([system.B1, system.B2]).T - C).max(axis=(1, 2), initial=0.0)
