"""Time slabs, Gauss quadrature, and broken piecewise-polynomial functions.

The interval (0, T] is partitioned into slabs I_n = (t_{n-1}, t_n],
n = 1..N.  A "broken" function is a polynomial of degree q-1 on every slab
and may jump at the breakpoints; slabs are right-closed, so evaluation at a
breakpoint returns the value of the left slab unless the right limit is
requested explicitly.

Each slab carries the shifted Legendre basis

    phi_j(t) = P_j(2 (t - t_{n-1}) / k_n - 1),   j = 0, ..., q-1,

with P_j the Legendre polynomial on [-1, 1].  The basis is orthogonal on
the slab,

    int_{I_n} phi_i phi_j dt = delta_ij * k_n / (2 j + 1),

and satisfies phi_j(t_n) = 1 and phi_j(t_{n-1}+) = (-1)^j, which makes
terminal values, upwind jumps, and the weak time-derivative forms cheap.

``dh_form`` / ``dh_star_form`` are the DG time-derivative bilinear forms

    D (Y, X) = sum_n int_{I_n} (Y', X)_M + sum_{n=1}^{N-1} ([Y]^n, X^n_+)_M
               + (Y^0_+, X^0_+)_M,
    D*(Y, X) = sum_n int_{I_n} (Y, X')_M + sum_{n=1}^{N-1} (Y^n, [X]^n)_M
               - (Y^N, X^N)_M,

where [U]^n = U^n_+ - U^n is the jump at t_n and (.,.)_M the M-weighted
inner product.  For all broken Y, X: D(Y, X) = -D*(Y, X), and
D(Y, Y) >= 0.5 * ||Y^N||_M^2.

Both are computed from the slab coefficients y_n, x_n, (q, d), with no
quadrature.  With G_n = x_n M^T, Dmat and e from
assemble_temporal_matrices, 1 the vector of ones and <.,.> the sum of
entrywise products,

    D (Y, X) = sum_n <y_n, Dmat^T G_n> - sum_{n>=2} <Y_{n-1}(t_{n-1}), G_n(t_{n-1}+)>,
    D*(Y, X) = sum_n <y_n, (Dmat - e e^T - 1 1^T) G_n>
               + sum_{n>=2} <Y_{n-1}(t_{n-1}), G_n(t_{n-1}+)>,

where G_n(t_{n-1}+) = e^T G_n and Y_{n-1}(t_{n-1}) = 1^T y_{n-1}: Dmat's
e e^T part is the (Y_+, X_+)_M share of the upwind jump at each slab start,
and 1 1^T the (Y^n, X^n)_M share of D*'s jump at each slab end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial import legendre as npleg

__all__ = [
    "TimeMesh",
    "Quadrature",
    "SlabPoly",
    "BrokenFunction",
    "build_uniform_mesh",
    "gauss_legendre",
    "assemble_temporal_matrices",
    "dh_form",
    "dh_star_form",
]


def _is_count(value) -> bool:
    """Whether value is a Python or numpy integer; a bool (an int subclass) is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _readonly(a) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class TimeMesh:
    """Partition 0 = t_0 < t_1 < ... < t_N = T into slabs I_n = (t_{n-1}, t_n]."""

    breakpoints: np.ndarray

    def __post_init__(self):
        bp = _readonly(self.breakpoints)
        if bp.ndim != 1 or bp.size < 2:
            raise ValueError("mesh needs at least two breakpoints")
        if not np.isfinite(bp).all():
            raise ValueError("breakpoints must be finite")
        if bp[0] != 0.0:
            raise ValueError("time mesh must start at t = 0")
        if not np.all(np.diff(bp) > 0.0):
            raise ValueError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", bp)

    @property
    def N(self) -> int:
        return self.breakpoints.size - 1

    @property
    def T(self) -> float:
        return float(self.breakpoints[-1])

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.breakpoints)

    def slab_index(self, t: float, side: str = "left") -> int:
        """0-based index of the slab providing the one-sided limit at t.

        ``side="left"`` returns the slab with t as its (half-open) right
        part, i.e. the limit from below; ``side="right"`` the limit from
        above.  At interior breakpoints the two differ.
        """
        bp = self.breakpoints
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        if not bp[0] <= t <= bp[-1]:
            raise ValueError(f"t = {t} outside [0, {self.T}]")
        if side == "left":
            if t <= bp[0]:
                raise ValueError("left limit undefined at t = 0")
            return int(np.searchsorted(bp, t, side="left")) - 1
        if t >= bp[-1]:
            raise ValueError("right limit undefined at t = T")
        return int(np.searchsorted(bp, t, side="right")) - 1


def build_uniform_mesh(T: float, N: int) -> TimeMesh:
    """Uniform mesh of N slabs on (0, T]."""
    if not ((_is_count(T) or isinstance(T, (float, np.floating))) and 0.0 < T < np.inf):
        raise ValueError(f"final time T must be finite and positive, got {T!r}")
    if not _is_count(N) or N < 1:
        raise ValueError(f"slab count N must be an integer >= 1, got {N!r}")
    return TimeMesh(np.linspace(0.0, float(T), int(N) + 1))


@dataclass(frozen=True, eq=False)
class _Slabs:
    """The slabs (left, right] of one or more meshes, stacked mesh after mesh.

    left and right are (S,) endpoint arrays over all S slabs; mesh i owns
    slabs starts[i]:starts[i + 1].  number is every slab's 1-based index
    within its own mesh, the index an error message names.
    """

    left: np.ndarray
    right: np.ndarray
    starts: np.ndarray

    @classmethod
    def of(cls, meshes) -> "_Slabs":
        bps = [mesh.breakpoints for mesh in meshes]
        return cls(np.concatenate([bp[:-1] for bp in bps]), np.concatenate([bp[1:] for bp in bps]),
                   np.cumsum([0] + [bp.size - 1 for bp in bps]))

    @cached_property
    def widths(self) -> np.ndarray:
        return self.right - self.left

    @cached_property
    def number(self) -> np.ndarray:
        return np.arange(1, self.right.size + 1) - np.repeat(self.starts[:-1],
                                                             np.diff(self.starts))

    def split(self, x: np.ndarray) -> list:
        """x, stacked over the slabs along its first axis, as one view per mesh."""
        return [x[a:b] for a, b in zip(self.starts[:-1].tolist(), self.starts[1:].tolist())]

    def repeat(self, copies: int) -> "_Slabs":
        """These slabs stacked copies times, one copy after another, each mesh a mesh of its own."""
        if copies == 1:
            return self
        S = self.right.size
        starts = (self.starts[:-1] + S * np.arange(copies)[:, None]).ravel()
        return _Slabs(np.tile(self.left, copies), np.tile(self.right, copies),
                      np.append(starts, copies * S))


@dataclass(frozen=True, eq=False)
class Quadrature:
    """Quadrature rule on the reference interval [0, 1]."""

    nodes: np.ndarray
    weights: np.ndarray
    exactness_degree: int

    def __post_init__(self):
        nodes = _readonly(self.nodes)
        weights = _readonly(self.weights)
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise ValueError("nodes and weights must be 1-D of equal length")
        if np.any(weights <= 0.0):
            raise ValueError("weights must be positive")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def npoints(self) -> int:
        return self.nodes.size

    @cached_property
    def legendre(self) -> np.ndarray:
        """(npoints, npoints), read-only: column j is P_j(2 x - 1) at the nodes x.

        Built once per rule; the slab values and moments of degree below q
        read its first q columns (_legendre).
        """
        return _readonly(npleg.legvander(2.0 * self.nodes - 1.0, self.npoints - 1))


def _legendre(quad: Quadrature, q: int) -> np.ndarray:
    """The shifted Legendre basis phi_j, j < q, at quad's nodes: (npoints, q).

    A view of the rule's table; a rule with fewer points than q, which has
    too few columns, gets its own fresh table.
    """
    if q > quad.npoints:
        return npleg.legvander(2.0 * quad.nodes - 1.0, q - 1)
    return quad.legendre[:, :q]


_MAX_POINTS = 16  # largest Gauss rule gauss_legendre builds


@lru_cache(maxsize=None, typed=True)
def gauss_legendre(n: int) -> Quadrature:
    """n-point Gauss-Legendre rule on [0, 1]; exact up to degree 2n - 1.

    Each rule is built once per n and shared by every caller: Quadrature
    is frozen and its arrays are read-only.  The cache is typed, so a
    float or bool n still fails here rather than hitting an int's rule.
    """
    if not _is_count(n):
        raise TypeError(f"point count must be an integer, got {n!r}")
    if not 1 <= n <= _MAX_POINTS:
        raise ValueError(f"point count must be in 1..{_MAX_POINTS}, got {n}")
    x, w = npleg.leggauss(n)
    return Quadrature((x + 1.0) / 2.0, w / 2.0, 2 * n - 1)


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
class SlabPoly:
    """Polynomial on one slab (a, b] in the shifted Legendre basis.

    ``coeffs`` has shape (q, d): q modal coefficients of a d-vector-valued
    polynomial of degree q - 1.
    """

    a: float
    b: float
    coeffs: np.ndarray

    def __post_init__(self):
        if not self.b > self.a:
            raise ValueError("slab must have positive width")
        c = _readonly(self.coeffs)
        if c.ndim != 2 or c.shape[0] < 1:
            raise ValueError("coeffs must have shape (q, d) with q >= 1")
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    def _x(self, t):
        return 2.0 * (np.asarray(t, dtype=float) - self.a) / (self.b - self.a) - 1.0

    def __call__(self, t: float) -> np.ndarray:
        """Value at a single time t, shape (d,)."""
        return np.atleast_1d(npleg.legval(self._x(t), self.coeffs))

    def eval_many(self, ts) -> np.ndarray:
        """Values at an array of times, shape (d, len(ts))."""
        return npleg.legval(self._x(ts), self.coeffs)

    def value_start(self) -> np.ndarray:
        """Right limit at the left endpoint a (inside the slab)."""
        e = (-1.0) ** np.arange(self.coeffs.shape[0])
        return e @ self.coeffs

    def value_end(self) -> np.ndarray:
        """Value at the right endpoint b."""
        return self.coeffs.sum(axis=0)


@dataclass(frozen=True, eq=False)
class BrokenFunction:
    """Piecewise polynomial over a time mesh, discontinuous at breakpoints.

    ``coeffs`` has shape (N, q, d): per slab, q shifted-Legendre modal
    coefficients of a d-vector-valued polynomial.
    """

    mesh: TimeMesh
    coeffs: np.ndarray

    def __post_init__(self):
        c = _readonly(self.coeffs)
        if c.ndim != 3:
            raise ValueError("coeffs must have shape (N, q, d)")
        if c.shape[0] != self.mesh.N:
            raise ValueError(
                f"coefficient array has {c.shape[0]} slabs, mesh has {self.mesh.N}"
            )
        if c.shape[1] < 1 or c.shape[2] < 1:
            raise ValueError("need q >= 1 coefficients and dim >= 1")
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return self.coeffs.shape[1] - 1

    @property
    def dim(self) -> int:
        return self.coeffs.shape[2]

    def slab(self, n: int) -> SlabPoly:
        bp = self.mesh.breakpoints
        return SlabPoly(float(bp[n]), float(bp[n + 1]), self.coeffs[n])

    def eval(self, t: float, side: str = "left") -> np.ndarray:
        """One-sided value at t; breakpoints default to the left slab."""
        return self.slab(self.mesh.slab_index(t, side))(t)

    def jump(self, n: int) -> np.ndarray:
        """Jump [U]^n = U(t_n+) - U(t_n) at the interior breakpoint t_n."""
        if not 1 <= n <= self.mesh.N - 1:
            raise ValueError(f"jump index must be in 1..{self.mesh.N - 1}, got {n}")
        return self.slab(n).value_start() - self.coeffs[n - 1].sum(axis=0)

    def node_value(self, n: int) -> np.ndarray:
        """Terminal value U^n = U|_{I_n}(t_n) for n = 1..N."""
        if not 1 <= n <= self.mesh.N:
            raise ValueError(f"node index must be in 1..{self.mesh.N}, got {n}")
        return self.coeffs[n - 1].sum(axis=0)

    def initial_value(self) -> np.ndarray:
        """Right limit U(0+)."""
        return self.slab(0).value_start()

    def __sub__(self, other: "BrokenFunction") -> "BrokenFunction":
        """F - G on their shared mesh, in the higher of the two degrees."""
        _check_same_domain(self, other)
        q = max(self.coeffs.shape[1], other.coeffs.shape[1])
        return BrokenFunction(self.mesh, _padded(self.coeffs, q) - _padded(other.coeffs, q))


def _padded(coeffs: np.ndarray, q: int) -> np.ndarray:
    """Coefficients (N, q0, d), q0 <= q, with zero coefficients appended up to q."""
    if coeffs.shape[1] == q:
        return coeffs
    out = np.zeros((coeffs.shape[0], q, coeffs.shape[2]))
    out[:, : coeffs.shape[1]] = coeffs
    return out


def _check_same_domain(Y: BrokenFunction, X: BrokenFunction, quad: Quadrature | None = None):
    """Y and X share a mesh and a dimension, and quad, if given, integrates Y' X exactly."""
    if not np.array_equal(Y.mesh.breakpoints, X.mesh.breakpoints):
        raise ValueError("broken functions live on different meshes")
    if Y.dim != X.dim:
        raise ValueError(f"dimension mismatch: {Y.dim} vs {X.dim}")
    if quad is not None and quad.exactness_degree < Y.degree + X.degree - 1:
        raise ValueError(f"quadrature exact to degree {quad.exactness_degree}, the form needs "
                         f"deg Y + deg X - 1 = {Y.degree + X.degree - 1}")


def _weight_matrix(M, dim: int) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim == 0:
        return float(M) * np.eye(dim)
    if M.shape != (dim, dim):
        raise ValueError(f"weight matrix must be {dim}x{dim}, got {M.shape}")
    return M


def _end_values(coeffs: np.ndarray) -> np.ndarray:
    """Every slab's right-end value sum_j c_j of coefficients (N, q, d); (N, d), 0 if q = 0.

    Adds the q slices in order (phi_j(t_n) = 1): numpy's sum over the middle
    axis runs several times slower when the last axis is short.  It gives
    the same bits, except for d = 1 and q >= 8, where numpy sums pairwise.
    """
    ends = np.zeros((coeffs.shape[0], coeffs.shape[2]))
    for j in range(coeffs.shape[1]):
        ends += coeffs[:, j]
    return ends


# _slab_apply runs one 2-D GEMM for a trailing axis d shorter than this, and
# numpy's batched A @ X (one small GEMM per slab) otherwise.  Measured on
# one CPU, best of 5, over (a, k) = (5, 2), (2, 4), (2, 2), (6, 3), (4, 6):
# at N = 1984 slabs (the stokes3 study) the one GEMM takes 0.06-0.10 of the
# batched time at d = 1, 0.29-0.96 at d = 2..4, 0.46-1.13 at d = 8 and
# 0.65-1.84 at d = 16; at N = 25 it takes 1.2-1.7 of it (about 1 us more)
# at every d >= 2.  heat1d's m = 129 and 257 keep the batched product.
_SLAB_GEMM_D = 8


def _slab_apply(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """A X_n for every slab n: A (a, k), X (N, k, d); shape (N, a, d).

    For d below _SLAB_GEMM_D, one GEMM on the (k, N d) layout of X, which
    saves the per-slab call overhead of the batched product; otherwise A @ X.
    """
    N, k, d = X.shape
    if d >= _SLAB_GEMM_D:
        return A @ X
    Y = A @ X.transpose(1, 0, 2).reshape(k, N * d)
    return Y.reshape(A.shape[0], N, d).transpose(1, 0, 2)


def _slab_values(coeffs: np.ndarray, quad: Quadrature) -> np.ndarray:
    """Values of broken coefficients (N, q, d) at quad's nodes; (N, npts, d), from its table."""
    return _slab_apply(_legendre(quad, coeffs.shape[1]), coeffs)


def _gemm(x: np.ndarray, B: np.ndarray) -> np.ndarray:
    """x @ B for x (..., a) and B (a, b) as one 2-D product; a or b may be 0."""
    lead = x.shape[:-1]
    return (x.reshape(math.prod(lead), x.shape[-1]) @ B).reshape(*lead, B.shape[1])


def _slab_inner(Yv: np.ndarray, M: np.ndarray, Xv: np.ndarray, quad: Quadrature) -> np.ndarray:
    """int_{I_n} (Y, X)_M dt / k_n for every slab from node values (N, npts, d); shape (N,).

    One GEMV over the (N, npts d) products with every weight repeated d
    times: a sum over a short trailing axis d costs numpy several times more.
    The products overwrite Y M in place, which saves a fresh array.
    """
    N, npts, d = Xv.shape
    YM = _gemm(Yv, M)
    YM *= Xv
    return YM.reshape(N, npts * d) @ np.repeat(quad.weights, d)


def _form_terms(Y: BrokenFunction, X: BrokenFunction, M, quad: Quadrature):
    """(Dmat, e, T, c): what dh_form and dh_star_form read of Y and X, padded to one q.

    With G = X M^T, one GEMM of N q rows, T_ij = sum_n <y_ni, G_nj> and
    c = sum_{n>=2} <Y_{n-1}(t_{n-1}), G_n(t_{n-1}+)>; Dmat and e are
    assemble_temporal_matrices(q, 1.0)'s.
    """
    _check_same_domain(Y, X, quad)
    q = max(Y.coeffs.shape[1], X.coeffs.shape[1])
    y, x = _padded(Y.coeffs, q), _padded(X.coeffs, q)
    G = _gemm(x, _weight_matrix(M, Y.dim).T)
    Dmat, _, e = assemble_temporal_matrices(q, 1.0)
    T = np.tensordot(y, G, axes=([0, 2], [0, 2]))
    c = float((_end_values(y[:-1]) * (e @ G[1:])).sum())
    return Dmat, e, T, c


def dh_form(Y: BrokenFunction, X: BrokenFunction, M, quad: Quadrature) -> float:
    """DG time-derivative form D(Y, X) with M-weighted inner products.

    Computed from the slab coefficients (module docstring), so the value
    does not depend on ``quad``; the rule must still be exact for degree
    deg(Y) + deg(X) - 1, the degree its slab integrals have.
    """
    Dmat, _, T, c = _form_terms(Y, X, M, quad)
    return float((Dmat.T * T).sum() - c)


def dh_star_form(Y: BrokenFunction, X: BrokenFunction, M, quad: Quadrature) -> float:
    """Adjoint form D*(Y, X); satisfies dh_form(Y, X) = -dh_star_form(Y, X).

    Computed from the slab coefficients like dh_form, with the same rule check.
    """
    Dmat, e, T, c = _form_terms(Y, X, M, quad)
    return float(((Dmat - np.outer(e, e) - 1.0) * T).sum() + c)
