"""Constraint-data projection: right-endpoint interpolation plus moment matching.

On a single slab (a, b] the degree-(q-1) projection Pi(phi) is defined by
the two condition sets

    (Pi phi)(b) = phi(b),
    int_a^b (Pi phi - phi) psi dt = 0     for every psi of degree <= q - 2;

for q = 1 only the endpoint condition remains.  Applied slab by slab, this
projects time-continuous data onto the broken polynomial space while
*interpolating at every breakpoint* — the property that preserves nodal
superconvergence and the optimal multiplier rate when constraint data
enters a DG time discretization.  (The plain L2 projection matches one
more moment instead of the endpoint and loses both.)

In the shifted Legendre basis the moment conditions decouple,

    c_i = (2 i + 1) / (b - a) * int_a^b phi(t) phi_i(t) dt,   i <= q - 2,

and the endpoint condition fixes the last coefficient via phi_j(b) = 1:

    c_{q-1} = phi(b) - sum_{i < q-1} c_i.

Moment integrals of non-polynomial data are computed with the quadrature
carried by :class:`ProjectionSpec`; all stated identities are exact (up to
rounding) whenever the rule integrates phi * psi exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre as npleg

from .timecore import (BrokenFunction, Quadrature, SlabPoly, TimeMesh, _end_values, _is_count,
                       _slab_apply, _Slabs)

__all__ = ["DataError", "ProjectionSpec", "project_slab", "project_broken"]


class DataError(ValueError):
    """Problem data that is non-finite or of the wrong shape; names the field and slab."""


@dataclass(frozen=True, eq=False)
class ProjectionSpec:
    """Degree q and moment quadrature for the slab projection."""

    q: int
    quadrature: Quadrature

    def __post_init__(self):
        if not (_is_count(self.q) and self.q >= 1):
            raise ValueError(f"q must be an integer >= 1, got {self.q!r}")
        if self.quadrature.exactness_degree < 2 * self.q - 2:
            raise ValueError(
                "moment quadrature must be exact to degree >= 2q - 2 "
                f"(got {self.quadrature.exactness_degree} for q = {self.q})"
            )


def _batched(func, flat: np.ndarray, dim: int):
    """func(flat) as (n, dim) if func maps n times to (dim, n), else None.

    The array call is kept only if its last column agrees with a scalar
    probe call, which catches callables that broadcast the times wrongly.
    """
    try:
        vals = np.asarray(func(flat), dtype=float)
    except Exception:  # scalar-only callable; the per-time loop reports real errors
        return None
    if vals.shape != (dim, flat.size):
        return None
    probe = np.atleast_1d(np.asarray(func(float(flat[-1])), dtype=float))
    if probe.shape != (dim,) or not (
            np.abs(vals[:, -1] - probe).max() <= 1e-12 * np.abs(probe).max()):
        return None
    return vals.T


def _sample(func, ts: np.ndarray, field: str, dim: int, number: np.ndarray) -> np.ndarray:
    """Values of the data callable func at the times ts, shape (S, k, dim).

    Row s of ts (shape (S, k)) lies in slab number[s], counted from 1 in
    its own mesh.  A callable that maps an array of times (n,) to (dim, n)
    is called once; any other is called one time at a time.  Wrong shapes
    and non-finite values raise DataError naming the field and that slab.
    """
    S, k = ts.shape
    flat = ts.ravel()
    vals = _batched(func, flat, dim)
    if vals is None:
        vals = np.empty((flat.size, dim))
        for i, t in enumerate(flat.tolist()):
            v = np.atleast_1d(np.asarray(func(t), dtype=float))
            if v.shape != (dim,):
                raise DataError(f"{field} returned shape {v.shape} on slab {number[i // k]}, "
                                f"expected ({dim},)")
            vals[i] = v
    if not np.isfinite(vals).all():  # the per-time mask only to name the slab
        bad = ~np.isfinite(vals).all(axis=1)
        raise DataError(f"non-finite {field} data on slab {number[int(np.argmax(bad)) // k]}")
    return vals.reshape(S, k, dim)


def _slab_nodes(slabs: _Slabs, quad: Quadrature) -> np.ndarray:
    """Quadrature nodes mapped into every slab; shape (S, npts)."""
    return slabs.left[:, None] + slabs.widths[:, None] * quad.nodes


def _moments(vals: np.ndarray, widths: np.ndarray, quad: Quadrature, q: int) -> np.ndarray:
    """int_{I_n} phi_i v dt, i < q, from node values vals (N, npts, d); shape (N, q, d)."""
    Phiw = npleg.legvander(2.0 * quad.nodes - 1.0, q - 1).T * quad.weights  # (q, npts)
    return widths[:, None, None] * _slab_apply(Phiw, vals)


def _coeff_samples(func, slabs: _Slabs, quad: Quadrature, q: int, field: str, dim: int,
                   interpolate_ends) -> np.ndarray:
    """func sampled in one call for its slab coefficients under every choice; (S, k, dim).

    interpolate_ends holds one projection choice per coefficient set
    (_coeffs_from_samples).  The columns are the quadrature nodes, when a
    choice matches moments, then the right end, when a choice interpolates.
    """
    moments = q > 1 or not all(interpolate_ends)
    ts = _slab_nodes(slabs, quad) if moments else np.empty((slabs.right.size, 0))
    if any(interpolate_ends):
        ts = np.hstack([ts, slabs.right[:, None]])
    return _sample(func, ts, field, dim, slabs.number)


def _coeffs_from_samples(vals: np.ndarray, widths: np.ndarray, quad: Quadrature, q: int,
                         interpolate_end: bool) -> np.ndarray:
    """Modal coefficients (S, q, dim) of the slab-wise projection onto degree q - 1.

    vals are _coeff_samples' values.  interpolate_end selects the
    endpoint-interpolating projection; otherwise the plain L2 projection,
    which matches q moments instead.
    """
    n_mom = q - 1 if interpolate_end else q
    coeffs = np.zeros((widths.size, q, vals.shape[-1]))
    if n_mom:
        scale = (2.0 * np.arange(n_mom) + 1.0) / widths[:, None]
        moments = _moments(vals[:, :quad.npoints], widths, quad, n_mom)
        coeffs[:, :n_mom] = scale[:, :, None] * moments
    if interpolate_end:
        coeffs[:, q - 1] = vals[:, -1] - _end_values(coeffs[:, : q - 1])
    return coeffs


def _slab_coeffs(func, slabs: _Slabs, quad: Quadrature, q: int, field: str, dim: int,
                 interpolate_end: bool) -> np.ndarray:
    """Modal coefficients (S, q, dim) of func projected slab-wise onto degree q - 1, one call."""
    vals = _coeff_samples(func, slabs, quad, q, field, dim, [interpolate_end])
    return _coeffs_from_samples(vals, slabs.widths, quad, q, interpolate_end)


def project_slab(phi, interval, spec: ProjectionSpec) -> SlabPoly:
    """Project a scalar- or vector-valued function onto one slab.

    The N = 1 case of :func:`project_broken`.

    Parameters
    ----------
    phi : callable
        t -> scalar or (d,) array; evaluated at the right endpoint and at
        the quadrature nodes mapped into (a, b).
    interval : (a, b) pair with b > a.
    spec : ProjectionSpec
    """
    a, b = float(interval[0]), float(interval[1])
    if not b > a:
        raise ValueError("interval must satisfy b > a")
    end = np.atleast_1d(np.asarray(phi(b), dtype=float))
    if end.ndim != 1:
        raise ValueError("data function must return a scalar or 1-D vector")
    slab = _Slabs(np.array([a]), np.array([b]), np.array([0, 1]))
    coeffs = _slab_coeffs(phi, slab, spec.quadrature, spec.q, "phi", end.size, True)
    return SlabPoly(a, b, coeffs[0])


def project_broken(phi, mesh: TimeMesh, dim: int, spec: ProjectionSpec) -> BrokenFunction:
    """Slab-by-slab projection of phi over the whole mesh.

    The result interpolates phi at every breakpoint t_n, n >= 1.  phi must
    be evaluable at the breakpoints and at interior quadrature nodes; data
    with (removable) breakpoint discontinuities is read as its limit from
    within each slab.  A phi that maps an array of times (n,) to (dim, n)
    is called once, for all nodes and breakpoints together.
    """
    coeffs = _slab_coeffs(phi, _Slabs.of([mesh]), spec.quadrature, spec.q, "phi", dim, True)
    return BrokenFunction(mesh, coeffs)
