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

Both projections are computed in one function, _slab_coeffs, for the
public project_slab, project_broken and l2_project_broken and for the
solver's constraint data (dgsolver._constraint_data).  It samples the data
in one call and returns the coefficients of every choice it is given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .timecore import (BrokenFunction, Quadrature, SlabPoly, TimeMesh, _end_values, _is_count,
                       _legendre, _odd, _slab_apply, _Slabs)

__all__ = ["DataError", "ProjectionSpec", "project_slab", "project_broken",
           "l2_project_broken"]


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


def _sample(func, ts: np.ndarray, field: str, dim: int, slabs: _Slabs) -> np.ndarray:
    """Values of the data callable func at the times ts, shape (S, k, dim).

    Row s of ts (shape (S, k)) lies in slab s of slabs.  A callable that
    maps an array of times (n,) to (dim, n) is called once; any other is
    called one time at a time.  Wrong shapes and non-finite values raise
    DataError naming the field and that slab, counted from 1 in its own
    mesh; only a raise reads slabs.number, so a call that succeeds
    computes no slab numbers.
    """
    S, k = ts.shape
    flat = ts.ravel()
    vals = _batched(func, flat, dim)
    if vals is None:
        vals = np.empty((flat.size, dim))
        for i, t in enumerate(flat.tolist()):
            v = np.atleast_1d(np.asarray(func(t), dtype=float))
            if v.shape != (dim,):
                raise DataError(f"{field} returned shape {v.shape} on slab {slabs.number[i // k]}, "
                                f"expected ({dim},)")
            vals[i] = v
    if not np.isfinite(vals).all():  # the per-time mask only to name the slab
        bad = ~np.isfinite(vals).all(axis=1)
        raise DataError(f"non-finite {field} data on slab {slabs.number[int(np.argmax(bad)) // k]}")
    return vals.reshape(S, k, dim)


def _slab_times(slabs: _Slabs, quad: Quadrature) -> np.ndarray:
    """Every slab's quadrature nodes, then its right end; shape (S, npts + 1).

    A data stage forms this one array and samples every field at the
    columns it needs: the nodes ([:, :-1]), the right ends ([:, -1:]) or
    both.  It is read-only, since a field sampled at both gets a view of
    it: a callable that writes to its times raises in its array call and
    is called one time at a time, and the next field's times stay put.
    """
    ts = np.empty((slabs.right.size, quad.npoints + 1))
    ts[:, :-1], ts[:, -1] = slabs.left[:, None] + slabs.widths[:, None] * quad.nodes, slabs.right
    ts.setflags(write=False)
    return ts


def _moments(vals: np.ndarray, widths: np.ndarray, quad: Quadrature, q: int) -> np.ndarray:
    """int_{I_n} phi_i v dt, i < q, from node values vals (N, npts, d); shape (N, q, d)."""
    Phiw = _legendre(quad, q).T * quad.weights  # (q, npts)
    return widths[:, None, None] * _slab_apply(Phiw, vals)


def _slab_coeffs(func, slabs: _Slabs, quad: Quadrature, q: int, field: str, dim: int,
                 interpolate_ends, times=None) -> np.ndarray:
    """Modal coefficients of func projected slab-wise onto degree q - 1, (len(ends), S, q, dim).

    interpolate_ends holds one projection choice per coefficient set: the
    endpoint-interpolating projection (True), which matches q - 1 moments
    and fixes the last coefficient from the right-end value, or the plain
    L2 projection (False), which matches q moments.  func is sampled in one
    call for all choices: at the quadrature nodes, when a choice matches
    moments, then at the right ends, when a choice interpolates.  Those
    are columns of times, the data stage's _slab_times(slabs, quad), which
    is formed here when not given.
    """
    npts, moments = quad.npoints, q > 1 or not all(interpolate_ends)
    if times is None:
        times = _slab_times(slabs, quad)
    ts = times[:, 0 if moments else npts:npts + any(interpolate_ends)]
    vals, k = _sample(func, ts, field, dim, slabs), slabs.widths
    coeffs = np.empty((len(interpolate_ends), k.size, q, dim))  # every entry is set below
    for out, interpolate_end in zip(coeffs, interpolate_ends):
        n = q - 1 if interpolate_end else q  # the moments this choice matches
        if n:
            scale = _odd(n) / k[:, None]
            out[:, :n] = scale[:, :, None] * _moments(vals[:, :npts], k, quad, n)
        if interpolate_end:
            out[:, q - 1] = vals[:, -1] - _end_values(out[:, : q - 1])
    return coeffs


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
    coeffs = _slab_coeffs(phi, slab, spec.quadrature, spec.q, "phi", end.size, [True])
    return SlabPoly(a, b, coeffs[0, 0])


def project_broken(phi, mesh: TimeMesh, dim: int, spec: ProjectionSpec) -> BrokenFunction:
    """Slab-by-slab projection of phi over the whole mesh.

    The result interpolates phi at every breakpoint t_n, n >= 1.  phi must
    be evaluable at the breakpoints and at interior quadrature nodes; data
    with (removable) breakpoint discontinuities is read as its limit from
    within each slab.  A phi that maps an array of times (n,) to (dim, n)
    is called once, for all nodes and breakpoints together.
    """
    coeffs = _slab_coeffs(phi, _Slabs.of([mesh]), spec.quadrature, spec.q, "phi", dim, [True])
    return BrokenFunction(mesh, coeffs[0])


def l2_project_broken(phi, mesh, dim: int, q: int, quad: Quadrature) -> BrokenFunction:
    """Plain slab-wise L2 projection of degree q - 1 (measurement utility).

    Unlike the endpoint-interpolating projection this matches q moments and
    generally misses the breakpoint values; useful for comparing the two
    data treatments.
    """
    coeffs = _slab_coeffs(phi, _Slabs.of([mesh]), quad, q, "phi", dim, [False])
    return BrokenFunction(mesh, coeffs[0])
