import gc
import json
import math
import pickle
import re
import tracemalloc
import weakref
from collections import Counter
from dataclasses import fields, replace
from fractions import Fraction
from math import factorial
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.linalg import eigh as scipy_eigh, null_space

from dgtime import analysis, dgsolver
from dgtime import (
    BrokenFunction,
    ConstrainedSystem,
    DataError,
    ManufacturedSolution1D,
    ProjectionSpec,
    SlabSolveError,
    SolverOptions,
    TimeMesh,
    assemble_temporal_matrices,
    build_heat_1d,
    build_saddle_dae,
    build_uniform_mesh,
    constraint_residual,
    dg_residual,
    dh_form,
    error_l2_energy,
    error_l2_multiplier,
    error_nodal_max,
    gauss_legendre,
    load_system,
    project_broken,
    run_study,
    solve_constrained,
    solve_mixed,
    solve_monolithic,
    validate_system,
)
from dgtime.systems import _STOKES3_A, _stokes3_handles
from dgtime.timecore import _slab_values, _Slabs


# ---------------------------------------------------------------------------
# temporal matrices


def test_temporal_matrices_q1():
    Dmat, Smat, e = assemble_temporal_matrices(1, 0.25)
    np.testing.assert_array_equal(Dmat, [[1.0]])
    np.testing.assert_array_equal(Smat, [[0.25]])
    np.testing.assert_array_equal(e, [1.0])


def test_temporal_matrices_q2_unit_width():
    Dmat, Smat, e = assemble_temporal_matrices(2, 1.0)
    np.testing.assert_array_equal(Dmat, [[1.0, 1.0], [-1.0, 1.0]])
    np.testing.assert_allclose(Smat, np.diag([1.0, 1.0 / 3.0]))
    np.testing.assert_array_equal(e, [1.0, -1.0])


def test_temporal_matrices_q3():
    Dmat, Smat, e = assemble_temporal_matrices(3, 0.5)
    np.testing.assert_array_equal(
        Dmat, [[1.0, 1.0, 1.0], [-1.0, 1.0, 1.0], [1.0, -1.0, 1.0]])
    np.testing.assert_allclose(Smat, np.diag([0.5, 0.5 / 3.0, 0.1]))
    np.testing.assert_array_equal(e, [1.0, -1.0, 1.0])


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
def test_derivative_block_is_width_independent(q):
    D1, S1, _ = assemble_temporal_matrices(q, 1.0)
    D2, S2, _ = assemble_temporal_matrices(q, 0.125)
    np.testing.assert_array_equal(D1, D2)
    np.testing.assert_allclose(S2, 0.125 * S1)


@pytest.mark.parametrize("q", [1, 2, 3, 4, 6])
def test_discrete_integration_by_parts(q):
    # Dmat + Dmat^T = ones + e e^T: the matrix identity behind the
    # antisymmetry of the DG derivative forms.
    Dmat, _, e = assemble_temporal_matrices(q, 1.0)
    np.testing.assert_allclose(Dmat + Dmat.T, np.ones((q, q)) + np.outer(e, e),
                               atol=1e-14)


@settings(deadline=None, max_examples=80)
@given(x=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=6))
def test_slab_coercivity_identity(x):
    # x^T Dmat x = 0.5 (sum x)^2 + 0.5 (sum (-1)^i x_i)^2 >= 0.5 * (x^T e_end)^2
    x = np.asarray(x)
    q = x.size
    Dmat, _, e = assemble_temporal_matrices(q, 1.0)
    lhs = x @ Dmat @ x
    rhs = 0.5 * x.sum() ** 2 + 0.5 * (e @ x) ** 2
    assert lhs == pytest.approx(rhs, abs=1e-9 * (1.0 + abs(rhs)))


def test_temporal_matrix_argument_validation():
    with pytest.raises(ValueError):
        assemble_temporal_matrices(0, 1.0)
    with pytest.raises(ValueError):
        assemble_temporal_matrices(2, 0.0)


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(q=0)
    with pytest.raises(ValueError, match="got 2.5"):
        SolverOptions(q=2.5)
    assert SolverOptions(q=np.int64(3)).quadrature().npoints == 5
    assert SolverOptions(q=2).quadrature().npoints == 4
    assert SolverOptions(q=5).quadrature().npoints == 7


@pytest.mark.parametrize("switch", ["off", "on", 0, 1, None, np.array([True])])
def test_solver_options_reject_a_projection_switch_that_is_not_a_bool(switch):
    # a non-empty string is truthy, so "off" would otherwise run with the projection on
    message = f"use_projection must be a bool, got {re.escape(repr(switch))}"
    with pytest.raises(ValueError, match=message):
        SolverOptions(use_projection=switch)
    for ok in (True, False, np.True_, np.False_):
        assert SolverOptions(use_projection=ok).use_projection == ok


def test_solver_options_reject_q_beyond_the_largest_gauss_rule():
    assert SolverOptions(q=14).quadrature().npoints == 16
    with pytest.raises(ValueError, match=r"q must be in 1\.\.14, got 15"):
        SolverOptions(q=15)
    with pytest.raises(ValueError, match=r"q must be in 1\.\.14, got '2'"):
        SolverOptions(q="2")


# ---------------------------------------------------------------------------
# small manufactured systems


def _linear_ode_system():
    u0 = np.array([1.0, -2.0])
    v = np.array([0.5, 3.0])
    exact = lambda t: u0 + t * v
    return build_saddle_dae(M=np.eye(2), A=np.diag([1.0, 2.0]),
                            exact_u=exact, exact_du=lambda t: v, name="lin")


def _poly_saddle(q):
    """stokes3 matrices with polynomial data of degree q-1 (and p of q-1)."""
    rng = np.random.default_rng(900 + q)
    cu = rng.uniform(-1, 1, size=(q, 3))
    cp = rng.uniform(-1, 1, size=(q, 1))
    pu = [np.polynomial.Polynomial(cu[:, i]) for i in range(3)]
    pp = np.polynomial.Polynomial(cp[:, 0])
    exact_u = lambda t: np.array([p(t) for p in pu])
    exact_du = lambda t: np.array([p.deriv()(t) for p in pu])
    exact_p = lambda t: np.array([pp(t)])
    return build_saddle_dae(M=np.eye(3), A=_STOKES3_A, B1=np.array([[1.0, 1.0, 1.0]]),
                            exact_u=exact_u, exact_du=exact_du, exact_p=exact_p)


def _heat_linear_in_time():
    # u(x, t) = x^2 t: compatible (u(., 0) = 0), quadratic in space,
    # degree 1 in time, so q = 2 must reproduce it exactly.
    sol = ManufacturedSolution1D(
        u=lambda x, t: x * x * t,
        u_t=lambda x, t: x * x + 0.0 * t,
        u_xx=lambda x, t: 2.0 * t + 0.0 * x,
    )
    return build_heat_1d(3, sol)


def _solution_errors(sol, system, ts):
    eu = max(np.abs(sol.U.eval(t) - system.exact_u(t)).max() for t in ts)
    ep = 0.0
    if sol.P is not None and system.exact_p is not None:
        ep = max(np.abs(sol.P.eval(t) - system.exact_p(t)).max() for t in ts)
    return eu, ep


def test_zero_data_gives_zero_solution():
    zero = lambda t: np.zeros(2)
    system = build_saddle_dae(M=np.eye(2), A=np.array([[1.0, 0.2], [0.2, 2.0]]),
                              exact_u=zero, exact_du=zero)
    sol = solve_mixed(system, build_uniform_mesh(1.0, 4), SolverOptions(q=3))
    assert np.abs(sol.U.coeffs).max() <= 1e-14
    assert sol.P is None
    assert sol.condition_estimates.shape == (4,)
    assert np.all(sol.condition_estimates >= 1.0)


def test_mixed_solver_exact_for_linear_solution():
    system = _linear_ode_system()
    sol = solve_mixed(system, build_uniform_mesh(1.0, 3), SolverOptions(q=2))
    ts = np.linspace(0.05, 1.0, 9)
    eu, _ = _solution_errors(sol, system, ts)
    assert eu <= 1e-12


@pytest.mark.parametrize("q", [1, 2, 3])
def test_mixed_solver_exact_for_polynomial_saddle(q):
    system = _poly_saddle(q)
    sol = solve_mixed(system, build_uniform_mesh(1.0, 3), SolverOptions(q=q))
    ts = np.linspace(0.1, 1.0, 7)
    eu, ep = _solution_errors(sol, system, ts)
    assert eu <= 1e-11
    assert ep <= 1e-10


def test_constrained_solver_exact_for_heat_linear_in_time():
    system = _heat_linear_in_time()
    sol = solve_constrained(system, build_uniform_mesh(1.0, 3), SolverOptions(q=2))
    ts = np.linspace(0.1, 1.0, 7)
    eu, _ = _solution_errors(sol, system, ts)
    assert eu <= 1e-12


def test_mixed_solver_exact_on_nonuniform_mesh():
    system = _linear_ode_system()
    mesh = TimeMesh(np.array([0.0, 0.3, 0.5, 1.0]))
    sol = solve_mixed(system, mesh, SolverOptions(q=2))
    eu, _ = _solution_errors(sol, system, np.linspace(0.05, 1.0, 9))
    assert eu <= 1e-12


def test_one_solver_marches_every_constraint_configuration():
    assert solve_mixed is solve_constrained
    mesh, opts = build_uniform_mesh(1.0, 4), SolverOptions(q=2)
    # B2 only, neither block, B1 only, both blocks
    for system in (build_heat_1d(2), _linear_ode_system(), build_saddle_dae("stokes3"),
                   _random_system(0, "combined", 4, 1)):
        sol, mono = solve_constrained(system, mesh, opts), solve_monolithic(system, mesh, opts)
        assert np.abs(sol.U.coeffs - mono.U.coeffs).max() <= 1e-10 * np.abs(mono.U.coeffs).max()
        assert (sol.P is None) == (system.r1 == 0)


# ---------------------------------------------------------------------------
# eliminating the explicit constraint == deleting the constrained rows


def test_constrained_solve_matches_row_elimination_for_zero_boundary():
    sol = ManufacturedSolution1D(
        u=lambda x, t: x * (1.0 - x) * np.sin(4.0 * t),
        u_t=lambda x, t: 4.0 * x * (1.0 - x) * np.cos(4.0 * t),
        u_xx=lambda x, t: -2.0 * np.sin(4.0 * t) + 0.0 * x,
    )
    system = build_heat_1d(4, sol)
    mesh = build_uniform_mesh(1.0, 5)
    opts = SolverOptions(q=2)
    full = solve_constrained(system, mesh, opts)

    # the kernel of B2 is exactly the span of the interior unit vectors, so
    # dropping the boundary rows/columns gives the same Galerkin problem
    keep = np.arange(1, system.m - 1)
    reduced = ConstrainedSystem(
        M=system.M[np.ix_(keep, keep)], A=system.A[np.ix_(keep, keep)],
        f=lambda t: system.f(t)[keep], u0=system.u0[keep], name="interior")
    small = solve_mixed(reduced, mesh, opts)

    scale = 1.0 + np.abs(small.U.coeffs).max()
    assert np.abs(full.U.coeffs[:, :, 1:-1] - small.U.coeffs).max() <= 1e-12 * scale
    # boundary modes carry the (zero) boundary data exactly
    assert np.abs(full.U.coeffs[:, :, [0, -1]]).max() <= 1e-12 * scale


# ---------------------------------------------------------------------------
# sequential vs monolithic


@pytest.mark.parametrize("use_projection", [True, False])
def test_monolithic_matches_sequential_stokes3(use_projection):
    system = build_saddle_dae("stokes3")
    mesh = build_uniform_mesh(1.0, 4)
    opts = SolverOptions(q=2, use_projection=use_projection)
    seq = solve_mixed(system, mesh, opts)
    mono = solve_monolithic(system, mesh, opts)
    scale = 1.0 + np.abs(seq.U.coeffs).max()
    assert np.abs(seq.U.coeffs - mono.U.coeffs).max() <= 1e-11 * scale
    pscale = 1.0 + np.abs(seq.P.coeffs).max()
    assert np.abs(seq.P.coeffs - mono.P.coeffs).max() <= 1e-11 * pscale


def test_monolithic_matches_sequential_heat():
    system = build_heat_1d(3)
    mesh = build_uniform_mesh(1.0, 3)
    opts = SolverOptions(q=2)
    seq = solve_constrained(system, mesh, opts)
    mono = solve_monolithic(system, mesh, opts)
    scale = 1.0 + np.abs(seq.U.coeffs).max()
    assert np.abs(seq.U.coeffs - mono.U.coeffs).max() <= 1e-11 * scale


def test_monolithic_solves_slab_by_slab_in_small_memory():
    # the all-slabs matrix here, (N s)^2 with s = q (m - r2 + r1) = 254, takes 126 MiB;
    # on the graded mesh's 64 widths the oracle holds one width's K^{-1} E at a
    # time (3.6 MiB traced), where taking every width's inverse first holds all 64
    # (19.7 MiB)
    system, opts = build_heat_1d(64), SolverOptions(q=2)
    for mesh, limit in ((build_uniform_mesh(1.0, 16), 126 * 2**20 / 10),
                        (TimeMesh((np.arange(65) / 64) ** 2), 8 * 2**20)):
        tracemalloc.start()
        try:
            mono = solve_monolithic(system, mesh, opts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit, mesh.N
        seq = solve_constrained(system, mesh, opts)
        scale = 1.0 + np.abs(seq.U.coeffs).max()
        assert np.abs(seq.U.coeffs - mono.U.coeffs).max() <= 1e-11 * scale


def test_monolithic_matches_sequential_nonuniform():
    system = build_saddle_dae("stokes3")
    mesh = TimeMesh(np.array([0.0, 0.2, 0.7, 1.0]))
    opts = SolverOptions(q=3)
    seq = solve_mixed(system, mesh, opts)
    mono = solve_monolithic(system, mesh, opts)
    scale = 1.0 + np.abs(seq.U.coeffs).max()
    assert np.abs(seq.U.coeffs - mono.U.coeffs).max() <= 1e-11 * scale


def _random_system(seed, kind, m, r1):
    """A random SPD (r1 = r2 = 0), saddle (B1) or combined (B1 + B2) system.

    M and A have the spectra of criterion 11, [0.5, 3] and [0.1, 2], and
    B1 has singular values in [0.5, 2] on ker B2, so that the conditioning
    of the multiplier stays bounded as well; u0 matches the constraint
    data at t = 0.
    """
    rng = np.random.default_rng(seed)

    def spd(lo, hi):
        Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        return Q @ np.diag(rng.uniform(lo, hi, m)) @ Q.T

    def smooth(c0):
        """c0 + c1 t + c2 sin(3t), evaluable on arrays of times."""
        c1, c2 = rng.standard_normal((2, c0.size))
        return lambda t: (np.multiply.outer(c0, np.ones_like(t)) + np.multiply.outer(c1, t)
                          + np.multiply.outer(c2, np.sin(3.0 * np.asarray(t))))

    M, A, u0 = spd(0.5, 3.0), spd(0.1, 2.0), rng.standard_normal(m)
    f, path = smooth(rng.standard_normal(m)), smooth(u0)
    kw, Z = {}, np.eye(m)
    if kind == "combined":
        B2 = rng.standard_normal((1, m))
        kw.update(B2=B2, g2=lambda t: B2 @ path(t))
        Z = null_space(B2)
    if kind != "spd":
        r1 = min(r1, Z.shape[1])
        U, _ = np.linalg.qr(rng.standard_normal((r1, r1)))
        W, _ = np.linalg.qr(rng.standard_normal((Z.shape[1], r1)))
        B1 = U @ np.diag(rng.uniform(0.5, 2.0, r1)) @ W.T @ Z.T
        if kind == "combined":
            B1 = B1 + rng.standard_normal((r1, 1)) @ B2
        kw.update(B1=B1, g1=lambda t: B1 @ path(t))
    return ConstrainedSystem(M=M, A=A, f=f, u0=u0, **kw)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["spd", "saddle", "combined"]),
       m=st.integers(2, 6), r1=st.integers(1, 2),
       widths=st.lists(st.floats(0.2, 1.0), min_size=1, max_size=6),
       q=st.integers(1, 4), use_projection=st.booleans())
def test_marching_matches_monolithic_on_random_systems(seed, kind, m, r1, widths, q,
                                                       use_projection):
    system = _random_system(seed, kind, m, r1)
    mesh = TimeMesh(np.r_[0.0, np.cumsum(widths)])
    opts = SolverOptions(q=q, use_projection=use_projection)
    seq, mono = solve_constrained(system, mesh, opts), solve_monolithic(system, mesh, opts)
    assert np.abs(seq.U.coeffs - mono.U.coeffs).max() <= 1e-10 * np.abs(mono.U.coeffs).max()
    if system.r1:
        assert np.abs(seq.P.coeffs - mono.P.coeffs).max() <= 1e-10 * np.abs(mono.P.coeffs).max()
    if use_projection and system.r1 + system.r2:
        assert constraint_residual(system, mesh, opts, seq.U).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["spd", "saddle"]),
       m=st.integers(2, 6), r1=st.integers(1, 2),
       widths=st.lists(st.floats(0.2, 1.0), min_size=1, max_size=6),
       q=st.integers(1, 4), use_projection=st.booleans())
def test_energy_identity_on_random_systems(seed, kind, m, r1, widths, q, use_projection):
    # U tested against itself: D(U, U) + int (A U, U) + int (P, B1 U)
    # = int (f, U) + (u0, U(0+))_M, every integral with the solver's rule
    system = _random_system(seed, kind, m, r1)
    mesh = TimeMesh(np.r_[0.0, np.cumsum(widths)])
    opts = SolverOptions(q=q, use_projection=use_projection)
    quad = opts.quadrature()
    sol = solve_mixed(system, mesh, opts)
    U = sol.U

    def integral(X, W, Y):
        vx, vy = _slab_values(X, quad), _slab_values(Y, quad)
        return float((((vx @ W) * vy).sum(axis=-1) @ quad.weights) @ mesh.widths)

    ts = mesh.breakpoints[:-1, None] + mesh.widths[:, None] * quad.nodes
    fv = np.moveaxis(system.f(ts.ravel()).reshape(m, *ts.shape), 0, -1)
    terms = [dh_form(U, U, system.M, quad), integral(U.coeffs, system.A, U.coeffs),
             -float(((fv * _slab_values(U.coeffs, quad)).sum(axis=-1) @ quad.weights)
                    @ mesh.widths),
             -float(system.u0 @ system.M @ U.initial_value())]
    if system.r1:
        terms.append(integral(sol.P.coeffs, system.B1, U.coeffs))
    assert abs(sum(terms)) <= 1e-12 * sum(abs(t) for t in terms)
    end = U.coeffs[-1].sum(axis=0)
    assert terms[0] >= 0.5 * end @ system.M @ end * (1.0 - 1e-12)


# ---------------------------------------------------------------------------
# residual checks


def test_dg_residual_small_for_solver_output():
    system = build_saddle_dae("stokes3")
    mesh = build_uniform_mesh(1.0, 6)
    opts = SolverOptions(q=2)
    sol = solve_mixed(system, mesh, opts)
    res = dg_residual(system, mesh, opts, sol.U, sol.P)
    assert res.shape == (6,)
    assert res.max() <= 1e-10


def test_dg_residual_detects_perturbation():
    system = build_saddle_dae("stokes3")
    mesh = build_uniform_mesh(1.0, 4)
    opts = SolverOptions(q=2)
    sol = solve_mixed(system, mesh, opts)
    bad = sol.U.coeffs.copy()
    bad[2, 1, 0] += 1e-3
    res = dg_residual(system, mesh, opts, BrokenFunction(mesh, bad), sol.P)
    assert res[2] > 1e-5


def test_dg_residual_shape_guard():
    system = build_saddle_dae("stokes3")
    mesh = build_uniform_mesh(1.0, 2)
    sol = solve_mixed(system, mesh, SolverOptions(q=2))
    with pytest.raises(ValueError):
        dg_residual(system, mesh, SolverOptions(q=3), sol.U, sol.P)
    with pytest.raises(ValueError):
        dg_residual(system, mesh, SolverOptions(q=2), sol.U, None)
    # a solution checked against another mesh, with the same or another slab count
    opts = SolverOptions(q=2)
    for other in (TimeMesh(np.array([0.0, 0.4, 1.0])), build_uniform_mesh(1.0, 3)):
        with pytest.raises(ValueError, match="U lives on another mesh"):
            dg_residual(system, other, opts, sol.U, sol.P)
        with pytest.raises(ValueError, match="U lives on another mesh"):
            constraint_residual(system, other, opts, sol.U)
    on_other = solve_constrained(system, TimeMesh(np.array([0.0, 0.4, 1.0])), opts)
    with pytest.raises(ValueError, match="P lives on another mesh"):
        dg_residual(system, mesh, opts, sol.U, on_other.P)
    # a multiplier for a system without B1 is refused, not ignored
    heat = build_heat_1d(3)
    with pytest.raises(ValueError, match=r"system has no B1 \(r1 = 0\)"):
        dg_residual(heat, mesh, opts, solve_constrained(heat, mesh, opts).U, sol.P)


@pytest.mark.parametrize("residual", [dg_residual, constraint_residual])
def test_residuals_reject_a_solution_of_another_shape(residual):
    # otherwise a q = 1 U is broadcast against q = 3 data and returns numbers
    system, mesh = build_saddle_dae("stokes3"), build_uniform_mesh(1.0, 2)
    sol = solve_constrained(system, mesh, SolverOptions(q=1))
    P = (sol.P,) if residual is dg_residual else ()
    wide = BrokenFunction(mesh, np.zeros((mesh.N, 1, system.m + 1)))
    for opts, U in ((SolverOptions(q=3), sol.U), (SolverOptions(q=1), wide)):
        with pytest.raises(ValueError, match="solution shape does not match system/options"):
            residual(system, mesh, opts, U, *P)


def test_dg_residual_rejects_a_multiplier_of_another_degree():
    system, mesh = build_saddle_dae("stokes3"), build_uniform_mesh(1.0, 2)
    U = solve_constrained(system, mesh, SolverOptions(q=1)).U
    P = solve_constrained(system, mesh, SolverOptions(q=2)).P
    with pytest.raises(ValueError, match="solution shape does not match system/options"):
        dg_residual(system, mesh, SolverOptions(q=1), U, P)


def test_dg_residual_constrained_path():
    system = build_heat_1d(3)
    mesh = build_uniform_mesh(1.0, 4)
    opts = SolverOptions(q=2)
    sol = solve_constrained(system, mesh, opts)
    res = dg_residual(system, mesh, opts, sol.U)
    assert res.max() <= 1e-10


def test_constraint_residual_vanishes_with_projection():
    for system in (build_saddle_dae("stokes3"), build_heat_1d(3)):
        mesh = build_uniform_mesh(1.0, 5)
        opts = SolverOptions(q=2, use_projection=True)
        sol = solve_constrained(system, mesh, opts)
        res = constraint_residual(system, mesh, opts, sol.U)
        assert res.max() <= 1e-12


def test_constraint_residual_order_k_q_without_projection():
    # with raw-moment data the discrete constraint misses the projected
    # data by O(k^q), clearly visible at coarse resolution
    system = build_saddle_dae("stokes3")
    mesh = build_uniform_mesh(1.0, 4)
    opts = SolverOptions(q=2, use_projection=False)
    sol = solve_mixed(system, mesh, opts)
    res = constraint_residual(system, mesh, opts, sol.U)
    assert res.max() > 1e-5


def _constraint_configurations():
    """One system per constraint configuration: none, B1, B2, both, and the two presets."""
    combined = _random_system(11, "combined", 5, 2)
    return {"none": _random_system(11, "spd", 4, 1), "B1": _random_system(11, "saddle", 4, 2),
            "B2": replace(combined, B1=None, g1=None, normQ1=None), "both": combined,
            "stokes3": build_saddle_dae("stokes3"), "heat1d": build_heat_1d(6)}


_RANDOM_MESH = TimeMesh(np.r_[0.0, np.cumsum([0.3, 0.7, 0.45, 0.2, 0.9])])


@pytest.mark.parametrize("use_projection", [True, False])
@pytest.mark.parametrize("name", ["none", "B1", "B2", "both", "stokes3", "heat1d"])
def test_constraint_residual_is_the_gap_to_the_projected_data_block_by_block(name,
                                                                            use_projection):
    system, mesh = _constraint_configurations()[name], _RANDOM_MESH
    opts = SolverOptions(q=3, use_projection=use_projection)
    U = solve_constrained(system, mesh, opts).U
    res = constraint_residual(system, mesh, opts, U)
    spec = ProjectionSpec(opts.q, opts.quadrature())
    expected = np.zeros(mesh.N)
    for B, g in ((system.B1, system.g1), (system.B2, system.g2)):
        if B.shape[0]:
            d = project_broken(g, mesh, B.shape[0], spec).coeffs
            expected = np.maximum(expected, np.abs(U.coeffs @ B.T - d).max(axis=(1, 2)))
    if not system.r1 + system.r2:
        assert np.array_equal(res, np.zeros(mesh.N))
    np.testing.assert_allclose(res, expected, rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("field", ["g1", "g2"])
def test_dg_residual_flags_a_perturbation_of_either_constraint_block(field):
    system, mesh, opts = _constraint_configurations()["both"], _RANDOM_MESH, SolverOptions(q=3)
    sol = solve_constrained(system, mesh, opts)
    assert dg_residual(system, mesh, opts, sol.U, sol.P).max() <= 1e-12
    g = getattr(system, field)
    # vanishes at t = 0, so u0 stays compatible with the perturbed data
    bent = replace(system, **{field: lambda t: g(t) + 1e-3 * np.asarray(t)})
    assert dg_residual(bent, mesh, opts, sol.U, sol.P).min() > 1e-5


def _checked(system, calls, mesh, opts, U, P):
    """[(dg_residual, calls), (constraint_residual, calls)] of U, with the data calls of each."""
    out = []
    for check, extra in ((dg_residual, (P,)), (constraint_residual, ())):
        calls.clear()
        out.append((check(system, mesh, opts, U, *extra), Counter(calls)))
    return out


def _sampling_calls(system, calls, mesh, opts):
    """The data calls of each check's own data stage: its _slab_data, its projected C."""
    slabs, out = _Slabs.of([mesh]), []
    for sample in (lambda: dgsolver._slab_data(system, slabs, [opts]),
                   lambda: dgsolver._constraint_data(system, slabs, [SolverOptions(opts.q)])):
        calls.clear()
        sample()
        out.append(Counter(calls))
    return out


@pytest.mark.parametrize("use_projection", [True, False])
@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("name", ["none", "B1", "B2", "both", "stokes3", "heat1d"])
def test_checks_of_a_solved_U_reuse_its_data_bit_for_bit(name, q, use_projection):
    counted, calls = _counting(_constraint_configurations()[name])
    mesh, opts = _RANDOM_MESH, SolverOptions(q=q, use_projection=use_projection)
    sol = solve_constrained(counted, mesh, opts)
    solved = _checked(counted, calls, mesh, opts, sol.U, sol.P)
    # a copy of the coefficients has no solve behind it, so it samples afresh
    fresh = _checked(counted, calls, mesh, opts, BrokenFunction(mesh, sol.U.coeffs), sol.P)
    dg_calls, cr_calls = _sampling_calls(counted, calls, mesh, opts)
    assert all(np.array_equal(a, b) for (a, _), (b, _) in zip(solved, fresh))
    assert [c for _, c in fresh] == [dg_calls, cr_calls] and sum(dg_calls.values()) > 0
    # constraint_residual compares with the projected data, which only a
    # solve with the projection on has sampled
    assert [c for _, c in solved] == [Counter(), Counter() if use_projection else cr_calls]


@pytest.mark.parametrize("case", ["replaced system", "switch on to off", "switch off to on",
                                  "perturbed U"])
@pytest.mark.parametrize("name", ["both", "heat1d"])
def test_checks_sample_afresh_unless_system_options_and_U_are_the_solves(name, case):
    counted, calls = _counting(_constraint_configurations()[name])
    mesh, opts = _RANDOM_MESH, SolverOptions(q=2, use_projection=case != "switch off to on")
    sol = solve_constrained(counted, mesh, opts)
    system, U = counted, sol.U
    if case == "replaced system":
        g = counted.g2
        # vanishes at t = 0, so u0 stays compatible with the perturbed data
        system = replace(counted, g2=lambda t: g(t) + 1e-3 * np.asarray(t))
    elif case.startswith("switch"):
        opts = replace(opts, use_projection=not opts.use_projection)
    else:
        bad = sol.U.coeffs.copy()
        bad[2, 1, 0] += 1e-3
        U = BrokenFunction(mesh, bad)
    checked = _checked(system, calls, mesh, opts, U, sol.P)
    fresh = _checked(system, calls, mesh, opts, BrokenFunction(mesh, U.coeffs), sol.P)
    assert all(np.array_equal(a, b) for (a, _), (b, _) in zip(checked, fresh))
    assert [c for _, c in checked] == _sampling_calls(system, calls, mesh, opts)
    if case in ("replaced system", "perturbed U"):
        assert checked[0][0].max() > 1e-5


def test_a_solved_U_pickles_and_keeps_neither_itself_nor_its_system_alive():
    system, mesh, opts = build_heat_1d(3), build_uniform_mesh(1.0, 4), SolverOptions(q=2)
    U = solve_constrained(system, mesh, opts).U
    back = pickle.loads(pickle.dumps(U))
    assert np.array_equal(dg_residual(system, mesh, opts, back), dg_residual(system, mesh, opts, U))
    solved, built = weakref.ref(U), weakref.ref(system)
    del system
    gc.collect()
    assert built() is None
    del U
    gc.collect()
    assert solved() is None


# ---------------------------------------------------------------------------
# the projection switch


def test_switch_is_invisible_for_polynomial_constraint_data():
    # g1 of degree <= q-1: endpoint-interpolating projection, plain L2
    # projection, and raw moments all agree, so the two solver variants
    # must produce identical coefficients.
    system = _poly_saddle(2)
    mesh = build_uniform_mesh(1.0, 4)
    on = solve_mixed(system, mesh, SolverOptions(q=2, use_projection=True))
    off = solve_mixed(system, mesh, SolverOptions(q=2, use_projection=False))
    scale = 1.0 + np.abs(on.U.coeffs).max()
    assert np.abs(on.U.coeffs - off.U.coeffs).max() <= 1e-12 * scale
    assert np.abs(on.P.coeffs - off.P.coeffs).max() <= 1e-12 * scale


def test_switch_changes_solution_for_general_data():
    system = build_saddle_dae("stokes3")
    mesh = build_uniform_mesh(1.0, 4)
    on = solve_mixed(system, mesh, SolverOptions(q=2, use_projection=True))
    off = solve_mixed(system, mesh, SolverOptions(q=2, use_projection=False))
    assert np.abs(on.U.coeffs - off.U.coeffs).max() > 1e-6


# ---------------------------------------------------------------------------
# combined constraint blocks (B1 and B2 together)


def _combined_system():
    # explicit constraint pins u_3 = t^2, a multiplier enforces u_1 + u_2 = 1
    A = _STOKES3_A
    exact_u = lambda t: np.array([t, 1.0 - t, t * t])
    exact_du = lambda t: np.array([1.0, -1.0, 2.0 * t])
    exact_p = lambda t: np.array([1.0 + t])
    B1 = np.array([[1.0, 1.0, 0.0]])
    B2 = np.array([[0.0, 0.0, 1.0]])

    def f(t):
        return exact_du(t) + A @ exact_u(t) + B1.T @ exact_p(t)

    return ConstrainedSystem(
        M=np.eye(3), A=A, f=f, u0=exact_u(0.0),
        B1=B1, g1=lambda t: B1 @ exact_u(t),
        B2=B2, g2=lambda t: np.array([t * t]),
        exact_u=exact_u, exact_p=exact_p, name="combined")


def test_combined_blocks_polynomial_exactness():
    system = _combined_system()
    mesh = build_uniform_mesh(1.0, 3)
    opts = SolverOptions(q=3)
    sol = solve_constrained(system, mesh, opts)
    eu, ep = _solution_errors(sol, system, np.linspace(0.1, 1.0, 7))
    assert eu <= 1e-11
    assert ep <= 1e-10
    res = dg_residual(system, mesh, opts, sol.U, sol.P)
    assert res.max() <= 1e-10


def test_combined_blocks_monolithic_agreement():
    system = _combined_system()
    mesh = build_uniform_mesh(1.0, 3)
    opts = SolverOptions(q=2)
    seq = solve_constrained(system, mesh, opts)
    mono = solve_monolithic(system, mesh, opts)
    scale = 1.0 + np.abs(seq.U.coeffs).max()
    assert np.abs(seq.U.coeffs - mono.U.coeffs).max() <= 1e-11 * scale
    assert np.abs(seq.P.coeffs - mono.P.coeffs).max() <= 1e-11 * scale


# ---------------------------------------------------------------------------
# failure modes


def test_singular_slab_system_raises_with_slab_index():
    system = ConstrainedSystem(M=np.zeros((1, 1)), A=np.zeros((1, 1)),
                               f=lambda t: np.zeros(1), u0=np.zeros(1))
    with pytest.raises(SlabSolveError) as err:
        solve_mixed(system, build_uniform_mesh(1.0, 2), SolverOptions(q=1))
    assert err.value.slab == 1
    assert "slab 1" in str(err.value)


def test_singular_modal_block_raises_with_slab_index():
    # q = 1 blocks are 1 + k sigma with sigma = -2: slabs with k = 0.5 are
    # singular, and the first of them is the second slab, also when the
    # singular width recurs and its slabs share one block
    system = ConstrainedSystem(M=np.eye(1), A=-2.0 * np.eye(1),
                               f=lambda t: np.zeros(1), u0=np.ones(1))
    for widths in ([0.3, 0.5, 0.2], [0.3, 0.5, 0.2, 0.5]):
        mesh = TimeMesh(np.cumsum([0.0] + widths))
        assert mesh.widths[1] == 0.5
        for solve in (solve_mixed, solve_monolithic):
            with pytest.raises(SlabSolveError) as err:
                solve(system, mesh, SolverOptions(q=1))
            assert err.value.slab == 2


def test_rank_deficient_weak_constraint_raises_on_the_first_slab():
    system = ConstrainedSystem(M=np.eye(2), A=np.eye(2), f=lambda t: np.zeros(2),
                               u0=np.zeros(2), B1=np.array([[1.0, 0.0], [2.0, 0.0]]),
                               g1=lambda t: np.zeros(2))
    with pytest.raises(SlabSolveError) as err:
        solve_mixed(system, build_uniform_mesh(1.0, 2), SolverOptions(q=2))
    assert err.value.slab == 1


def test_numerically_dependent_weak_constraint_rows_raise_on_the_first_slab():
    # singular values 1.4 and 7e-14: below the shared relative rank rule
    system = ConstrainedSystem(M=np.eye(3), A=np.eye(3), f=lambda t: np.zeros(3),
                               u0=np.zeros(3), B1=np.array([[1.0, 0.0, 0.0], [1.0, 1e-13, 0.0]]),
                               g1=lambda t: np.zeros(2))
    with pytest.raises(SlabSolveError) as err:
        solve_mixed(system, build_uniform_mesh(1.0, 2), SolverOptions(q=2))
    assert err.value.slab == 1


def test_uniformly_small_weak_constraint_is_solved():
    # B1 = 1e-13 [1, 1, 1] has full row rank relative to its own scale; with
    # the multiplier scaled by 1e13 the solution is stokes3's
    u, du, p = _stokes3_handles()
    small = build_saddle_dae(M=np.eye(3), A=_STOKES3_A, B1=np.full((1, 3), 1e-13),
                             exact_u=u, exact_du=du, exact_p=lambda t: 1e13 * p(t))
    mesh, opts = build_uniform_mesh(1.0, 8), SolverOptions(q=3)
    ref = solve_mixed(build_saddle_dae("stokes3"), mesh, opts)
    sol = solve_mixed(small, mesh, opts)
    assert np.abs(sol.U.coeffs - ref.U.coeffs).max() <= 1e-12 * np.abs(ref.U.coeffs).max()
    assert np.abs(1e-13 * sol.P.coeffs - ref.P.coeffs).max() <= 1e-12 * np.abs(ref.P.coeffs).max()


def test_stiffness_unsymmetric_only_in_an_eliminated_row_is_solved():
    # A Dirichlet row: A is symmetric on ker B2, where the solver uses it
    A = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, 0.0, 1.0]])
    B2 = np.array([[0.0, 0.0, 1.0]])
    system = ConstrainedSystem(
        M=np.eye(3), A=A, f=lambda t: np.multiply.outer([1.0, 0.0, 2.0], np.cos(np.asarray(t))),
        u0=np.array([1.0, 0.0, 0.0]), B2=B2, g2=lambda t: np.multiply.outer([1.0], np.sin(t)))
    mesh, opts = TimeMesh(np.array([0.0, 0.2, 0.5, 0.6, 1.0])), SolverOptions(q=3)
    seq, mono = solve_constrained(system, mesh, opts), solve_monolithic(system, mesh, opts)
    assert np.abs(seq.U.coeffs - mono.U.coeffs).max() <= 1e-11 * np.abs(mono.U.coeffs).max()


def _zero(dim):
    return lambda t: np.zeros((dim,) + np.shape(t))


def _dirichlet_row_system():
    """A is unsymmetric only in the row of the component B2 fixes."""
    return ConstrainedSystem(
        M=np.eye(3), A=np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, 0.0, 1.0]]),
        f=lambda t: np.multiply.outer([1.0, 0.0, 2.0], np.cos(np.asarray(t))),
        u0=np.array([1.0, 0.0, 0.0]), B2=np.array([[0.0, 0.0, 1.0]]),
        g2=lambda t: np.multiply.outer([1.0], np.sin(t)))


def _rank_deficient_b2_system():
    """B2 = [[1, 0, 0], [2, 0, 0]] has rank 1 in two rows."""
    return ConstrainedSystem(M=np.eye(3), A=np.eye(3), f=_zero(3), u0=np.zeros(3),
                             B2=np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]), g2=_zero(2))


# hand-built systems on both sides of the structural rules, and whether they pass
_HAND_BUILT = {
    "rank-deficient B1": (False, lambda: ConstrainedSystem(
        M=np.eye(2), A=np.eye(2), f=_zero(2), u0=np.zeros(2),
        B1=np.array([[1.0, 0.0], [2.0, 0.0]]), g1=_zero(2))),
    "dependent B1": (False, lambda: ConstrainedSystem(
        M=np.eye(3), A=np.eye(3), f=_zero(3), u0=np.zeros(3),
        B1=np.array([[1.0, 0.0, 0.0], [1.0, 1e-13, 0.0]]), g1=_zero(2))),
    "rank-deficient B2": (False, _rank_deficient_b2_system),
    "B2 fixes every component": (True, lambda: ConstrainedSystem(
        M=np.eye(2), A=np.eye(2), f=_zero(2), u0=np.zeros(2), B2=np.eye(2), g2=_zero(2))),
    "B2 with more rows than m": (False, lambda: ConstrainedSystem(
        M=np.eye(2), A=np.eye(2), f=_zero(2), u0=np.zeros(2),
        B2=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), g2=_zero(3))),
    "Dirichlet row": (True, _dirichlet_row_system),
    "M indefinite off the kernel": (True, lambda: ConstrainedSystem(
        M=np.diag([1.0, -1.0]), A=np.eye(2), f=_zero(2), u0=np.zeros(2),
        B2=np.array([[0.0, 1.0]]), g2=_zero(1))),
}
# the checks of the rules the march itself relies on
_KERNEL_CHECKS = {"constraint row rank", "kernel mass SPD", "kernel stiffness symmetric"}


def test_rank_deficient_explicit_constraint_raises_on_the_first_slab():
    # no solver or oracle may turn the missing right inverse of [B1; B2] into NaN;
    # the oracle's slab matrix is singular, the others apply the march's rank rule
    mesh, opts = build_uniform_mesh(1.0, 2), SolverOptions()
    for case in ("rank-deficient B2", "dependent B1", "B2 with more rows than m"):
        system = _HAND_BUILT[case][1]()
        U = BrokenFunction(mesh, np.zeros((mesh.N, opts.q, system.m)))
        P = BrokenFunction(mesh, np.zeros((mesh.N, opts.q, system.r1))) if system.r1 else None
        for run in (lambda: solve_constrained(system, mesh, opts),
                    lambda: solve_monolithic(system, mesh, opts),
                    lambda: dg_residual(system, mesh, opts, U, P),
                    # what MixedSolution.condition_estimates reads
                    lambda: dgsolver._conditions(system, opts.q, mesh.widths)):
            with pytest.raises(SlabSolveError) as err:
                run()
            assert err.value.slab == 1, case


def _reduces(system) -> bool:
    try:
        dgsolver._modes(system)
    except (ValueError, SlabSolveError):
        return False
    return True


def _with_defect(system, defect, seed):
    """system with A or M unsymmetric, or M negative definite, everywhere."""
    E = np.random.default_rng(seed).standard_normal((system.m, system.m))
    if defect == "A unsymmetric":
        return replace(system, A=system.A + 0.5 * (E - E.T))
    if defect == "M unsymmetric":
        return replace(system, M=system.M + 0.5 * (E - E.T))
    if defect == "M indefinite":
        return replace(system, M=system.M - 4.0 * np.eye(system.m))
    return system


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["spd", "saddle", "combined"]),
       m=st.integers(2, 6), r1=st.integers(1, 2),
       defect=st.sampled_from([None, "A unsymmetric", "M unsymmetric", "M indefinite",
                               *_HAND_BUILT]),
       widths=st.lists(st.floats(0.2, 1.0), min_size=1, max_size=6), q=st.integers(1, 3))
def test_validator_agrees_with_the_solvers_reduction(seed, kind, m, r1, defect, widths, q):
    if defect in _HAND_BUILT:
        system = _HAND_BUILT[defect][1]()
    else:
        system = _with_defect(_random_system(seed, kind, m, r1), defect, seed)
    report = validate_system(system)
    assert all(c.ok for c in report.checks if c.name in _KERNEL_CHECKS) == _reduces(system)
    # one way only: A = 0 fails ellipticity, yet the march solves it
    if report.passed:
        sol = solve_constrained(system, TimeMesh(np.r_[0.0, np.cumsum(widths)]),
                                SolverOptions(q=q))
        assert np.isfinite(sol.U.coeffs).all()


@pytest.mark.parametrize("case", sorted(_HAND_BUILT))
def test_validator_verdict_on_hand_built_systems(case):
    passes, build = _HAND_BUILT[case]
    system = build()
    assert validate_system(system).passed == passes == _reduces(system)


def test_nonsymmetric_stiffness_is_rejected():
    system = ConstrainedSystem(M=np.eye(2), A=np.array([[1.0, 0.5], [0.0, 1.0]]),
                               f=lambda t: np.zeros(2), u0=np.ones(2))
    with pytest.raises(ValueError, match="A is not symmetric"):
        solve_mixed(system, build_uniform_mesh(1.0, 2), SolverOptions(q=2))


def test_overflowing_solution_raises_with_slab_index():
    # finite data whose solution leaves the float range on the second slab:
    # u' = 1e308 from u0 = 1e308; with q = 1, U is 1.5e308 on the first
    # slab and 2e308 on the second
    system = ConstrainedSystem(M=np.eye(1), A=np.zeros((1, 1)),
                               f=lambda t: np.full((1,) + np.shape(t), 1e308),
                               u0=np.array([1e308]))
    with pytest.raises(SlabSolveError) as err:
        solve_mixed(system, build_uniform_mesh(1.0, 2), SolverOptions(q=1))
    assert err.value.slab == 2
    assert "non-finite" in str(err.value)


def _overflowing_saddle(f1: float, t0: float) -> ConstrainedSystem:
    """u1' = f1 from u1(0) = 1e308 beside the constraint u2 = g1 with finite data.

    g1 is 1.7e308 at exactly t0 and -1.7e308 elsewhere, so with q = 1 the
    multiplier jumps out of the float range on the slab ending at t0 and on
    the slab after it, while u2 = g1 stays finite.  With f1 = 1e308 the
    state u1 = 1e308 (1 + t_n) leaves the float range once t_n > 0.8.
    """
    zero = lambda t: 0.0 * np.asarray(t, dtype=float)
    return ConstrainedSystem(
        M=np.eye(2), A=np.zeros((2, 2)), B1=np.array([[0.0, 1.0]]),
        f=lambda t: np.array([f1 + zero(t), zero(t)]),
        g1=lambda t: np.where(np.asarray(t) == t0, 1.7e308, -1.7e308)[None],
        u0=np.array([1e308, -1.7e308]), exact_u=lambda t: np.array([zero(t), zero(t)]))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("f1, t0, slab", [
    (0.0, 0.375, 3),   # only P leaves the float range, from slab 3 on
    (1e308, 0.375, 3),  # P from slab 3, U from slab 7
    (1e308, 2.0, 7),   # U, and P with it, from slab 7 (t_7 = 0.875)
], ids=["multiplier", "multiplier-first", "state"])
def test_an_overflow_beside_a_multiplier_names_its_first_slab(f1, t0, slab):
    system = _overflowing_saddle(f1, t0)
    with pytest.raises(SlabSolveError, match=f"slab {slab}: non-finite solution") as err:
        solve_constrained(system, build_uniform_mesh(1.0, 8), SolverOptions(q=1))
    assert err.value.slab == slab
    # on the first slabs, before the overflow, U and P are finite
    sol = solve_constrained(system, build_uniform_mesh(1.0 * (slab - 1) / 8, slab - 1),
                            SolverOptions(q=1))
    assert np.isfinite(sol.U.coeffs).all() and np.isfinite(sol.P.coeffs).all()


def test_nonfinite_forcing_raises_data_error():
    system = ConstrainedSystem(M=np.eye(1), A=np.eye(1),
                               f=lambda t: np.array([np.nan]), u0=np.zeros(1))
    with pytest.raises(DataError):
        solve_mixed(system, build_uniform_mesh(1.0, 2), SolverOptions(q=2))


# ---------------------------------------------------------------------------
# condition estimates (exact 1-norm conditions, from one solve per slab width)


def _exact_slab_conditions(system, mesh, q):
    """1-norm condition of every full-space saddle slab matrix, assembled here from scratch."""
    B = np.vstack([system.B1, system.B2])  # a multiplier for each constraint row
    out = []
    for k in mesh.widths:
        Dmat, Smat, _ = assemble_temporal_matrices(q, k)
        K = np.kron(Dmat, system.M) + np.kron(Smat, system.A)
        if B.shape[0]:
            nc = q * B.shape[0]
            K = np.block([[K, np.kron(Smat, B.T)],
                          [np.kron(Smat, B), np.zeros((nc, nc))]])
        out.append(np.linalg.cond(K, 1))
    return np.array(out)


@pytest.mark.parametrize("problem", ["stokes3", "heat1d"])
@pytest.mark.parametrize("q", [1, 2, 3])
def test_condition_estimates_bound_exact_condition(problem, q):
    system = build_saddle_dae("stokes3") if problem == "stokes3" else build_heat_1d(3)
    mesh = TimeMesh(np.array([0.0, 0.3, 0.5, 0.7, 1.0]))
    est = solve_constrained(system, mesh, SolverOptions(q=q)).condition_estimates
    exact = _exact_slab_conditions(system, mesh, q)
    assert np.all(exact / 10.0 <= est)
    assert np.all(est <= exact * (1.0 + 1e-8))
    # the oracle's estimates are per slab too, read from the factors it solves with
    mono = solve_monolithic(system, mesh, SolverOptions(q=q)).condition_estimates
    np.testing.assert_allclose(mono, est, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("problem", ["stokes3", "heat1d"])
def test_the_oracle_inverts_once_per_distinct_width_and_solves_nothing(problem):
    system = build_saddle_dae("stokes3") if problem == "stokes3" else build_heat_1d(3)
    mesh = TimeMesh(np.cumsum([0.0, 0.25, 0.5, 0.25, 0.125, 0.5, 0.125]))
    assert np.unique(mesh.widths).size == 3
    with mock.patch.object(np.linalg, "inv", wraps=np.linalg.inv) as inv, \
            mock.patch.object(np.linalg, "solve", side_effect=AssertionError("np.linalg.solve")):
        sol = solve_monolithic(system, mesh, SolverOptions(q=2))
        sol.condition_estimates
    assert inv.call_count == 3


# ---------------------------------------------------------------------------
# data sampling: one call per field, typed errors naming field and slab


def _scalar_only(fn):
    def call(t):
        if np.ndim(t):
            raise TypeError("scalar times only")
        return fn(t)
    return call


def _with_scalar_only_data(system):
    return replace(system, **{name: _scalar_only(getattr(system, name))
                              for name in ("f", "g1", "g2") if getattr(system, name)})


def _nan_after(fn, t0):
    """fn with NaN data for t > t0, evaluable at one time or an array of times."""
    return lambda t: fn(t) + np.where(np.asarray(t) > t0, np.nan, 0.0)


def _bad_data_cases():
    st3, heat = build_saddle_dae("stokes3"), build_heat_1d(3)
    return [
        (replace(st3, g1=_nan_after(st3.g1, 0.6)), "non-finite g1 data on slab 3"),
        (replace(st3, g1=_scalar_only(_nan_after(st3.g1, 0.6))), "non-finite g1 data on slab 3"),
        (replace(st3, f=lambda t: np.zeros(2)), "f returned shape (2,) on slab 1, expected (3,)"),
        (replace(heat, g2=_nan_after(heat.g2, 0.6)), "non-finite g2 data on slab 3"),
        (replace(heat, f=_scalar_only(lambda t: np.zeros(2))),
         "f returned shape (2,) on slab 1, expected (7,)"),
        (replace(heat, f=_nan_after(heat.f, 0.3)), "non-finite f data on slab 2"),
    ]


@pytest.mark.parametrize("case", range(6))
@pytest.mark.parametrize("use_projection", [True, False])
def test_bad_data_raises_data_error_naming_field_and_slab(case, use_projection):
    system, message = _bad_data_cases()[case]
    with pytest.raises(DataError, match=re.escape(message)):
        solve_constrained(system, build_uniform_mesh(1.0, 4),
                          SolverOptions(q=2, use_projection=use_projection))


@settings(max_examples=40, deadline=None)
@given(widths=st.lists(st.floats(0.2, 1.0), min_size=1, max_size=8),
       q=st.integers(1, 4), use_projection=st.booleans(),
       problem=st.sampled_from(["stokes3", "heat1d"]))
@example(widths=[1.0] * 7, q=1, use_projection=False, problem="stokes3")  # P reaches 694
def test_scalar_only_data_matches_vectorized_data(widths, q, use_projection, problem):
    system = build_saddle_dae("stokes3") if problem == "stokes3" else build_heat_1d(3)
    mesh = TimeMesh(np.r_[0.0, np.cumsum(widths)])
    opts = SolverOptions(q=q, use_projection=use_projection)
    vec = solve_constrained(system, mesh, opts)
    ref = solve_constrained(_with_scalar_only_data(system), mesh, opts)
    # numpy's array and scalar sin/exp may differ in the last bit, so the
    # bound is relative to the coefficients' size once that exceeds 1
    for a, b in ((vec.U, ref.U), (vec.P, ref.P)):
        if b is not None:
            assert np.abs(a.coeffs - b.coeffs).max() <= 1e-13 * max(1.0, np.abs(b.coeffs).max())


def _counting(system, fields=("f", "g1", "g2")):
    """system with its callables in fields wrapped, and the calls of each, by field."""
    calls = Counter()

    def wrap(name, fn):
        def call(t):
            calls[name] += 1
            return fn(t)
        return call

    return replace(system, **{name: wrap(name, getattr(system, name))
                              for name in fields if getattr(system, name)}), calls


@pytest.mark.parametrize("problem", ["stokes3", "heat1d"])
@pytest.mark.parametrize("use_projection", [True, False])
def test_data_calls_per_solve_do_not_grow_with_N(problem, use_projection):
    system = build_saddle_dae("stokes3") if problem == "stokes3" else build_heat_1d(3)
    counts = []
    for N in (16, 512):
        counted, calls = _counting(system)
        solve_constrained(counted, build_uniform_mesh(1.0, N),
                          SolverOptions(q=3, use_projection=use_projection))
        counts.append(calls)
    assert counts[0] == counts[1]


@pytest.mark.parametrize("problem, field", [("stokes3", "g1"), ("heat1d", "g2")])
def test_projected_constraint_data_is_sampled_in_one_call(problem, field):
    counted, calls = _counting(_BUILDERS[problem]())
    calls.clear()  # building the system checks u0 against g1 and g2 at t = 0
    solve_constrained(counted, build_uniform_mesh(1.0, 16), SolverOptions(q=3))
    assert calls[field] == 2  # one array call over the nodes and right ends, and its probe


def test_preset_data_is_sampled_in_one_call(tmp_path):
    path = tmp_path / "presets.json"
    path.write_text(json.dumps({
        "M": [[1.0, 0.0], [0.0, 1.0]], "A": [[2.0, 0.0], [0.0, 1.0]], "u0": [1.0, 0.0],
        "B1": [[1.0, 0.0]], "f": ["sin4t", "zero"], "g1": "const1",
    }))
    system = load_system(path)
    counts = []
    for N in (16, 512):
        counted, calls = _counting(system)
        solve_mixed(counted, build_uniform_mesh(1.0, N), SolverOptions(q=2))
        counts.append(calls)
    assert counts[0] == counts[1]


# ---------------------------------------------------------------------------
# marching in the spatial eigenbasis: one eigh per system, no slab matrix solve


def _eigh_and_factor_calls(build, mesh, q):
    # build_saddle_dae reduces the system it builds, so the count starts before it
    with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh, \
            mock.patch.object(dgsolver, "_width_inverses",
                              wraps=dgsolver._width_inverses) as factor:
        solve_constrained(build(), mesh, SolverOptions(q=q))
    return eigh.call_count, factor.call_count


@settings(max_examples=30, deadline=None)
@given(T=st.floats(1e-3, 10.0), N=st.integers(1, 3000), q=st.integers(1, 3))
@example(T=1.0, N=25, q=2)
@example(T=1.0, N=1000, q=1)
@example(T=1.0, N=3000, q=1)
@example(T=1.0, N=100000, q=1)
def test_uniform_mesh_solve_calls_eigh_once_and_never_factors(T, N, q):
    calls = _eigh_and_factor_calls(lambda: build_saddle_dae("stokes3"), build_uniform_mesh(T, N), q)
    assert calls == (1, 0)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), N=st.integers(1, 30),
       problem=st.sampled_from(["stokes3", "heat1d"]))
def test_random_mesh_solve_calls_eigh_once_and_never_factors(seed, N, problem):
    build = {"stokes3": lambda: build_saddle_dae("stokes3"), "heat1d": lambda: build_heat_1d(3)}
    widths = np.random.default_rng(seed).uniform(0.2, 1.0, N)
    assert _eigh_and_factor_calls(build[problem], TimeMesh(np.r_[0.0, np.cumsum(widths)]), 2) == (1, 0)


def test_uniform_mesh_with_unequal_float_widths_keeps_the_constraint_exact():
    # The widths of this uniform mesh span several floats; every slab's
    # constraint rows must be scaled by the width its blocks are built at.
    system = build_saddle_dae("stokes3")
    mesh, opts = build_uniform_mesh(1.0, 1000), SolverOptions(q=2)
    assert np.unique(mesh.widths).size > 1
    sol = solve_mixed(system, mesh, opts)
    assert constraint_residual(system, mesh, opts, sol.U).max() <= 1e-14


# ---------------------------------------------------------------------------
# the spatial reduction is computed once per system and kept on it


_BUILDERS = {"stokes3": lambda: build_saddle_dae("stokes3"), "heat1d": lambda: build_heat_1d(4)}


def _solution_arrays(system, mesh, opts):
    sol = solve_constrained(system, mesh, opts)
    P = None if sol.P is None else sol.P.coeffs
    return sol.U.coeffs, P, dg_residual(system, mesh, opts, sol.U, sol.P)


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("problem", sorted(_BUILDERS))
def test_repeated_solve_is_bitwise_equal_to_a_fresh_system(problem, q):
    system, mesh = _BUILDERS[problem](), build_uniform_mesh(1.0, 12)
    for use_projection in (True, False):
        opts = SolverOptions(q=q, use_projection=use_projection)
        first = _solution_arrays(system, mesh, opts)
        again = _solution_arrays(system, mesh, opts)
        fresh = _solution_arrays(_BUILDERS[problem](), mesh, opts)
        for a, b, c in zip(first, again, fresh):
            if a is None:
                assert b is None and c is None
                continue
            np.testing.assert_array_equal(b, a)
            np.testing.assert_array_equal(c, a)


@pytest.mark.parametrize("problem", sorted(_BUILDERS))
def test_study_on_one_system_calls_eigh_once(problem):
    with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
        system = _BUILDERS[problem]()
        for use_projection in (True, False):
            run_study(system, 2, [4, 8, 16, 32, 64], use_projection=use_projection)
        # the validator reads the same kept eigenbasis
        assert validate_system(system).passed
    assert eigh.call_count == 1


def _svd_calls(svd):
    """(full SVDs, singular-value-only SVDs) among the calls a wrapped np.linalg.svd saw."""
    values_only = sum(call.kwargs.get("compute_uv") is False for call in svd.call_args_list)
    return svd.call_count - values_only, values_only


def test_validator_and_solves_share_one_svd():
    system, mesh = build_heat_1d(4), build_uniform_mesh(1.0, 4)
    with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
        assert validate_system(system).passed
        for q in (1, 2):
            solve_constrained(system, mesh, SolverOptions(q=q))
    assert _svd_calls(svd) == (1, 0)


def test_saddle_builder_validator_and_solves_share_one_svd():
    mesh = build_uniform_mesh(1.0, 4)
    with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
        system = build_saddle_dae("stokes3")
        assert validate_system(system).passed
        for q in (1, 2):
            solve_constrained(system, mesh, SolverOptions(q=q))
    # the one singular-value-only SVD is the validator's inf-sup value, read
    # from the full one
    assert _svd_calls(svd) == (1, 1)


def test_oracle_needs_no_svd_and_the_rest_share_one():
    system, mesh = _random_system(5, "combined", 4, 1), build_uniform_mesh(1.0, 4)
    assert system.r1 and system.r2
    with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
        mono = solve_monolithic(system, mesh, SolverOptions(q=2))
        mono.condition_estimates
        assert svd.call_count == 0
        assert "_reduction" not in system.__dict__
        assert validate_system(system).passed
        for q in (1, 2):
            sol = solve_constrained(system, mesh, SolverOptions(q=q))
        dg_residual(system, mesh, SolverOptions(q=2), sol.U, sol.P)
    assert _svd_calls(svd)[0] == 1


def test_replaced_system_reduces_afresh():
    system, mesh, opts = build_saddle_dae("stokes3"), build_uniform_mesh(1.0, 8), SolverOptions()
    U = solve_constrained(system, mesh, opts).U.coeffs
    A = _STOKES3_A + np.diag([1.0, 2.0, 3.0])
    replaced = replace(system, A=A)
    sigma, sigma_new = dgsolver._modes(system).sigma, dgsolver._modes(replaced).sigma
    assert not np.array_equal(sigma_new, sigma)
    U_new = solve_constrained(replaced, mesh, opts).U.coeffs
    built = replace(build_saddle_dae("stokes3"), A=A)  # never solved before
    np.testing.assert_array_equal(U_new, solve_constrained(built, mesh, opts).U.coeffs)
    assert not np.array_equal(U_new, U)


@pytest.mark.parametrize("case", [
    "rank-deficient B1", "dependent B1", "rank-deficient B2", "A unsymmetric",
    "M indefinite on the kernel"])
def test_failed_reduction_raises_the_same_error_on_every_call(case):
    builders = {
        **{name: build for name, (_, build) in _HAND_BUILT.items()},
        "A unsymmetric": lambda: ConstrainedSystem(
            M=np.eye(2), A=np.array([[1.0, 1.0], [0.0, 1.0]]), f=_zero(2), u0=np.zeros(2)),
        "M indefinite on the kernel": lambda: ConstrainedSystem(
            M=np.diag([1.0, -1.0]), A=np.eye(2), f=_zero(2), u0=np.zeros(2)),
    }
    system, mesh = builders[case](), build_uniform_mesh(1.0, 2)
    errors = []
    for _ in range(2):
        with pytest.raises((ValueError, SlabSolveError)) as err:
            solve_constrained(system, mesh, SolverOptions())
        errors.append((type(err.value), str(err.value)))
    assert errors[0] == errors[1]


@pytest.mark.parametrize("problem", sorted(_BUILDERS))
def test_kept_reduction_is_read_only(problem):
    system = _BUILDERS[problem]()
    solve_constrained(system, build_uniform_mesh(1.0, 2), SolverOptions())
    modes = dgsolver._modes(system)
    assert modes is system._reduction
    arrays = [a for a in modes if isinstance(a, np.ndarray)] + [modes.V]
    assert len(arrays) == 11
    # V is the first mw columns of VR, not a second m x mw array
    assert modes.V.base is modes.VR and np.shares_memory(modes.V, modes.VR)
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0


def _arrays(value):
    """Every ndarray in value, looking into tuples."""
    if isinstance(value, np.ndarray):
        return [value]
    return [a for v in value for a in _arrays(v)] if isinstance(value, tuple) else []


@pytest.mark.parametrize("problem", sorted(_BUILDERS) + ["spd", "combined"])
def test_a_solved_and_validated_system_keeps_one_small_value(problem):
    # the reduction keeps no SVD factor vt, no kernel basis Q, no kernel
    # pair and no eigenvectors W: each is m x m or m x mw
    system = _BUILDERS[problem]() if problem in _BUILDERS else _random_system(4, problem, 6, 2)
    mesh, opts = build_uniform_mesh(1.0, 3), SolverOptions()
    sol = solve_constrained(system, mesh, opts)
    dg_residual(system, mesh, opts, sol.U, sol.P)
    assert validate_system(system).passed
    kept = {k: v for k, v in vars(system).items() if k not in {f.name for f in fields(system)}}
    assert list(kept) == ["_reduction"]
    limit = system.m * max(system.r1 + system.r2, 1)
    for a in _arrays(kept["_reduction"]):
        assert not a.flags.writeable
        assert a is kept["_reduction"].VR or a.size <= limit, a.shape


@pytest.mark.parametrize("problem", sorted(_BUILDERS) + ["spd", "combined"])
def test_kept_products_are_the_known_part_tested_with_VR_at_rank_r(problem):
    system = _BUILDERS[problem]() if problem in _BUILDERS else _random_system(4, problem, 6, 2)
    red = dgsolver._modes(system)
    M, A, R, VR, V = system.M, system.A, red.R, red.VR, red.V
    for kept, reference in ((red.RMVR, R.T @ M @ VR), (red.RAVR, R.T @ A @ VR),
                            (red.u0MVR, system.u0 @ M @ VR)):
        assert kept.shape == reference.shape
        scale = np.abs(reference).max(initial=0.0)
        assert np.abs(kept - reference).max(initial=0.0) <= 1e-13 * scale
    # the multiplier's R1^T M V and R1^T A V, kept as they are: RMVR and
    # RAVR hold R1^T M^T V and R1^T A^T V there
    R1 = R[:, :system.r1]
    for kept, reference in ((red.RMV, R1.T @ M @ V), (red.RAV, R1.T @ A @ V)):
        assert kept.shape == reference.shape == (system.r1, red.sigma.size)
        assert not kept.flags.writeable
        np.testing.assert_allclose(kept, reference, rtol=0.0,
                                   atol=1e-13 * np.abs(reference).max(initial=0.0))


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("kind", ["saddle", "combined"])
def test_march_matches_the_oracle_when_A_is_skew_off_the_constraint_kernel(kind, q):
    # K = a c^T - c a^T with a in the row space of [B1; B2] leaves Q^T A Q
    # unchanged, so the system stays valid, but couples R1 and V with
    # R1^T K V = (R1^T a)(V^T c)^T != 0: the multiplier must use R1^T A V,
    # not R1^T A^T V
    system = _random_system(7 + q, kind, 6, 2)
    rng = np.random.default_rng(q)
    B = np.vstack([system.B1, system.B2])
    a, c = B.T @ rng.standard_normal(B.shape[0]), rng.standard_normal(system.m)
    skewed = replace(system, A=system.A + np.outer(a, c) - np.outer(c, a))
    assert validate_system(skewed).passed
    red = dgsolver._modes(skewed)
    R1, V = red.R[:, :skewed.r1], red.V
    assert np.abs(R1.T @ (skewed.A - skewed.A.T) @ V).max() > 0.1
    mesh, opts = TimeMesh(np.r_[0.0, np.cumsum(rng.uniform(0.1, 0.3, 7))]), SolverOptions(q=q)
    seq, mono = solve_constrained(skewed, mesh, opts), solve_monolithic(skewed, mesh, opts)
    assert np.abs(seq.U.coeffs - mono.U.coeffs).max() <= 1e-10 * np.abs(mono.U.coeffs).max()
    assert np.abs(seq.P.coeffs - mono.P.coeffs).max() <= 1e-10 * np.abs(mono.P.coeffs).max()


@pytest.mark.parametrize("q", [1, 2, 3])
def test_no_legendre_table_is_built_twice(q):
    system, mesh = build_saddle_dae("stokes3"), build_uniform_mesh(1.0, 8)

    def solve():
        solve_constrained(system, mesh, SolverOptions(q=q))

    def study():
        analysis._run_studies(system, q, [4, 8], [True, False], ("energy", "nodal", "multiplier"))

    with mock.patch.object(np.polynomial.legendre, "legvander",
                           wraps=np.polynomial.legendre.legvander) as legvander:
        for run in (solve, study):
            run()  # the rules' tables may be built here, once per rule and process
            legvander.reset_mock()
            run()
            assert legvander.call_count == 0, run.__name__


def test_a_rule_keeps_its_read_only_legendre_table():
    for n in range(1, 17):
        quad = gauss_legendre(n)
        table = quad.legendre
        assert table is quad.legendre and not table.flags.writeable
        expected = np.polynomial.legendre.legvander(2.0 * quad.nodes - 1.0, n - 1)
        assert table.shape == (n, n) and table.tobytes() == expected.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0.0


def test_a_rule_with_fewer_points_than_coefficients_still_gives_its_quadrature():
    # the rule's table has too few columns, so such a rule gets a table of
    # its own: the norm is the rule's inexact quadrature, as it always was
    mesh, quad = build_uniform_mesh(1.0, 2), gauss_legendre(2)
    U = BrokenFunction(mesh, np.ones((2, 4, 1)))
    values = np.polynomial.legendre.legvander(2.0 * quad.nodes - 1.0, 3).sum(axis=1)
    expected = math.sqrt(mesh.widths.sum() * (quad.weights @ values ** 2))
    assert error_l2_energy(U, lambda t: 0.0, 1.0, quad) == pytest.approx(expected, rel=1e-14)
    assert quad.legendre.shape == (2, 2)


@pytest.mark.parametrize("problem", ["stokes3", "heat1d", "heat1d-257", "spd", "saddle", "combined"])
def test_kept_eigenbasis_matches_scipys_generalized_eigh(problem):
    # scipy's eigh on its own kernel basis is the reference, so the check
    # holds whatever basis of ker [B1; B2] the library uses; the library
    # itself needs numpy only.  heat1d's kernels of 127 and 255 unknowns
    # span two and four blocks of the reduction's triangular solves.
    system = {"stokes3": lambda: build_saddle_dae("stokes3"),
              "heat1d": lambda: build_heat_1d(64),
              "heat1d-257": lambda: build_heat_1d(128)}.get(
        problem, lambda: _random_system(3, problem, 8, 2))()
    B = np.vstack([system.B1, system.B2])
    Z, sigma, V = null_space(B), system._reduction.sigma, system._reduction.V
    reference = scipy_eigh(Z.T @ system.A @ Z, Z.T @ system.M @ Z, eigvals_only=True)
    scale = np.abs(reference).max()
    assert np.abs(sigma - reference).max() <= 1e-13 * scale
    np.testing.assert_allclose(V.T @ system.M @ V, np.eye(sigma.size), rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(V.T @ system.A @ V, np.diag(sigma), rtol=0.0, atol=1e-13 * scale)
    np.testing.assert_allclose(B @ V, 0.0, rtol=0.0, atol=1e-13)


class _NoArithmetic(np.ndarray):
    """A view on which every numpy operation (@, +, np.dot, ...) raises."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        raise AssertionError(f"{ufunc.__name__} of a matrix the solve should not touch")

    def __array_function__(self, func, types, args, kwargs):
        raise AssertionError(f"{func.__name__} of a matrix the solve should not touch")


@pytest.mark.parametrize("problem", sorted(_BUILDERS) + ["combined"])
def test_a_second_solve_forms_no_product_with_M_or_A(problem):
    system = (_random_system(5, "combined", 5, 2) if problem == "combined"
              else _BUILDERS[problem]())
    mesh, opts = TimeMesh(np.r_[0.0, np.cumsum([0.3, 0.1, 0.25, 0.1])]), SolverOptions(q=3)
    first = solve_constrained(system, mesh, opts)
    for name in ("M", "A"):
        object.__setattr__(system, name, getattr(system, name).view(_NoArithmetic))
    with pytest.raises(AssertionError, match="matmul"):
        np.ones(system.m) @ system.A
    second = solve_constrained(system, mesh, opts)
    assert second.U.coeffs.tobytes() == first.U.coeffs.tobytes()
    assert (second.P is None) == (first.P is None)
    if first.P is not None:
        assert second.P.coeffs.tobytes() == first.P.coeffs.tobytes()


# ---------------------------------------------------------------------------
# the march: one closed-form sweep over the modal blocks and a blocked
# terminal-value recurrence


@pytest.mark.parametrize("problem", sorted(_BUILDERS))
def test_the_march_makes_no_lapack_block_solve(problem):
    system = _BUILDERS[problem]()
    dgsolver._modes(system)  # the reduction's triangular solves are not block solves
    with mock.patch.object(np.linalg, "solve", side_effect=AssertionError("np.linalg.solve")):
        solve_constrained(system, TimeMesh(np.array([0.0, 0.2, 0.5, 0.6, 1.0])),
                          SolverOptions(q=3))


def _modal_block(q, z):
    """Dmat + z diag(1/(2i+1)), the modal block of the march at z = k sigma."""
    return assemble_temporal_matrices(q, 1.0)[0] + z * np.diag(1.0 / (2.0 * np.arange(q) + 1.0))


def _subdiagonal_pade(z, q):
    """The (q-1, q) Padé approximant of exp(-z), exact in rationals at the float z."""
    x, m, n = -Fraction(z), q - 1, q
    num = sum(Fraction(factorial(m + n - j) * factorial(m),
                       factorial(m + n) * factorial(j) * factorial(m - j)) * x**j
              for j in range(m + 1))
    den = sum(Fraction(factorial(m + n - j) * factorial(n),
                       factorial(m + n) * factorial(j) * factorial(n - j)) * (-x)**j
              for j in range(n + 1))
    return num / den


@pytest.mark.parametrize("q", range(1, 15))
def test_sweep_stability_function_is_the_subdiagonal_pade_approximant(q):
    # 1^T K(z)^{-1} e is the DG stability function, the (q-1, q) Padé
    # approximant of exp(-z); the reference is exact at the float z
    z = np.r_[0.0, np.logspace(-10.0, 10.0, 81)]
    r = dgsolver._sweep(z, np.zeros((q,) + z.shape))[-1]
    R = np.array([float(_subdiagonal_pade(float(zi), q)) for zi in z])
    assert np.all(np.abs(r - R) <= 4 * np.finfo(float).eps)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), q=st.integers(1, 14), blocks=st.integers(1, 4))
def test_modal_solve_matches_lapack_on_modal_blocks(data, q, blocks):
    # z < 0 takes the LAPACK path, z >= 0 the sweep; one unit slab per mesh
    # makes sigma = z and every slab a first slab
    z = data.draw(st.lists(st.one_of(st.floats(-50.0, 50.0), st.floats(-50.0, 1e8)),
                           min_size=blocks, max_size=blocks))
    K = np.stack([_modal_block(q, zl) for zl in z])  # (blocks, q, q)
    cond = np.linalg.cond(K)
    assume(np.all(cond < 1e12))
    rng = np.random.default_rng(q)
    b, prev = rng.standard_normal((5, q, blocks)), rng.standard_normal((5, blocks))
    slabs = _Slabs.of([TimeMesh(np.array([0.0, 1.0]))] * 5)
    w, wprev = dgsolver._modal_solve(np.array(z), b, prev, slabs)
    np.testing.assert_array_equal(wprev, 0.0)
    e = assemble_temporal_matrices(q, 1.0)[2]
    expected = np.linalg.solve(K, (b + e[:, None] * prev[:, None, :]).transpose(2, 1, 0))
    error = np.abs(w.transpose(2, 1, 0) - expected).max(axis=(1, 2))
    assert np.all(error <= 8 * q * np.finfo(float).eps * cond * np.abs(expected).max(axis=(1, 2)))


def test_march_matches_the_oracle_at_a_zero_leading_block_entry():
    # M = 1, A = -2: at k = 0.5 the modal block's K[0, 0] = 1 - 2k is exactly 0
    system = ConstrainedSystem(M=np.eye(1), A=-2.0 * np.eye(1),
                               f=lambda t: np.cos(np.asarray(t))[None], u0=np.ones(1))
    mesh = TimeMesh(np.array([0.0, 0.3, 0.8, 1.0]))
    assert mesh.widths[1] == 0.5
    for q in (2, 3):
        opts = SolverOptions(q=q)
        assert _modal_block(q, -2.0 * mesh.widths[1])[0, 0] == 0.0
        seq, mono = solve_constrained(system, mesh, opts), solve_monolithic(system, mesh, opts)
        assert np.abs(seq.U.coeffs - mono.U.coeffs).max() <= 1e-10 * np.abs(mono.U.coeffs).max()


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_march_matches_the_oracle_with_negative_and_positive_modes(q):
    # sigma = -16, 1, 3: the negative mode takes the LAPACK path, the others
    # the sweep, in one march.  The widths 0.375, 0.625 and 0.875 put the
    # negative mode at z = -6, -10 and -14, where the sweep's last pivot
    # 2 + z / (2q - 1) vanishes for q = 2, 3 and 4 at a regular block
    system = ConstrainedSystem(M=np.eye(3), A=np.diag([-16.0, 1.0, 3.0]),
                               f=lambda t: np.array([np.cos(np.asarray(t)), np.sin(np.asarray(t)),
                                                     1.0 + 0.0 * np.asarray(t)]),
                               u0=np.array([1.0, -1.0, 0.5]))
    widths = np.r_[0.375, 0.625, 0.875, np.random.default_rng(q).uniform(0.02, 0.1, 9)]
    mesh = TimeMesh(np.r_[0.0, np.cumsum(widths)])
    assert np.array_equal(mesh.widths[:3], widths[:3])
    np.testing.assert_array_equal(dgsolver._modes(system).sigma, [-16.0, 1.0, 3.0])
    opts = SolverOptions(q=q)
    seq, mono = solve_constrained(system, mesh, opts), solve_monolithic(system, mesh, opts)
    assert np.abs(seq.U.coeffs - mono.U.coeffs).max() <= 1e-10 * np.abs(mono.U.coeffs).max()


def _sequential_terminal_values(alpha, r, dtype):
    w = np.zeros(alpha.shape, dtype=dtype)
    alpha, r = alpha.astype(dtype), r.astype(dtype)
    for n in range(1, alpha.shape[0]):
        w[n] = alpha[n - 1] + r[n - 1] * w[n - 1]
    return w


@pytest.mark.skipif(np.finfo(np.longdouble).precision <= np.finfo(float).precision,
                    reason="the reference recurrence needs an extended-precision long double")
@pytest.mark.parametrize("q", [2, 4])
@pytest.mark.parametrize("N", [8192, 65536])
def test_blocked_recurrence_stays_near_the_sequential_rounding(N, q):
    with mock.patch.object(dgsolver, "_terminal_values", wraps=dgsolver._terminal_values) as tv:
        solve_constrained(build_saddle_dae("stokes3"), build_uniform_mesh(1.0, N),
                          SolverOptions(q=q))
    alpha, r, starts = tv.call_args.args
    exact = _sequential_terminal_values(alpha, r, np.longdouble)
    loop = np.abs(_sequential_terminal_values(alpha, r, float) - exact).max()
    blocked = np.abs(dgsolver._terminal_values(alpha, r, starts) - exact).max()
    assert 0.0 < loop and blocked <= 4.0 * loop


@pytest.mark.parametrize("N, mw", [(1, 2), (2, 2), (3, 2), (5, 0)])
def test_blocked_recurrence_on_short_and_empty_sequences(N, mw):
    rng = np.random.default_rng(N)
    alpha, r = rng.standard_normal((N, mw)), rng.uniform(0.0, 1.0, (N, mw))
    w = dgsolver._terminal_values(alpha, r, np.array([0, N]))
    # up to three slabs, the blocks reduce to the sequential arithmetic
    np.testing.assert_array_equal(w, _sequential_terminal_values(alpha, r, float))


def _per_block_terminal_values(alpha, r, starts):
    """The blocked recurrence one block at a time: the reference for _terminal_values.

    Each mesh of N slabs runs in blocks of b = isqrt(N - 1) + 1 slabs; each
    block starts from zero with a running product of r, and a carry takes
    each block's end into the next; a slab's value is loc + P carry.
    """
    w = np.zeros_like(alpha)
    for s, e in zip(starts[:-1].tolist(), starts[1:].tolist()):
        b, carry, values = math.isqrt(e - s - 1) + 1, np.zeros(alpha.shape[1]), []
        for first in range(s, e, b):
            loc, P = alpha[first].copy(), r[first].copy()
            block = [(loc, P)]
            for n in range(first + 1, min(first + b, e)):
                loc, P = alpha[n] + r[n] * loc, r[n] * P
                block.append((loc, P))
            values += [loc + P * carry for loc, P in block]
            carry = loc + P * carry
        w[s + 1:e] = np.reshape(values[:-1], (e - s - 1, alpha.shape[1]))
    return w


@pytest.mark.parametrize("counts, mw", [
    ([1], 2), ([2], 2), ([3], 3), ([16], 2), ([25], 3),  # the shortest, and perfect squares
    ([7], 2), ([10], 1), ([50], 3), ([1, 7, 2, 99, 3], 2),  # partial last blocks
    ([32, 64, 128, 256, 512] * 2, 2),  # a two-variant study stack of 10 meshes
    ([65536], 2), ([5, 1, 40, 2], 0)])
def test_blocked_recurrence_matches_a_per_block_loop_bit_for_bit(counts, mw):
    rng = np.random.default_rng(sum(counts) + mw)
    starts = np.cumsum([0] + counts)
    alpha, r = rng.standard_normal((starts[-1], mw)), rng.uniform(-1.0, 1.0, (starts[-1], mw))
    w, reference = dgsolver._terminal_values(alpha, r, starts), _per_block_terminal_values(
        alpha, r, starts)
    assert w.shape == reference.shape and w.tobytes() == reference.tobytes()


@settings(max_examples=12, deadline=None)
@given(starts=st.lists(st.integers(1, 60) | st.integers(61, 5000), min_size=1, max_size=5).map(
           lambda counts: np.cumsum([0] + counts)),
       mw=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
# block counts 1, 64, 2, 32 and 8: the carry steps through meshes of widely
# different block counts at once
@example(starts=np.cumsum([0, 1, 4096, 3, 1024, 64]), mw=2, seed=0)
@example(starts=np.cumsum([0, 4096, 1, 2, 4096, 5]), mw=1, seed=1)
def test_blocked_recurrence_restarts_at_each_mesh_with_its_own_blocks(starts, mw, seed):
    rng = np.random.default_rng(seed)
    alpha, r = rng.standard_normal((starts[-1], mw)), rng.uniform(-1.0, 1.0, (starts[-1], mw))
    w = dgsolver._terminal_values(alpha, r, starts)
    for a, b in zip(starts[:-1], starts[1:]):
        alone = dgsolver._terminal_values(alpha[a:b], r[a:b], np.array([0, b - a]))
        np.testing.assert_array_equal(w[a:b], alone)


# ---------------------------------------------------------------------------
# a convergence study is one stacked march over all of its levels


def _study_cases():
    return {"stokes3": lambda seed: build_saddle_dae("stokes3"),
            "heat1d": lambda seed: build_heat_1d(4),
            **{kind: lambda seed, kind=kind: _with_exact(_random_system(seed, kind, 4, 2))
               for kind in ("spd", "saddle", "combined")}}


def _pointwise(fn):
    """fn evaluated one time at a time, so a value does not depend on the other times of a call.

    The random systems' g1 and g2 are BLAS products B @ path(t) over all
    times of a call, whose rounding may change with the number of times.
    """
    def call(t):
        if np.ndim(t) == 0:
            return fn(t)
        return np.stack([fn(ti) for ti in np.asarray(t).tolist()], axis=-1)
    return call


def _with_exact(system):
    """A random system with pointwise data and smooth stand-ins for exact_u and exact_p."""
    g = {name: _pointwise(getattr(system, name)) for name in ("g1", "g2") if getattr(system, name)}
    return replace(system, **g, exact_u=system.f, exact_p=g.get("g1"))


def _recorded_study(system, q, Ns, use_projection, norms):
    """run_study's table and the slabs and stacked (U, P) of the one _march call it makes."""
    marched = []

    def recording(system, slabs, opts):
        U, P, data = dgsolver._march(system, slabs, opts)
        marched.append((slabs, U, P))
        return U, P, data

    with mock.patch("dgtime.analysis._march", recording):
        table = run_study(system, q, Ns, use_projection=use_projection, norms=norms)
    assert len(marched) == 1
    return table, marched[0]


def _close(x, ref, rtol):
    assert np.abs(x - ref).max() <= rtol * np.abs(ref).max()


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(sorted(_study_cases())), seed=st.integers(0, 2**32 - 1),
       q=st.integers(1, 4), use_projection=st.booleans(),
       Ns=st.sets(st.integers(1, 40), min_size=1, max_size=5).map(sorted))
def test_study_equals_per_level_solves_and_public_norms(case, seed, q, use_projection, Ns):
    system = _study_cases()[case](seed)
    norms = ("energy", "nodal") + (("multiplier",) if system.r1 else ())
    table, (slabs, U, P) = _recorded_study(system, q, Ns, use_projection, norms)
    opts, quad = SolverOptions(q=q, use_projection=use_projection), gauss_legendre(q + 3)
    levels = zip(slabs.split(slabs.left), slabs.split(slabs.right), slabs.split(U),
                 slabs.split(P) if system.r1 else [None] * len(Ns))
    assert U.shape[0] == slabs.right.size and (P is None) == (system.r1 == 0)
    for N, row, (left, right, Ui, Pi) in zip(Ns, table.rows, levels):
        mesh = build_uniform_mesh(1.0, N)
        ref = solve_constrained(system, mesh, opts)
        np.testing.assert_array_equal(np.r_[left[:1], right], mesh.breakpoints)
        _close(Ui, ref.U.coeffs, 1e-13)
        errors = {"err_energy": error_l2_energy(ref.U, system.exact_u, system.normU, quad),
                  "err_nodal": error_nodal_max(ref.U, system.exact_u, system.M)}
        if system.r1:
            _close(Pi, ref.P.coeffs, 1e-13)
            errors["err_p"] = error_l2_multiplier(ref.P, system.exact_p, system.normQ1, quad)
        else:
            assert row.err_p is None
        for key, err in errors.items():
            assert abs(getattr(row, key) - err) <= 1e-13 * err


@pytest.mark.parametrize("problem", sorted(_BUILDERS))
@pytest.mark.parametrize("projections", [[True], [False], [True, False]],
                         ids=["True", "False", "both"])
def test_data_and_exact_calls_per_study_do_not_grow_with_its_levels(problem, projections):
    system = _BUILDERS[problem]()
    norms = ("energy", "nodal") + (("multiplier",) if system.r1 else ())
    counts = []
    for Ns in ((8,), (8, 16, 32, 64, 128)):
        counted, calls = _counting(system, ("f", "g1", "g2", "exact_u", "exact_p"))
        calls.clear()  # building the system checks u0 against g1 and g2 at t = 0
        analysis._run_studies(counted, 2, Ns, projections, norms)
        counts.append(calls)
    assert counts[0] == counts[1]
    # for every variant at once, each field gets one array call and its scalar
    # probe; exact_u at the error nodes and right ends together
    fields = [name for name in ("f", "g1", "g2", "exact_u", "exact_p") if getattr(system, name)]
    assert counts[0] == {name: 2 for name in fields}


@pytest.mark.parametrize("problem", sorted(_BUILDERS))
def test_a_study_builds_its_slabs_once(problem):
    for projections in ([True], [True, False]):
        with mock.patch.object(_Slabs, "of", wraps=_Slabs.of) as of:
            analysis._run_studies(_BUILDERS[problem](), 2, (8, 16, 32), projections,
                                  ("energy", "nodal"))
        assert of.call_count == 1


@pytest.mark.parametrize("problem", sorted(_BUILDERS))
def test_a_study_makes_one_block_solve_call(problem):
    system, Ns = _BUILDERS[problem](), (8, 16, 32, 64, 128)
    for projections in ([True], [True, False]):
        with mock.patch.object(dgsolver, "_modal_solve", wraps=dgsolver._modal_solve) as solve:
            analysis._run_studies(system, 2, Ns, projections, ("energy", "nodal"))
        assert solve.call_count == 1
        # every variant's slabs are right-hand sides of the one solve
        assert solve.call_args.args[1].shape[0] == len(projections) * sum(Ns)
