import re
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import legendre as npleg

from dgtime import timecore

from dgtime import (
    BrokenFunction,
    ProjectionSpec,
    SlabPoly,
    SolverOptions,
    TimeMesh,
    build_uniform_mesh,
    dh_form,
    dh_star_form,
    eoc,
    gauss_legendre,
    run_study,
)


# ---------------------------------------------------------------------------
# per-slab products


_GEMM_D = timecore._SLAB_GEMM_D


@pytest.mark.parametrize("N, k, d", [
    (9, 3, 1), (9, 3, _GEMM_D - 1), (9, 3, _GEMM_D), (9, 3, 2 * _GEMM_D + 1), (300, 6, 3),
    (0, 3, 2), (0, 3, _GEMM_D), (9, 3, 0), (9, 0, 2), (9, 0, _GEMM_D), (0, 0, 0)])
@pytest.mark.parametrize("a", [0, 1, 5])
def test_slab_apply_is_matmul_to_rounding_on_both_sides_of_the_crossover(N, k, d, a):
    rng = np.random.default_rng([N, k, d, a])
    A, X = rng.standard_normal((a, k)), rng.standard_normal((N, k, d))
    got = timecore._slab_apply(A, X)
    assert got.shape == (N, a, d)
    # either product of k terms is within k eps sum |A_ij X_nj| of the exact one
    bound = 2 * k * np.finfo(float).eps * (np.abs(A) @ np.abs(X))
    assert np.all(np.abs(got - A @ X) <= bound)


# ---------------------------------------------------------------------------
# meshes


def test_uniform_mesh_breakpoints():
    mesh = build_uniform_mesh(1.0, 4)
    assert mesh.N == 4
    assert mesh.T == 1.0
    np.testing.assert_allclose(mesh.breakpoints, [0.0, 0.25, 0.5, 0.75, 1.0])
    np.testing.assert_allclose(mesh.widths, 0.25)


# every integer count rejects a bool, which Python counts as an int
_COUNT_CHECKS = {
    "SolverOptions.q": (lambda b: SolverOptions(q=b), r"q must be in 1\.\.14, got"),
    "build_uniform_mesh N": (lambda b: build_uniform_mesh(1.0, b),
                             "slab count N must be an integer >= 1, got"),
    "ProjectionSpec.q": (lambda b: ProjectionSpec(b, gauss_legendre(4)),
                         "q must be an integer >= 1, got"),
    "run_study Ns": (lambda b: run_study("stokes3", 2, [b, 4]), "Ns must be integers, got"),
    "eoc Ns": (lambda b: eoc([1.0, 0.5], [b, 4]), "Ns must be integers, got"),
}


@pytest.mark.parametrize("flag", [True, np.True_], ids=["bool", "numpy-bool"])
@pytest.mark.parametrize("check", sorted(_COUNT_CHECKS))
def test_integer_counts_reject_bool(check, flag):
    make, message = _COUNT_CHECKS[check]
    with pytest.raises(ValueError, match=message):
        make(flag)


def test_single_slab_mesh():
    mesh = build_uniform_mesh(2.0, 1)
    assert mesh.N == 1
    np.testing.assert_allclose(mesh.breakpoints, [0.0, 2.0])


def test_nonuniform_mesh():
    mesh = TimeMesh(np.array([0.0, 0.25, 0.65, 1.0]))
    np.testing.assert_allclose(mesh.widths, [0.25, 0.4, 0.35])
    assert mesh.T == 1.0


@pytest.mark.parametrize("bad", [
    [0.5, 1.0],                # does not start at 0
    [0.0, 0.5, 0.5, 1.0],      # repeated breakpoint
    [0.0, 0.7, 0.4],           # decreasing
    [0.0],                     # single point
    [0.0, 1.0, np.inf],        # infinite end
])
def test_mesh_rejects_bad_breakpoints(bad):
    with pytest.raises(ValueError):
        TimeMesh(np.array(bad, dtype=float))


def test_build_uniform_mesh_rejects_bad_args():
    with pytest.raises(ValueError):
        build_uniform_mesh(0.0, 4)
    with pytest.raises(ValueError):
        build_uniform_mesh(1.0, 0)
    with pytest.raises(ValueError, match="integer"):
        build_uniform_mesh(1.0, 2.5)
    for T in (np.inf, np.nan, "1", None):
        with pytest.raises(ValueError, match=f"finite and positive, got {re.escape(repr(T))}"):
            build_uniform_mesh(T, 2)
    assert build_uniform_mesh(1.0, np.int64(3)).N == 3


def test_slab_index_sides():
    mesh = build_uniform_mesh(1.0, 4)
    # interior of slab 1 (0-based 0)
    assert mesh.slab_index(0.1) == 0
    # breakpoints belong to the left slab by default
    assert mesh.slab_index(0.25, side="left") == 0
    assert mesh.slab_index(0.25, side="right") == 1
    assert mesh.slab_index(1.0, side="left") == 3
    assert mesh.slab_index(0.0, side="right") == 0
    with pytest.raises(ValueError):
        mesh.slab_index(0.0, side="left")
    with pytest.raises(ValueError):
        mesh.slab_index(1.0, side="right")
    with pytest.raises(ValueError):
        mesh.slab_index(1.5)
    with pytest.raises(ValueError):
        mesh.slab_index(np.nan)
    with pytest.raises(ValueError):
        mesh.slab_index(0.5, side="above")


# ---------------------------------------------------------------------------
# quadrature


def test_gauss_legendre_one_point_is_midpoint():
    quad = gauss_legendre(1)
    np.testing.assert_allclose(quad.nodes, [0.5])
    np.testing.assert_allclose(quad.weights, [1.0])
    assert quad.exactness_degree == 1


def test_gauss_legendre_two_point():
    quad = gauss_legendre(2)
    x = np.sqrt(3.0) / 6.0
    np.testing.assert_allclose(np.sort(quad.nodes), [0.5 - x, 0.5 + x], atol=1e-15)
    np.testing.assert_allclose(quad.weights, [0.5, 0.5])
    assert quad.exactness_degree == 3


@pytest.mark.parametrize("n", [0, 17, -3])
def test_gauss_legendre_point_count_range(n):
    with pytest.raises(ValueError):
        gauss_legendre(n)


@settings(deadline=None)
@given(n=st.integers(1, 16), data=st.data())
def test_gauss_legendre_monomial_exactness(n, data):
    quad = gauss_legendre(n)
    p = data.draw(st.integers(0, quad.exactness_degree))
    approx = float(np.sum(quad.weights * quad.nodes**p))
    exact = 1.0 / (p + 1)  # int_0^1 t^p dt
    assert abs(approx - exact) <= 1e-13 * (1.0 + abs(exact))


def test_gauss_legendre_returns_one_shared_rule_per_point_count():
    assert gauss_legendre(5) is gauss_legendre(5)
    assert gauss_legendre(5) is not gauss_legendre(6)
    quad = gauss_legendre(3)
    for a in (quad.nodes, quad.weights):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0
    for n in (3.0, True):
        with pytest.raises(TypeError):
            gauss_legendre(n)  # not served from the cached 3- or 1-point rule


def test_a_study_builds_each_gauss_rule_once():
    gauss_legendre.cache_clear()
    with mock.patch.object(timecore.npleg, "leggauss", wraps=timecore.npleg.leggauss) as leggauss:
        for use_projection in (True, False):
            run_study("stokes3", 2, [4, 8, 16], use_projection=use_projection)
    counts = Counter(call.args[0] for call in leggauss.call_args_list)
    assert counts and set(counts.values()) == {1}


def test_quadrature_weights_must_be_positive():
    from dgtime import Quadrature

    with pytest.raises(ValueError):
        Quadrature(np.array([0.25, 0.75]), np.array([0.5, -0.5]), 1)
    with pytest.raises(ValueError):
        Quadrature(np.array([0.5]), np.array([0.5, 0.5]), 1)


# ---------------------------------------------------------------------------
# slab polynomials in the shifted Legendre basis


def test_slab_basis_is_orthogonal_with_mass_k_over_2jp1():
    a, b = 0.3, 0.7
    k = b - a
    q = 5
    quad = gauss_legendre(8)
    ts = a + k * quad.nodes
    for i in range(q):
        ci = np.zeros((q, 1)); ci[i, 0] = 1.0
        pi = SlabPoly(a, b, ci)
        for j in range(q):
            cj = np.zeros((q, 1)); cj[j, 0] = 1.0
            pj = SlabPoly(a, b, cj)
            val = k * np.sum(quad.weights * pi.eval_many(ts)[0] * pj.eval_many(ts)[0])
            expected = k / (2 * j + 1) if i == j else 0.0
            assert abs(val - expected) < 1e-14


def test_slab_endpoint_values():
    # phi_j(b) = 1 and phi_j(a+) = (-1)^j, so the coefficient sums give the
    # one-sided endpoint values directly.
    coeffs = np.array([[1.0, 2.0], [0.5, -1.0], [0.25, 3.0]])
    s = SlabPoly(0.0, 0.5, coeffs)
    np.testing.assert_allclose(s.value_end(), coeffs.sum(axis=0))
    np.testing.assert_allclose(s.value_start(), coeffs[0] - coeffs[1] + coeffs[2])
    np.testing.assert_allclose(s(0.5), s.value_end(), atol=1e-15)


def test_slab_rejects_degenerate_interval():
    with pytest.raises(ValueError):
        SlabPoly(1.0, 1.0, np.ones((2, 1)))
    for coeffs in (np.ones(2), np.ones((0, 1))):
        with pytest.raises(ValueError, match=r"coeffs must have shape \(q, d\) with q >= 1"):
            SlabPoly(0.0, 1.0, coeffs)


@pytest.mark.parametrize("shape, message", [
    ((3, 2), r"coeffs must have shape \(N, q, d\)"),
    ((4, 2, 1), "coefficient array has 4 slabs, mesh has 3"),
    ((3, 0, 1), "need q >= 1 coefficients and dim >= 1"),
    ((3, 2, 0), "need q >= 1 coefficients and dim >= 1"),
])
def test_broken_function_rejects_coefficients_of_the_wrong_shape(shape, message):
    with pytest.raises(ValueError, match=message):
        BrokenFunction(build_uniform_mesh(1.0, 3), np.ones(shape))


# ---------------------------------------------------------------------------
# broken functions


def _constant_broken(mesh, value, q=2):
    coeffs = np.zeros((mesh.N, q, np.size(value)))
    coeffs[:, 0, :] = np.asarray(value, dtype=float)
    return BrokenFunction(mesh, coeffs)


def test_eval_sides_constant_function():
    mesh = build_uniform_mesh(1.0, 2)
    F = _constant_broken(mesh, [3.0])
    assert F.eval(0.5) == pytest.approx(3.0)
    assert F.eval(0.5, side="right") == pytest.approx(3.0)
    np.testing.assert_allclose(F.jump(1), [0.0], atol=1e-15)


def test_eval_sides_two_slab_step():
    # 1 on (0, 0.5], 0 on (0.5, 1]: breakpoint evaluation defaults to the
    # left slab, the right limit must be requested explicitly.
    mesh = build_uniform_mesh(1.0, 2)
    coeffs = np.zeros((2, 2, 1))
    coeffs[0, 0, 0] = 1.0
    F = BrokenFunction(mesh, coeffs)
    assert F.eval(0.5) == pytest.approx(1.0)
    assert F.eval(0.5, side="right") == pytest.approx(0.0)
    np.testing.assert_allclose(F.jump(1), [-1.0], atol=1e-15)
    np.testing.assert_allclose(F.node_value(1), [1.0])
    np.testing.assert_allclose(F.node_value(2), [0.0])


def test_continuous_broken_function_has_zero_jumps():
    # F(t) = t is continuous; on each slab t = midpoint + (k/2) * phi_1.
    mesh = build_uniform_mesh(1.0, 4)
    coeffs = np.zeros((4, 2, 1))
    for n in range(4):
        a, b = mesh.breakpoints[n], mesh.breakpoints[n + 1]
        coeffs[n, 0, 0] = 0.5 * (a + b)
        coeffs[n, 1, 0] = 0.5 * (b - a)
    F = BrokenFunction(mesh, coeffs)
    for n in range(1, 4):
        np.testing.assert_allclose(F.jump(n), [0.0], atol=1e-15)
    assert F.eval(0.3)[0] == pytest.approx(0.3)
    assert F.eval(0.75, side="right")[0] == pytest.approx(0.75)
    np.testing.assert_allclose(F.initial_value(), [0.0], atol=1e-15)


def test_constructed_jump_value():
    mesh = build_uniform_mesh(1.0, 2)
    coeffs = np.zeros((2, 2, 1))
    coeffs[0, 0, 0] = 1.0   # left slab ends at 1.0
    coeffs[1, 0, 0] = 1.3   # right slab starts at 1.3
    F = BrokenFunction(mesh, coeffs)
    np.testing.assert_allclose(F.jump(1), [0.3])
    with pytest.raises(ValueError):
        F.jump(0)
    with pytest.raises(ValueError):
        F.jump(2)


def test_node_value_range_checked():
    mesh = build_uniform_mesh(1.0, 3)
    F = _constant_broken(mesh, [1.0])
    with pytest.raises(ValueError):
        F.node_value(0)
    with pytest.raises(ValueError):
        F.node_value(4)


def test_subtraction_pads_mixed_degrees():
    mesh = build_uniform_mesh(1.0, 2)
    lo = _constant_broken(mesh, [2.0], q=1)
    hi = _constant_broken(mesh, [0.5], q=3)
    diff = lo - hi
    assert diff.degree == 2
    assert diff.eval(0.7)[0] == pytest.approx(1.5)


def test_mismatched_meshes_rejected():
    A = _constant_broken(build_uniform_mesh(1.0, 2), [1.0])
    B = _constant_broken(build_uniform_mesh(1.0, 3), [1.0])
    with pytest.raises(ValueError):
        dh_form(A, B, 1.0, gauss_legendre(2))
    with pytest.raises(ValueError):
        A - B
    C = _constant_broken(build_uniform_mesh(1.0, 2), [1.0, 2.0])
    with pytest.raises(ValueError, match="dimension mismatch: 1 vs 2"):
        dh_form(A, C, np.eye(2), gauss_legendre(2))


# ---------------------------------------------------------------------------
# DG time-derivative forms


def test_dh_form_on_constants():
    # For constants the integrals and interior jumps vanish and only the
    # initial term (Y(0+), X(0+)) survives: D(c, d) = c * d.
    mesh = build_uniform_mesh(1.0, 3)
    quad = gauss_legendre(3)
    Y = _constant_broken(mesh, [2.0])
    X = _constant_broken(mesh, [-3.0])
    assert dh_form(Y, X, 1.0, quad) == pytest.approx(-6.0, abs=1e-14)
    assert dh_star_form(Y, X, 1.0, quad) == pytest.approx(6.0, abs=1e-14)


def test_dh_form_step_function_self():
    # Y = 1 on (0, 0.5], 0 on (0.5, 1]: D(Y, Y) = (Y(0+))^2 + [Y]^1 Y(0.5+)
    # = 1 + (-1) * 0 = 1.
    mesh = build_uniform_mesh(1.0, 2)
    coeffs = np.zeros((2, 2, 1))
    coeffs[0, 0, 0] = 1.0
    Y = BrokenFunction(mesh, coeffs)
    assert dh_form(Y, Y, 1.0, gauss_legendre(3)) == pytest.approx(1.0, abs=1e-14)


def test_dh_form_continuous_ramp_reduces_to_integral():
    # Y(t) = t is continuous with Y(0+) = 0, so D(Y, X) = sum_n int Y' X.
    mesh = build_uniform_mesh(1.0, 4)
    quad = gauss_legendre(4)
    coeffs = np.zeros((4, 2, 1))
    for n in range(4):
        a, b = mesh.breakpoints[n], mesh.breakpoints[n + 1]
        coeffs[n, 0, 0] = 0.5 * (a + b)
        coeffs[n, 1, 0] = 0.5 * (b - a)
    Y = BrokenFunction(mesh, coeffs)
    X = _constant_broken(mesh, [5.0])
    # int_0^1 1 * 5 dt = 5
    assert dh_form(Y, X, 1.0, quad) == pytest.approx(5.0, abs=1e-13)


def test_dh_form_weighted_by_matrix():
    mesh = build_uniform_mesh(1.0, 2)
    M = np.array([[2.0, 1.0], [1.0, 3.0]])
    Y = _constant_broken(mesh, [1.0, 0.0])
    X = _constant_broken(mesh, [0.0, 1.0])
    # only the initial term: e_1^T M e_2 = 1
    assert dh_form(Y, X, M, gauss_legendre(2)) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("form", [dh_form, dh_star_form])
@pytest.mark.parametrize("qy, qx", [(3, 3), (2, 4), (4, 4)])
def test_dh_forms_reject_a_rule_not_exact_to_deg_y_plus_deg_x_minus_1(form, qy, qx):
    # unchecked, the one-point rule gives dh_form(U, U) = 3.07 for the exact 5.73 at q = 3
    rng = np.random.default_rng(1)
    mesh = build_uniform_mesh(1.0, 3)
    Y, X = (BrokenFunction(mesh, rng.standard_normal((3, q, 2))) for q in (qy, qx))
    need = (qy - 1) + (qx - 1) - 1
    n = need // 2 + 1  # the fewest Gauss points exact to degree need
    with pytest.raises(ValueError, match=f"deg Y \\+ deg X - 1 = {need}"):
        form(Y, X, 1.0, gauss_legendre(n - 1))
    assert form(Y, X, 1.0, gauss_legendre(n)) == pytest.approx(form(Y, X, 1.0, gauss_legendre(8)),
                                                               rel=1e-12)


def _quadrature_forms(Y, X, M):
    """(D(Y, X), D*(Y, X)) by their definition, the quadrature reference of the forms.

    The slab integrals of (Y', X)_M and (Y, X')_M use a Gauss rule exact to
    degree 15, and the jump terms the one-sided values at the breakpoints.
    """
    quad = gauss_legendre(8)
    M = M * np.eye(Y.dim) if np.ndim(M) == 0 else M
    k = Y.mesh.widths

    def values(F, derivative=False):
        c = npleg.legder(F.coeffs, axis=1) * (2.0 / k)[:, None, None] if derivative else F.coeffs
        return timecore._slab_values(c, quad)

    def integral(Yv, Xv):
        return np.einsum("npa,ab,npb,p,n->", Yv, M, Xv, quad.weights, k)

    def starts(F):
        return (-1.0) ** np.arange(F.coeffs.shape[1]) @ F.coeffs

    ys, ye, xs, xe = starts(Y), Y.coeffs.sum(axis=1), starts(X), X.coeffs.sum(axis=1)
    D = (integral(values(Y, True), values(X)) + np.einsum("na,ab,nb->", ys[1:] - ye[:-1], M, xs[1:])
         + ys[0] @ M @ xs[0])
    D_star = (integral(values(Y), values(X, True))
              + np.einsum("na,ab,nb->", ye[:-1], M, xs[1:] - xe[:-1]) - ye[-1] @ M @ xe[-1])
    return float(D), float(D_star)


@settings(deadline=None, max_examples=100)
@given(
    seed=st.integers(0, 2**32 - 1),
    widths=st.lists(st.floats(0.01, 2.0), min_size=1, max_size=6),
    qy=st.integers(1, 5),
    qx=st.integers(1, 5),
    d=st.integers(1, 4),
    weight=st.sampled_from(["scalar", "spd", "nonsymmetric"]),
)
def test_coefficient_forms_equal_the_quadrature_reference(seed, widths, qy, qx, d, weight):
    rng = np.random.default_rng(seed)
    mesh = TimeMesh(np.r_[0.0, np.cumsum(widths)])
    Y, X = (BrokenFunction(mesh, rng.standard_normal((mesh.N, q, d))) for q in (qy, qx))
    R = rng.standard_normal((d, d))
    M = {"scalar": float(rng.uniform(0.1, 3.0)), "spd": R @ R.T + d * np.eye(d),
         "nonsymmetric": R + d * np.eye(d)}[weight]
    # the fewest Gauss points the rule check accepts; the value does not depend on the rule
    quad = gauss_legendre(max(qy + qx - 3, 0) // 2 + 1)
    D, D_star = dh_form(Y, X, M, quad), dh_star_form(Y, X, M, quad)
    assert (D, D_star) == (dh_form(Y, X, M, gauss_legendre(16)),
                           dh_star_form(Y, X, M, gauss_legendre(16)))
    D_ref, D_star_ref = _quadrature_forms(Y, X, M)
    # 26,000 random cases of this kind gave at most 6.9e-13; where they differ
    # most, an mpmath evaluation puts the larger error in the reference
    scale = 1.0 + abs(D_ref) + abs(D_star_ref)
    assert abs(D - D_ref) <= 2e-12 * scale
    assert abs(D_star - D_star_ref) <= 2e-12 * scale


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    N=st.integers(1, 6),
    q=st.integers(1, 4),
    d=st.integers(1, 3),
)
def test_dh_antisymmetry_and_coercivity(seed, N, q, d):
    rng = np.random.default_rng(seed)
    mesh = build_uniform_mesh(float(rng.uniform(0.5, 2.0)), N)
    Y = BrokenFunction(mesh, rng.standard_normal((N, q, d)))
    X = BrokenFunction(mesh, rng.standard_normal((N, q, d)))
    R = rng.standard_normal((d, d))
    M = R @ R.T + d * np.eye(d)  # SPD weight
    quad = gauss_legendre(q + 1)

    a = dh_form(Y, X, M, quad)
    b = dh_star_form(Y, X, M, quad)
    scale = 1.0 + abs(a) + abs(b)
    assert abs(a + b) <= 1e-12 * scale

    yN = Y.node_value(N)
    lower = 0.5 * float(yN @ M @ yN)
    quad_self = dh_form(Y, Y, M, quad)
    assert quad_self >= lower - 1e-12 * (1.0 + abs(quad_self) + lower)
