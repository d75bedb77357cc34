import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dgtime import (
    PRESET_FUNCTIONS,
    ConstrainedSystem,
    ManufacturedSolution1D,
    SolverOptions,
    build_heat_1d,
    build_saddle_dae,
    build_uniform_mesh,
    load_system,
    solve_constrained,
    solve_mixed,
    validate_system,
)
from dgtime.systems import _BLOCK, _STOKES3_A, EL_MASS, EL_STIFF, _lower_solve, _p2_shapes


# ---------------------------------------------------------------------------
# P2 element matrices, against direct quadrature of the shape functions


@pytest.mark.parametrize("h", [0.2, 1.0 / 3.0, 1.0])
def test_element_matrices_match_quadrature(h):
    x, w = np.polynomial.legendre.leggauss(5)
    xi = (x + 1.0) / 2.0
    wts = w / 2.0
    shp = _p2_shapes(xi)                      # (5, 3)
    dshp = np.stack([4 * xi - 3, 4 - 8 * xi, 4 * xi - 1], axis=-1)
    mass = h * np.einsum("g,gi,gj->ij", wts, shp, shp)
    stiff = (1.0 / h) * np.einsum("g,gi,gj->ij", wts, dshp, dshp)
    np.testing.assert_allclose(mass, (h / 30.0) * EL_MASS, atol=1e-14)
    np.testing.assert_allclose(stiff, (1.0 / (3.0 * h)) * EL_STIFF, atol=1e-13)


def test_p2_shapes_partition_of_unity():
    xi = np.linspace(0.0, 1.0, 11)
    np.testing.assert_allclose(_p2_shapes(xi).sum(axis=-1), 1.0, atol=1e-14)
    # nodal property at xi = 0, 1/2, 1
    np.testing.assert_allclose(_p2_shapes(np.array([0.0, 0.5, 1.0])), np.eye(3), atol=1e-15)


# ---------------------------------------------------------------------------
# heat problem builder


def test_heat_boundary_data_from_solution():
    # u(x, t) = (1 + x^2) sin 4t  ->  g2(t) = (sin 4t, 2 sin 4t)
    sol = ManufacturedSolution1D(
        u=lambda x, t: (1.0 + x * x) * np.sin(4.0 * t),
        u_t=lambda x, t: 4.0 * (1.0 + x * x) * np.cos(4.0 * t),
        u_xx=lambda x, t: 2.0 * np.sin(4.0 * t) + 0.0 * x,
    )
    system = build_heat_1d(3, sol)
    for t in (0.0, 0.37, 1.0):
        np.testing.assert_allclose(
            system.g2(t), [np.sin(4 * t), 2 * np.sin(4 * t)], atol=1e-15)


def test_heat_shapes_and_defaults():
    system = build_heat_1d(4)
    assert system.m == 9
    assert system.r1 == 0 and system.r2 == 2
    assert system.B2.shape == (2, 9)
    # the solvers' right inverse pinv([B1; B2]) of the boundary-row selection is B2^T
    np.testing.assert_array_equal(system._reduction.R, system.B2.T)
    np.testing.assert_allclose(system.normU, system.M + system.A)
    # default solution has u(x, 0) = x, which is compatible with g2(0)
    np.testing.assert_allclose(system.u0, np.linspace(0, 1, 9), atol=1e-15)


def test_heat_constraint_data_commutes_with_exact_solution():
    system = build_heat_1d(4)
    for t in (0.0, 0.25, 0.8):
        np.testing.assert_array_equal(system.B2 @ system.exact_u(t), system.g2(t))


def test_heat_interior_residual_vanishes():
    # the nodal interpolant of a spatially quadratic solution satisfies the
    # interior semidiscrete equations identically
    system = build_heat_1d(5)
    x = np.linspace(0.0, 1.0, system.m)
    from dgtime.systems import DEFAULT_HEAT_SOLUTION as ms
    for t in (0.1, 0.6):
        res = system.M @ ms.u_t(x, t) + system.A @ ms.u(x, t) - system.f(t)
        scale = 1.0 + np.abs(system.f(t)).max()
        assert np.abs(res[1:-1]).max() <= 1e-10 * scale


def test_heat_builder_samples_the_load_once_per_probe_time():
    # the quadratic-in-space check probes 4 times; each probe calls u_t once
    # itself and once through f(t)
    from dgtime.systems import DEFAULT_HEAT_SOLUTION as ms
    calls = []

    def u_t(x, t):
        calls.append(t)
        return ms.u_t(x, t)

    build_heat_1d(4, ManufacturedSolution1D(u=ms.u, u_t=u_t, u_xx=ms.u_xx))
    assert len(calls) == 8 and len(set(calls)) == 4


def test_heat_rejects_unrepresentable_solutions():
    # note a cubic slips through on uniform elements: its P2 interpolation
    # error is orthogonal to every interior test function (the stiffness
    # part by superconvergence, the mass part by left/right cancellation at
    # the vertices), so its interpolant legitimately satisfies the interior
    # equations; a quartic or a trigonometric profile does not
    quartic = ManufacturedSolution1D(
        u=lambda x, t: x**4 * (1.0 + t),
        u_t=lambda x, t: x**4 + 0.0 * t,
        u_xx=lambda x, t: 12.0 * x * x * (1.0 + t),
    )
    with pytest.raises(ValueError, match="quadratic in space"):
        build_heat_1d(4, quartic)
    trig = ManufacturedSolution1D(
        u=lambda x, t: np.sin(np.pi * x) * (1.0 + t),
        u_t=lambda x, t: np.sin(np.pi * x) + 0.0 * t,
        u_xx=lambda x, t: -np.pi**2 * np.sin(np.pi * x) * (1.0 + t),
    )
    with pytest.raises(ValueError, match="quadratic in space"):
        build_heat_1d(4, trig)


def test_heat_needs_two_elements():
    with pytest.raises(ValueError):
        build_heat_1d(1)


def test_heat_stationary_solution():
    sol = ManufacturedSolution1D(
        u=lambda x, t: x * x + 0.0 * t,
        u_t=lambda x, t: 0.0 * x,
        u_xx=lambda x, t: 2.0 + 0.0 * x,
    )
    system = build_heat_1d(2, sol)
    np.testing.assert_allclose(system.exact_u(0.3), system.exact_u(0.9))
    np.testing.assert_allclose(system.u0, np.linspace(0, 1, 5) ** 2, atol=1e-15)


def test_heat_handles_that_ignore_x_or_t_give_full_data_and_never_expose_the_grid():
    # u ignores t and hands back x itself; u_t ignores t, u_xx both x and t
    sol = ManufacturedSolution1D(u=lambda x, t: x, u_t=lambda x, t: 0.0 * x,
                                 u_xx=lambda x, t: 0.0)
    system, x, ts = build_heat_1d(2, sol), np.linspace(0.0, 1.0, 5), np.array([0.1, 0.5, 0.9])
    np.testing.assert_array_equal(system.exact_u(ts), np.repeat(x[:, None], 3, axis=1))
    np.testing.assert_array_equal(system.g2(ts), np.array([[0.0] * 3, [1.0] * 3]))
    np.testing.assert_array_equal(system.f(ts), np.zeros((5, 3)))
    np.testing.assert_array_equal(system.f(0.3), np.zeros(5))
    u = system.exact_u(0.3)
    if u.flags.writeable:
        u[0] = 7.0
    np.testing.assert_array_equal(system.exact_u(0.3), x)


# ---------------------------------------------------------------------------
# saddle DAE builder / stokes3 preset


def test_stokes3_initial_data():
    system = build_saddle_dae("stokes3")
    assert (system.m, system.r1, system.r2) == (3, 1, 0)
    np.testing.assert_allclose(system.u0, [0.0, 1.0, 1.0], atol=1e-15)
    assert system.g1(0.0)[0] == pytest.approx(2.0)


def test_stokes3_derivative_handle_consistent():
    system = build_saddle_dae("stokes3")
    # exact_du at 0 is (4, 0, -1); check against a difference quotient
    h = 1e-6
    fd = (system.exact_u(h) - system.exact_u(-h)) / (2 * h)
    np.testing.assert_allclose(fd, [4.0, 0.0, -1.0], atol=1e-7)


def test_stokes3_forcing_at_zero():
    # f(0) = M u'(0) + A u(0) + B1^T p(0)
    #      = (4,0,-1) + (-1,1,1) + (1,1,1) = (4,2,1)
    system = build_saddle_dae("stokes3")
    np.testing.assert_allclose(system.f(0.0), [4.0, 2.0, 1.0], atol=1e-14)


def test_stokes3_data_solves_the_dae():
    system = build_saddle_dae("stokes3")
    h = 1e-6
    for t in (0.2, 0.9):
        du = (system.exact_u(t + h) - system.exact_u(t - h)) / (2 * h)
        res = (system.M @ du + system.A @ system.exact_u(t)
               + system.B1.T @ system.exact_p(t) - system.f(t))
        assert np.abs(res).max() < 1e-7
        assert system.g1(t)[0] == pytest.approx(system.exact_u(t).sum(), abs=1e-14)


def test_zero_solution_gives_zero_forcing():
    zero = lambda t: np.zeros(2)
    system = build_saddle_dae(M=np.eye(2), A=np.array([[1.0, 0.0], [0.0, 2.0]]),
                              exact_u=zero, exact_du=zero)
    for t in (0.0, 0.5):
        np.testing.assert_array_equal(system.f(t), np.zeros(2))
    assert system.r1 == 0 and system.B1.shape == (0, 2)


def test_saddle_builder_rejects_rank_deficient_b1():
    zero = lambda t: np.zeros(2)
    with pytest.raises(ValueError, match="row rank"):
        build_saddle_dae(M=np.eye(2), A=np.eye(2), B1=np.zeros((1, 2)),
                         exact_u=zero, exact_du=zero, exact_p=lambda t: np.zeros(1))


def test_saddle_builder_unknown_preset():
    with pytest.raises(ValueError):
        build_saddle_dae("stokes4")


def test_saddle_builder_requires_exact_p_with_b1():
    zero = lambda t: np.zeros(2)
    with pytest.raises(ValueError, match="exact_p"):
        build_saddle_dae(M=np.eye(2), A=np.eye(2), B1=np.array([[1.0, 0.0]]),
                         exact_u=zero, exact_du=zero)


# ---------------------------------------------------------------------------
# structural validation


def test_validate_passes_on_stokes3():
    report = validate_system(build_saddle_dae("stokes3"))
    assert report.passed
    names = {c.name for c in report.checks}
    assert "kernel mass SPD" in names
    assert "kernel stiffness symmetric" in names
    assert "constraint row rank" in names
    assert "kernel ellipticity" in names
    assert "inf-sup (B1 on ker B2)" in names
    assert report.warnings == ()


def test_validate_passes_on_heat():
    report = validate_system(build_heat_1d(4))
    assert report.passed
    assert [c.name for c in report.checks] == [
        "kernel mass SPD", "kernel stiffness symmetric", "constraint row rank",
        "kernel ellipticity", "free state components"]


def test_validate_flags_rank_deficient_constraints():
    system = ConstrainedSystem(
        M=np.eye(3), A=np.eye(3), f=lambda t: np.zeros(3),
        u0=np.zeros(3), B1=np.zeros((1, 3)), g1=lambda t: np.zeros(1),
        exact_p=None)
    report = validate_system(system)
    assert not report.passed
    assert all(type(c.ok) is bool for c in report.checks)
    failed = {c.name for c in report.checks if not c.ok}
    assert "constraint row rank" in failed


def _weak_constraint_system(B1):
    zero = lambda t: np.zeros(3)
    return ConstrainedSystem(M=np.eye(3), A=np.eye(3), f=zero, u0=np.zeros(3),
                             B1=B1, g1=lambda t: np.zeros(B1.shape[0]))


def test_numerically_dependent_constraint_rows_fail_the_rank_rule():
    B1 = np.array([[1.0, 0.0, 0.0], [1.0, 1e-13, 0.0]])
    failed = {c.name for c in validate_system(_weak_constraint_system(B1)).checks if not c.ok}
    assert {"constraint row rank", "inf-sup (B1 on ker B2)"} <= failed
    zero = lambda t: np.zeros(3)
    with pytest.raises(ValueError, match="row rank"):
        build_saddle_dae(M=np.eye(3), A=np.eye(3), B1=B1, exact_u=zero, exact_du=zero,
                         exact_p=lambda t: np.zeros(2))


def test_uniformly_small_constraint_passes_the_rank_rule():
    # the rank rule is relative: a constraint is not rank deficient for being small
    B1 = np.full((1, 3), 1e-13)
    assert validate_system(_weak_constraint_system(B1)).passed
    zero = lambda t: np.zeros(3)
    system = build_saddle_dae(M=np.eye(3), A=np.eye(3), B1=B1, exact_u=zero, exact_du=zero,
                              exact_p=lambda t: np.zeros(1))
    assert system.r1 == 1


def test_validate_flags_indefinite_stiffness():
    system = ConstrainedSystem(M=np.eye(2), A=-np.eye(2),
                               f=lambda t: np.zeros(2), u0=np.zeros(2))
    report = validate_system(system)
    failed = {c.name for c in report.checks if not c.ok}
    assert "kernel ellipticity" in failed


def test_validate_flags_nonsymmetric_mass():
    system = ConstrainedSystem(M=np.array([[1.0, 0.5], [0.0, 1.0]]), A=np.eye(2),
                               f=lambda t: np.zeros(2), u0=np.zeros(2))
    report = validate_system(system)
    failed = {c.name for c in report.checks if not c.ok}
    assert "kernel mass SPD" in failed


def test_validate_flags_b2_fixing_every_component():
    system = ConstrainedSystem(M=np.eye(2), A=np.eye(2), f=lambda t: np.zeros(2),
                               u0=np.zeros(2), B2=np.eye(2), g2=lambda t: np.zeros(2))
    failed = {c.name for c in validate_system(system).checks if not c.ok}
    assert failed == {"free state components"}
    with pytest.raises(ValueError, match="no free state components"):
        solve_constrained(system, build_uniform_mesh(1.0, 2), SolverOptions(q=2))


def test_kernel_ellipticity_rule_is_relative():
    # A scaled by 1e-13 is as elliptic relative to its own scale as stokes3's A
    system = replace(build_saddle_dae("stokes3"), A=1e-13 * _STOKES3_A)
    report = validate_system(system)
    assert report.passed
    ellipticity = next(c for c in report.checks if c.name == "kernel ellipticity")
    assert ellipticity.value == pytest.approx(2e-13)
    sol = solve_mixed(system, build_uniform_mesh(1.0, 4), SolverOptions(q=2))
    assert np.isfinite(sol.U.coeffs).all()


def test_validate_flags_a_zero_stiffness():
    # A = 0 fails the relative rule, although the march solves it
    system = ConstrainedSystem(M=np.eye(2), A=np.zeros((2, 2)), f=lambda t: np.zeros(2),
                               u0=np.zeros(2))
    failed = {c.name for c in validate_system(system).checks if not c.ok}
    assert failed == {"kernel ellipticity"}


def test_validate_ellipticity_is_the_generalized_kernel_eigenvalue():
    # M = diag(1, 4) and A = diag(3, 4): the pencil (A, M) has eigenvalues 3 and 1
    system = ConstrainedSystem(M=np.diag([1.0, 4.0]), A=np.diag([3.0, 4.0]),
                               f=lambda t: np.zeros(2), u0=np.zeros(2))
    checks = {c.name: c for c in validate_system(system).checks}
    assert checks["kernel ellipticity"].value == pytest.approx(1.0)


@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("n", [1, 63, 64, 65, 128, 129, 300])
def test_blocked_triangular_solve_matches_trsm(n, transpose):
    # scipy's solve_triangular (LAPACK trsm) is the reference; over 40 seeds
    # of these matrices the difference read at most 1.2e-15 of max |X|
    from scipy.linalg import solve_triangular

    rng = np.random.default_rng(n)
    G = rng.standard_normal((n, n))
    L = np.linalg.cholesky(G @ G.T / n + np.eye(n))
    for k in (1, n):
        B = rng.standard_normal((n, k))
        X = _lower_solve(L, B, transpose=transpose)
        reference = solve_triangular(L, B, lower=True, trans=int(transpose))
        assert np.abs(X - reference).max() <= 2e-15 * np.abs(reference).max()
        if n <= _BLOCK:  # one block: the very solve of an unblocked reduction
            assert X.tobytes() == np.linalg.solve(L.T if transpose else L, B).tobytes()


def test_validate_flags_a_mass_matrix_indefinite_on_the_kernel():
    system = ConstrainedSystem(M=np.diag([1.0, -1.0]), A=np.eye(2),
                               f=lambda t: np.zeros(2), u0=np.zeros(2))
    checks = {c.name: c for c in validate_system(system).checks}
    assert not checks["kernel mass SPD"].ok
    assert "Cholesky failed" in checks["kernel mass SPD"].detail
    assert not checks["kernel ellipticity"].ok and checks["kernel ellipticity"].value is None


def test_incompatible_initial_data_warns():
    with pytest.warns(UserWarning, match="initial"):
        ConstrainedSystem(
            M=np.eye(2), A=np.eye(2), f=lambda t: np.zeros(2),
            u0=np.array([0.0, 0.0]),
            B2=np.array([[1.0, 0.0]]), g2=lambda t: np.ones(1))


def test_incompatible_initial_data_warning_points_at_the_caller():
    with pytest.warns(UserWarning, match="initial") as record:
        ConstrainedSystem(
            M=np.eye(2), A=np.eye(2), f=lambda t: np.zeros(2),
            u0=np.array([0.0, 0.0]),
            B2=np.array([[1.0, 0.0]]), g2=lambda t: np.ones(1))
    assert record[0].filename == __file__


def test_compatible_initial_data_is_silent(recwarn):
    ConstrainedSystem(
        M=np.eye(2), A=np.eye(2), f=lambda t: np.zeros(2),
        u0=np.array([1.0, 0.0]),
        B2=np.array([[1.0, 0.0]]), g2=lambda t: np.ones(1))
    assert len(recwarn) == 0


def test_constrained_system_shape_validation():
    with pytest.raises(ValueError):
        ConstrainedSystem(M=np.eye(2), A=np.eye(3),
                          f=lambda t: np.zeros(2), u0=np.zeros(2))
    with pytest.raises(ValueError):  # B2 without g2
        ConstrainedSystem(M=np.eye(2), A=np.eye(2), f=lambda t: np.zeros(2),
                          u0=np.zeros(2), B2=np.array([[1.0, 0.0]]))
    with pytest.raises(ValueError):  # B1 without g1
        ConstrainedSystem(M=np.eye(2), A=np.eye(2), f=lambda t: np.zeros(2),
                          u0=np.zeros(2), B1=np.array([[1.0, 0.0]]))
    with pytest.raises(ValueError, match="normU must have shape"):
        ConstrainedSystem(M=np.eye(3), A=np.eye(3), f=lambda t: np.zeros(3),
                          u0=np.zeros(3), normU=np.eye(2))
    with pytest.raises(ValueError, match="normQ1 must have shape"):
        ConstrainedSystem(M=np.eye(2), A=np.eye(2), f=lambda t: np.zeros(2),
                          u0=np.zeros(2), B1=np.array([[1.0, 0.0]]),
                          g1=lambda t: np.zeros(1), normQ1=np.eye(2))


# ---------------------------------------------------------------------------
# JSON ingestion


def test_load_system_round_trip(tmp_path):
    payload = {
        "name": "toy",
        "M": [[2.0, 0.0], [0.0, 1.0]],
        "A": [[1.0, 0.0], [0.0, 1.0]],
        "u0": [1.0, 0.0],
        "f": "zero",
        "exact_u": ["exp_neg_t", "zero"],
    }
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(payload))
    system = load_system(path)
    assert system.name == "toy"
    assert system.m == 2 and system.r1 == 0 and system.r2 == 0
    np.testing.assert_array_equal(system.f(0.3), [0.0, 0.0])
    np.testing.assert_allclose(system.exact_u(0.5), [np.exp(-0.5), 0.0])
    assert validate_system(system).passed


def test_load_system_with_constraint_block(tmp_path):
    payload = {
        "M": [[1.0, 0.0], [0.0, 1.0]],
        "A": [[2.0, -1.0], [-1.0, 2.0]],
        "u0": [0.0, 0.0],
        "B1": [[1.0, 1.0]],
        "g1": "zero",
        "exact_u": "zero",
        "exact_p": "zero",
    }
    path = tmp_path / "dae.json"
    path.write_text(json.dumps(payload))
    system = load_system(path)
    assert system.r1 == 1
    assert validate_system(system).passed


@pytest.mark.parametrize("payload,match", [
    ({"u0": [0.0]}, "M"),
    ({"M": [[1.0]], "u0": [0.0], "f": "cubic"}, "unknown preset"),
    ({"M": [[1.0]], "u0": [0.0], "exact_u": ["zero", "zero"]}, "dimension"),
    ({"M": [[1.0, 0.0], [0.0, 1.0]], "u0": [0.0, 0.0],
      "B2": [[1.0, 0.0, 0.0]], "g2": "zero"}, "B2 must have shape"),
    (5, "JSON object"),
    (None, "JSON object"),
    ({"M": 5, "u0": [0.0]}, "M must be a 2-D array"),
    ({"M": [[1.0]], "u0": [0.0], "B1": [[{}]]}, "B1 must be a 2-D array"),
    ({"M": [[1.0, 0.0], [0.0, None]], "u0": [0.0, 0.0]}, "M has non-finite"),
    ({"M": [[1.0]], "A": [[float("inf")]], "u0": [0.0]}, "A has non-finite"),
    ({"M": [[1.0]], "u0": [[0.0]]}, "u0 must be a 1-D array"),
    ({"M": [[1.0]], "u0": [0.0], "B1": [[1.0], [1.0, 2.0]]}, "B1 must be a 2-D array"),
    ({"M": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], "u0": [0.0, 0.0, 0.0],
      "normU": [[1.0, 0.0], [0.0, 1.0]]}, "normU must have shape"),
    ({"M": [[1.0, 0.0], [0.0, 1.0]], "u0": [0.0, 0.0], "B1": [[1.0, 0.0]], "g1": "zero",
      "normQ1": [[1.0, 0.0], [0.0, 1.0]]}, "normQ1 must have shape"),
])
def test_load_system_errors(tmp_path, payload, match):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=match):
        load_system(path)


def test_load_system_rejects_a_number_beyond_the_float_range(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text('{"M": [[1.0]], "A": [[1e400]], "u0": [0.0]}')
    with pytest.raises(ValueError, match="A has non-finite"):
        load_system(path)


@pytest.mark.parametrize("field", ["M", "A", "B1", "B2", "u0", "normU", "normQ1"])
def test_constrained_system_rejects_non_finite_arrays(field):
    fields = dict(M=np.eye(2), A=np.eye(2), u0=np.zeros(2), B1=np.array([[1.0, 1.0]]),
                  B2=np.array([[1.0, 0.0]]), normU=np.eye(2), normQ1=np.eye(1))
    fields[field] = np.where(np.ones_like(fields[field], dtype=bool), np.nan, fields[field])
    with pytest.raises(ValueError, match=f"{field} has non-finite"):
        ConstrainedSystem(f=lambda t: np.zeros(2), g1=lambda t: np.zeros(1),
                          g2=lambda t: np.zeros(1), **fields)


_JSON_LEAF = (st.none() | st.booleans() | st.integers(-10**400, 10**400)
              | st.floats(allow_nan=True, allow_infinity=True)
              | st.sampled_from(sorted(PRESET_FUNCTIONS)) | st.text(max_size=4))
_JSON = st.recursive(_JSON_LEAF, lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=12)


def _numbers(rows, cols):
    return st.lists(st.lists(st.floats(-3.0, 3.0), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payload=st.dictionaries(
    st.sampled_from(["M", "A", "u0", "B1", "B2", "lift", "normU", "normQ1",
                     "f", "g1", "g2", "exact_u", "exact_p", "name"]),
    _JSON | _numbers(2, 2) | _numbers(1, 2) | _numbers(2, 1) | st.lists(st.floats(-3.0, 3.0),
                                                                        max_size=2),
    max_size=14))
def test_load_system_random_payloads_load_or_raise_value_error(tmp_path, payload):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(payload))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # incompatible u0 warns and float overflow may warn
        try:
            system = load_system(path)
        except ValueError:
            return
    assert isinstance(system, ConstrainedSystem)
