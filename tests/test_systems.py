import json

import numpy as np
import pytest

from dgtime import (
    ConstrainedSystem,
    ManufacturedSolution1D,
    build_heat_1d,
    build_saddle_dae,
    load_system,
    validate_system,
)
from dgtime.systems import EL_MASS, EL_STIFF, _p2_shapes


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
    np.testing.assert_allclose(system.B2 @ system.lift, np.eye(2), atol=1e-15)
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
    assert "mass matrix SPD" in names
    assert "stiffness symmetric" in names
    assert "constraint row rank" in names
    assert "kernel ellipticity" in names
    assert "inf-sup (B1 on ker B2)" in names
    assert report.warnings == ()


def test_validate_passes_on_heat():
    report = validate_system(build_heat_1d(4))
    assert report.passed
    assert "lift residual" in {c.name for c in report.checks}


def test_validate_flags_rank_deficient_constraints():
    system = ConstrainedSystem(
        M=np.eye(3), A=np.eye(3), f=lambda t: np.zeros(3),
        u0=np.zeros(3), B1=np.zeros((1, 3)), g1=lambda t: np.zeros(1),
        exact_p=None)
    report = validate_system(system)
    assert not report.passed
    failed = {c.name for c in report.checks if not c.ok}
    assert "constraint row rank" in failed


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
    assert "mass matrix SPD" in failed


def test_incompatible_initial_data_warns():
    with pytest.warns(UserWarning, match="initial"):
        ConstrainedSystem(
            M=np.eye(2), A=np.eye(2), f=lambda t: np.zeros(2),
            u0=np.array([0.0, 0.0]),
            B2=np.array([[1.0, 0.0]]), g2=lambda t: np.ones(1),
            lift=np.array([[1.0], [0.0]]))


def test_incompatible_initial_data_warning_points_at_the_caller():
    with pytest.warns(UserWarning, match="initial") as record:
        ConstrainedSystem(
            M=np.eye(2), A=np.eye(2), f=lambda t: np.zeros(2),
            u0=np.array([0.0, 0.0]),
            B2=np.array([[1.0, 0.0]]), g2=lambda t: np.ones(1),
            lift=np.array([[1.0], [0.0]]))
    assert record[0].filename == __file__


def test_compatible_initial_data_is_silent(recwarn):
    ConstrainedSystem(
        M=np.eye(2), A=np.eye(2), f=lambda t: np.zeros(2),
        u0=np.array([1.0, 0.0]),
        B2=np.array([[1.0, 0.0]]), g2=lambda t: np.ones(1),
        lift=np.array([[1.0], [0.0]]))
    assert len(recwarn) == 0


def test_constrained_system_shape_validation():
    with pytest.raises(ValueError):
        ConstrainedSystem(M=np.eye(2), A=np.eye(3),
                          f=lambda t: np.zeros(2), u0=np.zeros(2))
    with pytest.raises(ValueError):  # B2 without lift
        ConstrainedSystem(M=np.eye(2), A=np.eye(2), f=lambda t: np.zeros(2),
                          u0=np.zeros(2), B2=np.array([[1.0, 0.0]]),
                          g2=lambda t: np.zeros(1))
    with pytest.raises(ValueError):  # B1 without g1
        ConstrainedSystem(M=np.eye(2), A=np.eye(2), f=lambda t: np.zeros(2),
                          u0=np.zeros(2), B1=np.array([[1.0, 0.0]]))


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
      "B2": [[1.0, 0.0]], "g2": "zero"}, "lift"),
])
def test_load_system_errors(tmp_path, payload, match):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=match):
        load_system(path)
