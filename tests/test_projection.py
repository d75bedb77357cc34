"""The endpoint-interpolating slab projection, checked against small oracles.

Every nontrivial expected value is recomputed here from the defining
conditions (endpoint match + moment orthogonality) with plain linear
algebra in the monomial basis, independently of the shifted-Legendre
implementation.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dgtime import (
    BrokenFunction,
    ProjectionSpec,
    TimeMesh,
    build_uniform_mesh,
    dh_form,
    gauss_legendre,
    project_broken,
    project_slab,
)
from dgtime.projection import _slab_coeffs
from dgtime.timecore import _Slabs


def _spec(q, npts=8):
    return ProjectionSpec(q, gauss_legendre(npts))


def _monomial_oracle_q2(phi, a, b, nquad=12):
    """Solve for p(t) = alpha + beta*t with p(b) = phi(b) and
    int_a^b (p - phi) dt = 0, directly in the monomial basis."""
    quad = gauss_legendre(nquad)
    ts = a + (b - a) * quad.nodes
    integral = (b - a) * np.sum(quad.weights * np.array([phi(t) for t in ts]))
    K = np.array([[1.0, b], [b - a, 0.5 * (b * b - a * a)]])
    rhs = np.array([phi(b), integral])
    return np.linalg.solve(K, rhs)  # (alpha, beta)


def test_projects_t_squared_to_known_affine():
    # q = 2 on (0, 1]: conditions p(1) = 1 and int_0^1 p = 1/3 give
    # p(t) = -1/3 + (4/3) t.
    alpha, beta = _monomial_oracle_q2(lambda t: t * t, 0.0, 1.0)
    assert alpha == pytest.approx(-1.0 / 3.0, abs=1e-14)
    assert beta == pytest.approx(4.0 / 3.0, abs=1e-14)

    p = project_slab(lambda t: t * t, (0.0, 1.0), _spec(2))
    for t in np.linspace(0.0, 1.0, 7):
        assert p(t)[0] == pytest.approx(alpha + beta * t, abs=1e-13)


def test_projects_t_squared_on_interior_slab():
    # same conditions on (0.5, 1], oracle solved independently
    alpha, beta = _monomial_oracle_q2(lambda t: t * t, 0.5, 1.0)
    p = project_slab(lambda t: t * t, (0.5, 1.0), _spec(2))
    for t in (0.5, 0.7, 1.0):
        assert p(t)[0] == pytest.approx(alpha + beta * t, abs=1e-13)
    assert p(1.0)[0] == pytest.approx(1.0, abs=1e-14)


def test_q1_projection_is_endpoint_value():
    p = project_slab(lambda t: t, (0.0, 1.0), _spec(1))
    assert p.degree == 0
    assert p(0.3)[0] == pytest.approx(1.0)
    p2 = project_slab(np.exp, (0.25, 0.75), _spec(1))
    assert p2(0.4)[0] == pytest.approx(np.exp(0.75), rel=1e-14)


@settings(deadline=None, max_examples=80)
@given(
    q=st.integers(1, 5),
    a=st.floats(0.0, 2.0),
    width=st.floats(0.1, 2.0),
    data=st.data(),
)
def test_reproduces_polynomials_of_projected_degree(q, a, width, data):
    # Pi is a projection onto P_{q-1}: polynomials of degree <= q-1 are
    # reproduced exactly.
    coeffs = data.draw(
        st.lists(st.floats(-5.0, 5.0), min_size=q, max_size=q)
    )
    poly = np.polynomial.Polynomial(coeffs)
    b = a + width
    p = project_slab(lambda t: poly(t), (a, b), _spec(q))
    ts = np.linspace(a, b, 5)
    scale = 1.0 + np.abs(poly(ts)).max()
    assert np.abs(p.eval_many(ts)[0] - poly(ts)).max() <= 1e-10 * scale


@pytest.mark.parametrize("q", [1, 2, 3, 4])
@pytest.mark.parametrize("phi", [np.exp, np.sin, lambda t: 1.0 / (1.0 + t)])
def test_endpoint_interpolation(q, phi):
    for (a, b) in [(0.0, 1.0), (0.5, 0.75), (1.0, 3.0)]:
        p = project_slab(phi, (a, b), _spec(q))
        assert abs(p(b)[0] - phi(b)) <= 1e-12 * (1.0 + abs(phi(b)))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_moment_orthogonality_against_lower_degree(q):
    # int (Pi(phi) - phi) psi = 0 for all psi of degree <= q-2; with phi a
    # polynomial of degree <= 2q-2 the quadrature below is exact, so the
    # identity must hold to rounding.
    rng = np.random.default_rng(100 + q)
    a, b = 0.25, 1.5
    quad = gauss_legendre(12)
    ts = a + (b - a) * quad.nodes
    for _ in range(5):
        phi = np.polynomial.Polynomial(rng.uniform(-2, 2, size=2 * q - 1))
        p = project_slab(lambda t: phi(t), (a, b), _spec(q))
        err = p.eval_many(ts)[0] - phi(ts)
        scale = 1.0 + np.abs(phi(ts)).max()
        for kdeg in range(q - 1):
            moment = (b - a) * np.sum(quad.weights * err * ts**kdeg)
            assert abs(moment) <= 1e-11 * scale


def test_idempotent():
    spec = _spec(3)
    p1 = project_slab(np.exp, (0.0, 0.5), spec)
    p2 = project_slab(lambda t: p1(t)[0], (0.0, 0.5), spec)
    np.testing.assert_allclose(p2.coeffs, p1.coeffs, atol=1e-13)


def test_commutes_with_constant_matrices():
    # Pi(C phi) = C Pi(phi) componentwise
    rng = np.random.default_rng(5)
    C = rng.standard_normal((2, 3))
    phi = lambda t: np.array([np.sin(2 * t), np.exp(-t), t**3])
    mesh = build_uniform_mesh(1.0, 3)
    spec = _spec(3)
    P3 = project_broken(phi, mesh, 3, spec)
    P2 = project_broken(lambda t: C @ phi(t), mesh, 2, spec)
    np.testing.assert_allclose(P2.coeffs, P3.coeffs @ C.T, atol=1e-13)


def test_broken_projection_interpolates_every_breakpoint():
    mesh = build_uniform_mesh(1.0, 4)
    F = project_broken(lambda t: t * t, mesh, 1, _spec(2))
    for n in range(1, 5):
        tn = mesh.breakpoints[n]
        assert F.node_value(n)[0] == pytest.approx(tn * tn, abs=1e-13)
    # first slab reproduces the (0, 0.25] oracle
    alpha, beta = _monomial_oracle_q2(lambda t: t * t, 0.0, 0.25)
    assert F.eval(0.1)[0] == pytest.approx(alpha + beta * 0.1, abs=1e-13)


def test_broken_projection_dimension_check():
    mesh = build_uniform_mesh(1.0, 2)
    with pytest.raises(ValueError):
        project_broken(lambda t: np.array([t, t]), mesh, 3, _spec(2))


def test_spec_validates_quadrature_exactness():
    with pytest.raises(ValueError):
        ProjectionSpec(4, gauss_legendre(2))  # exactness 3 < 2q-2 = 6
    with pytest.raises(ValueError):
        ProjectionSpec(0, gauss_legendre(4))
    with pytest.raises(ValueError, match="integer"):
        ProjectionSpec(2.5, gauss_legendre(4))
    assert ProjectionSpec(np.int64(2), gauss_legendre(4)).q == 2
    with pytest.raises(ValueError):
        project_slab(np.exp, (1.0, 1.0), _spec(2))
    with pytest.raises(ValueError, match="data function must return a scalar or 1-D vector"):
        project_slab(lambda t: np.eye(2), (0.0, 1.0), _spec(2))


def _continuous_piecewise_cubic(mesh, rng, d):
    """Random continuous broken function of degree 3 (zero jumps)."""
    coeffs = rng.standard_normal((mesh.N, 4, d))
    for n in range(1, mesh.N):
        prev_end = coeffs[n - 1].sum(axis=0)
        e = (-1.0) ** np.arange(4)
        coeffs[n, 0] += prev_end - e @ coeffs[n]
    return BrokenFunction(mesh, coeffs)


@pytest.mark.parametrize("d", [1, 3])
def test_characterization_projection_error_invisible_to_dh_form(d):
    # For continuous w, D_H(Pi w - w, X) = 0 for every broken X of degree
    # <= q-1: the moment conditions kill the integral terms and endpoint
    # interpolation kills the jump and initial terms.
    rng = np.random.default_rng(42 + d)
    mesh = build_uniform_mesh(1.0, 4)
    quad = gauss_legendre(6)
    spec = ProjectionSpec(2, gauss_legendre(6))
    for _ in range(10):
        w = _continuous_piecewise_cubic(mesh, rng, d)
        Pw = project_broken(lambda t: w.eval(t), mesh, d, spec)
        E = Pw - w
        X = BrokenFunction(mesh, rng.standard_normal((4, 2, d)))
        val = dh_form(E, X, 1.0, quad)
        scale = 1.0 + abs(dh_form(w, X, 1.0, quad))
        assert abs(val) <= 1e-10 * scale


def test_misbroadcasting_data_falls_back_to_per_time_calls():
    # Reverses an array of times: the shape is right, the scalar probe at
    # the last time disagrees, so the projection evaluates time by time.
    def reversed_ramp(t):
        t = np.asarray(t, dtype=float)
        return t[None, ::-1] if t.ndim else np.array([t])

    mesh = build_uniform_mesh(1.0, 3)
    ref = project_broken(lambda t: t, mesh, 1, _spec(3))
    got = project_broken(reversed_ramp, mesh, 1, _spec(3))
    np.testing.assert_array_equal(got.coeffs, ref.coeffs)


@pytest.mark.parametrize("q", [1, 2, 3])
def test_one_call_gives_every_choice_bit_for_bit(q):
    # [True, False] returns what [True] and [False] return on their own,
    # from one array call of the field plus its scalar probe
    slabs = _Slabs.of([build_uniform_mesh(1.0, 3), TimeMesh([0.0, 0.1, 0.45, 1.0])])
    calls = []

    def g(t):
        calls.append(np.ndim(t))
        t = np.asarray(t, dtype=float)
        return np.stack([np.sin(3.0 * t), np.exp(t) - t * t])

    quad = _spec(q).quadrature
    both = _slab_coeffs(g, slabs, quad, q, "g", 2, [True, False])
    assert calls == [1, 0]
    assert both.shape == (2, 6, q, 2)
    for got, choice in zip(both, [True, False]):
        alone = _slab_coeffs(g, slabs, quad, q, "g", 2, [choice])
        assert alone.shape == (1, 6, q, 2)
        np.testing.assert_array_equal(got, alone[0])
