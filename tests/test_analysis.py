import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dgtime import analysis
from dgtime import (
    BrokenFunction,
    ConstrainedSystem,
    DataError,
    SlabSolveError,
    EOC_FLOOR,
    SolverOptions,
    build_saddle_dae,
    build_uniform_mesh,
    eoc,
    error_l2_energy,
    error_l2_multiplier,
    error_nodal_max,
    gauss_legendre,
    l2_project_broken,
    run_study,
    solve_constrained,
    solve_mixed,
)


def _zero_broken(mesh, q=1, d=1):
    return BrokenFunction(mesh, np.zeros((mesh.N, q, d)))


# ---------------------------------------------------------------------------
# error norms against closed-form values


def test_energy_error_of_zero_against_ramp():
    # U = 0, exact = t on (0, 1]: error = sqrt(int_0^1 t^2) = 1/sqrt(3)
    mesh = build_uniform_mesh(1.0, 4)
    err = error_l2_energy(_zero_broken(mesh), lambda t: t, 1.0, gauss_legendre(4))
    assert err == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-13)


def test_energy_error_of_zero_against_constant():
    # |c| * sqrt(T), here with a weight matrix w: |c| sqrt(w T)
    mesh = build_uniform_mesh(2.0, 3)
    err = error_l2_energy(_zero_broken(mesh), lambda t: -3.0,
                          np.array([[4.0]]), gauss_legendre(3))
    assert err == pytest.approx(3.0 * math.sqrt(4.0 * 2.0), rel=1e-13)


def test_energy_error_zero_for_represented_solution():
    # t is in the q = 2 broken space; the interpolant has zero error
    mesh = build_uniform_mesh(1.0, 4)
    coeffs = np.zeros((4, 2, 1))
    for n in range(4):
        a, b = mesh.breakpoints[n], mesh.breakpoints[n + 1]
        coeffs[n, 0, 0] = 0.5 * (a + b)
        coeffs[n, 1, 0] = 0.5 * (b - a)
    U = BrokenFunction(mesh, coeffs)
    err = error_l2_energy(U, lambda t: t, 1.0, gauss_legendre(5))
    assert err <= 1e-14


def test_energy_error_weight_shape_guard():
    mesh = build_uniform_mesh(1.0, 2)
    with pytest.raises(ValueError):
        error_l2_energy(_zero_broken(mesh, d=2), lambda t: np.zeros(2),
                        np.eye(3), gauss_legendre(3))


def test_nodal_error_max_location():
    # U = 0 against exact = t with M = [[4]]: nodal errors 2 * t_n, max at T
    mesh = build_uniform_mesh(1.0, 4)
    err = error_nodal_max(_zero_broken(mesh), lambda t: t, np.array([[4.0]]))
    assert err == pytest.approx(2.0, rel=1e-14)


def test_nodal_error_recomputed_independently():
    system = build_saddle_dae("stokes3")
    mesh = build_uniform_mesh(1.0, 16)
    sol = solve_mixed(system, mesh, SolverOptions(q=2))
    err = error_nodal_max(sol.U, system.exact_u, system.M)
    by_hand = 0.0
    for n in range(1, 17):
        tn = mesh.breakpoints[n]
        d = sol.U.coeffs[n - 1].sum(axis=0) - system.exact_u(tn)
        by_hand = max(by_hand, math.sqrt(d @ system.M @ d))
    assert err == pytest.approx(by_hand, rel=1e-14)


def test_multiplier_error_is_weighted_l2():
    mesh = build_uniform_mesh(1.0, 2)
    err = error_l2_multiplier(_zero_broken(mesh), lambda t: 2.0,
                              np.eye(1), gauss_legendre(3))
    assert err == pytest.approx(2.0, rel=1e-13)


def test_error_quadrature_is_sufficient():
    # q + 3 Gauss points resolve the smooth error integrand: refining the
    # rule further must not change the reported error noticeably
    system = build_saddle_dae("stokes3")
    mesh = build_uniform_mesh(1.0, 8)
    sol = solve_mixed(system, mesh, SolverOptions(q=2))
    coarse = error_l2_energy(sol.U, system.exact_u, system.normU, gauss_legendre(5))
    fine = error_l2_energy(sol.U, system.exact_u, system.normU, gauss_legendre(12))
    assert abs(coarse - fine) <= 1e-8 * fine


# ---------------------------------------------------------------------------
# estimated orders of convergence


def test_eoc_exact_halving():
    assert eoc([0.4, 0.1], [4, 8]) == [pytest.approx(2.0, abs=1e-13)]


def test_eoc_tabulated_second_order_pair():
    # published second-order run: errors 0.46966 -> 0.11928 over N 4 -> 8
    val = eoc([0.46966, 0.11928], [4, 8])[0]
    assert val == pytest.approx(1.977, abs=5e-4)


def test_eoc_tabulated_near_two_pair():
    val = eoc([0.02990, 0.00748], [16, 32])[0]
    assert val == pytest.approx(1.999, abs=2e-3)


def test_eoc_marks_floor_entries_nan():
    vals = eoc([1e-5, 1e-14, 5e-15], [8, 16, 32])
    assert math.isnan(vals[0]) and math.isnan(vals[1])


def test_eoc_validation():
    with pytest.raises(ValueError):
        eoc([1.0], [4])
    with pytest.raises(ValueError):
        eoc([1.0, 0.5], [8, 4])
    with pytest.raises(ValueError):
        eoc([1.0, -0.5], [4, 8])
    with pytest.raises(ValueError):
        eoc([1.0, 0.5, 0.25], [4, 8])
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            eoc([1.0, bad], [4, 8])


@settings(deadline=None, max_examples=60)
@given(
    errs=st.lists(st.floats(1e-9, 1e3), min_size=2, max_size=6),
    scale=st.floats(1e-3, 1e3),
)
def test_eoc_scale_invariance(errs, scale):
    Ns = [4 * 2**i for i in range(len(errs))]
    base = eoc(errs, Ns)
    scaled = eoc([scale * e for e in errs], Ns)
    for x, y in zip(base, scaled):
        assert x == pytest.approx(y, abs=1e-9)


# ---------------------------------------------------------------------------
# plain L2 slab projection (measurement utility)


def test_l2_projection_reproduces_low_degree():
    mesh = build_uniform_mesh(1.0, 3)
    F = l2_project_broken(lambda t: 2.0 - t, mesh, 1, 2, gauss_legendre(6))
    for t in (0.1, 0.5, 0.9):
        assert F.eval(t)[0] == pytest.approx(2.0 - t, abs=1e-13)


def test_l2_projection_misses_endpoint_where_interpolating_projection_hits():
    # L2-best affine fit of t^2 on (0, 1] is t - 1/6, which misses the
    # endpoint by 1/6; the constraint-data projection hits it exactly.
    mesh = build_uniform_mesh(1.0, 1)
    F = l2_project_broken(lambda t: t * t, mesh, 1, 2, gauss_legendre(6))
    assert F.node_value(1)[0] == pytest.approx(1.0 - 1.0 / 6.0, abs=1e-13)


# ---------------------------------------------------------------------------
# study orchestration


def test_run_study_row_layout():
    table = run_study("heat1d", 2, [4, 8])
    assert table.problem == "heat1d"
    assert table.q == 2 and table.use_projection
    assert [r.N for r in table.rows] == [4, 8]
    assert table.rows[0].k == pytest.approx(0.25)
    assert table.rows[0].eoc_energy is None          # no previous level
    assert table.rows[1].eoc_energy == pytest.approx(
        math.log2(table.rows[0].err_energy / table.rows[1].err_energy), rel=1e-12)
    assert table.rows[0].err_p is None               # multiplier not selected
    assert table.column("N") == [4, 8]
    assert run_study("heat1d", 2, np.array([4, 8])) == table  # numpy integers are counts


def test_run_study_single_level_has_no_orders():
    table = run_study("stokes3", 1, [4], norms=("nodal",))
    assert table.rows[0].eoc_nodal is None
    assert table.rows[0].err_nodal > 0.0
    assert table.rows[0].err_energy is None


def test_run_study_multiplier_column():
    table = run_study("stokes3", 2, [4, 8], norms=("multiplier",))
    assert table.rows[0].err_p > 0
    assert table.rows[1].eoc_p is not None


def test_a_both_variant_study_takes_each_norms_orders_from_one_eoc_call(monkeypatch):
    calls, Ns = [], (4, 8, 16)

    def counting_eoc(errors, levels):
        calls.append(tuple(levels))
        return eoc(errors, levels)

    monkeypatch.setattr(analysis, "eoc", counting_eoc)
    tables = analysis._run_studies("stokes3", 2, Ns, [True, False],
                                   ("energy", "nodal", "multiplier"))
    assert calls == [Ns] * 6  # three norms, two variants
    for table in tables:
        for name in ("energy", "nodal", "p"):
            errs = table.column(f"err_{name}")
            assert table.column(f"eoc_{name}") == [None] + [eoc(errs[i:i + 2], Ns[i:i + 2])[0]
                                                            for i in range(len(Ns) - 1)]


def test_run_study_argument_validation():
    with pytest.raises(ValueError):
        run_study("heat1d", 2, [])
    with pytest.raises(ValueError):
        run_study("heat1d", 2, [8, 4])
    with pytest.raises(ValueError):
        run_study("heat1d", 2, [4, 8], norms=("energy", "sup"))
    with pytest.raises(ValueError):
        run_study("heat1d", 2, [4, 8], norms=("multiplier",))  # r1 = 0
    with pytest.raises(ValueError):
        run_study("wave2d", 2, [4, 8])
    with pytest.raises(ValueError, match="integers"):
        run_study("stokes3", 2, (4.7, 8))
    with pytest.raises(ValueError, match="not the string 'nodal'"):  # not n, o, d, a, l
        run_study("stokes3", 2, [8, 16], norms="nodal")
    with pytest.raises(ValueError, match="convergence study needs a system with exact_u"):
        run_study(dataclasses.replace(build_saddle_dae("stokes3"), exact_u=None), 2, [4, 8])


def test_run_study_rejects_empty_norms_before_solving(monkeypatch):
    def no_solve(*args):
        raise AssertionError("solved before rejecting norms")

    monkeypatch.setattr(analysis, "_march", no_solve)
    for norms in ((), []):
        with pytest.raises(ValueError, match="norms must name at least one of"):
            run_study("stokes3", 2, [4, 8], norms=norms)


def test_run_study_rejects_a_projection_switch_that_is_not_a_bool(monkeypatch):
    # "off" is truthy: accepted, it would run and title a table with the projection on
    def no_solve(*args):
        raise AssertionError("solved before rejecting the switch")

    monkeypatch.setattr(analysis, "_march", no_solve)
    with pytest.raises(ValueError, match="use_projection must be a bool, got 'off'"):
        run_study("stokes3", 2, [8, 16], use_projection="off")


@pytest.mark.parametrize("switch", ["off", "on", 0, 1, None])
def test_eoc_table_rejects_a_projection_switch_that_is_not_a_bool(switch):
    # SolverOptions' rule and message: a table titled "projection on" must have run with it on
    message = f"use_projection must be a bool, got {re.escape(repr(switch))}"
    with pytest.raises(ValueError, match=message):
        analysis.EOCTable(problem="stokes3", q=2, use_projection=switch, rows=())
    for ok in (True, False, np.True_, np.False_):
        assert analysis.EOCTable("stokes3", 2, ok, ()).use_projection == ok


@pytest.mark.parametrize("Ns", [(8, 8), (16, 8)])
def test_study_and_eoc_reject_slab_counts_that_do_not_increase(Ns, monkeypatch):
    def no_solve(*args):
        raise AssertionError("solved before rejecting Ns")

    monkeypatch.setattr(analysis, "_march", no_solve)
    with pytest.raises(ValueError, match="Ns must be strictly increasing"):
        run_study("stokes3", 2, Ns)
    with pytest.raises(ValueError, match="Ns must be strictly increasing"):
        eoc([1.0, 0.5], Ns)


def test_run_study_rejects_q_beyond_its_error_rule(monkeypatch):
    def no_solve(*args):
        raise AssertionError("solved before rejecting q")

    monkeypatch.setattr(analysis, "_march", no_solve)
    with pytest.raises(ValueError, match="q must be at most 13 for a study"):
        run_study("stokes3", 14, [4, 8])


def test_run_study_accepts_custom_system_without_name():
    zero = lambda t: np.zeros(2)
    system = build_saddle_dae(M=np.eye(2), A=np.eye(2), exact_u=zero, exact_du=zero)
    table = run_study(system, 1, [2, 4], norms=("nodal",))
    assert table.problem == "saddle-dae"
    assert all(r.err_nodal <= 1e-14 for r in table.rows)


def test_nonfinite_exact_solution_raises_data_error():
    system = build_saddle_dae("stokes3")
    sol = solve_mixed(system, build_uniform_mesh(1.0, 4), SolverOptions(q=2))
    quad = gauss_legendre(5)
    nan_u = lambda t: system.exact_u(t) + np.where(np.asarray(t) > 0.6, np.nan, 0.0)
    with pytest.raises(DataError, match="non-finite exact_u data on slab 3"):
        error_l2_energy(sol.U, nan_u, system.normU, quad)
    with pytest.raises(DataError, match="non-finite exact_u data on slab 3"):
        error_nodal_max(sol.U, nan_u, system.M)
    with pytest.raises(DataError, match="exact_p returned shape"):
        error_l2_multiplier(sol.P, lambda t: np.zeros(2), system.normQ1, quad)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("weight", [lambda d: -np.eye(d), lambda d: -1.0], ids=["matrix", "scalar"])
def test_public_norms_reject_an_indefinite_weight(weight):
    # the error names the norm and its weight, and no RuntimeWarning escapes
    system = build_saddle_dae("stokes3")
    sol = solve_constrained(system, build_uniform_mesh(1.0, 4), SolverOptions(q=2))
    quad = gauss_legendre(5)
    with pytest.raises(ValueError, match="error_l2_energy is NaN: its weight normU is not "
                                         "positive semidefinite"):
        error_l2_energy(sol.U, system.exact_u, weight(3), quad)
    with pytest.raises(ValueError, match="error_nodal_max is NaN: its weight M is not"):
        error_nodal_max(sol.U, system.exact_u, weight(3))
    with pytest.raises(ValueError, match="error_l2_multiplier is NaN: its weight normQ1 is not"):
        error_l2_multiplier(sol.P, system.exact_p, weight(1), quad)
    assert error_l2_energy(sol.U, system.exact_u, system.normU, quad) > 0.0


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("Ns", [(4, 8), (4,)], ids=["two-levels", "one-level"])
def test_run_study_rejects_a_non_finite_error(Ns):
    # an indefinite norm weight makes the energy error sqrt(negative) = nan
    system = dataclasses.replace(build_saddle_dae("stokes3"), normU=-np.eye(3))
    with pytest.raises(ValueError, match=r"err_energy is not finite \(nan\) at N = 4"):
        run_study(system, 2, Ns)


def _or_nan(norm, *args):
    """norm(*args), or nan where the public norm rejects a NaN error, which a study reports."""
    try:
        return norm(*args)
    except ValueError as err:
        if " is NaN: " not in str(err):
            raise
        return math.nan


def _level_by_level(system, q, Ns, norms):
    """The study's levels solved and measured one after the other, each on its own."""
    quad = gauss_legendre(q + 3)
    for N in Ns:
        sol = solve_constrained(system, build_uniform_mesh(1.0, N), SolverOptions(q=q))
        rec = {}
        if "energy" in norms:
            rec["err_energy"] = _or_nan(error_l2_energy, sol.U, system.exact_u, system.normU, quad)
        if "nodal" in norms:
            rec["err_nodal"] = _or_nan(error_nodal_max, sol.U, system.exact_u, system.M)
        for key, err in rec.items():
            if not math.isfinite(err):
                raise ValueError(f"{key} is not finite ({err}) at N = {N}")


def _nan_at(fn, t0):
    """fn with NaN data at exactly the time t0, evaluable at one time or an array of times."""
    return lambda t: fn(t) + np.where(np.asarray(t) == t0, np.nan, 0.0)


def _failing_levels():
    stokes3 = build_saddle_dae("stokes3")
    # 0.75 is the right end of slab 3 at N = 4; N = 2 samples g1 only at other times
    nan_g1 = dataclasses.replace(stokes3, g1=_nan_at(stokes3.g1, 0.75))
    # q = 1 blocks are 1 - 2k: singular at k = 0.5, the width of the N = 2 level only
    growth = ConstrainedSystem(M=np.eye(1), A=-2.0 * np.eye(1), f=lambda t: 0.0 * np.asarray(t),
                               u0=np.ones(1), normU=np.eye(1),
                               exact_u=lambda t: np.exp(2.0 * np.asarray(t)))
    # an indefinite norm weight makes every energy error sqrt(negative) = nan
    indefinite = dataclasses.replace(stokes3, normU=-np.eye(3))
    # finite data whose multiplier leaves the float range on slab 7 of the
    # N = 8 level only: with q = 1, u2 is g1 at each slab's right end, and
    # g1 is 1.7e308 at t = 0.875 and -1.7e308 elsewhere, so p, which jumps
    # with u2, overflows on the slab ending at 0.875
    zero = lambda t: 0.0 * np.asarray(t, dtype=float)
    g1 = lambda t: np.where(np.asarray(t) == 0.875, 1.7e308, -1.7e308)[None]
    overflow = ConstrainedSystem(M=np.eye(2), A=np.zeros((2, 2)), B1=np.array([[0.0, 1.0]]),
                                 f=lambda t: np.array([zero(t), zero(t)]), g1=g1,
                                 u0=np.array([0.0, -1.7e308]),
                                 exact_u=lambda t: np.array([zero(t), g1(t)[0]]))
    return {
        "data error on a finer level": (nan_g1, 2, (2, 4, 8), DataError,
                                        "non-finite g1 data on slab 3"),
        "singular width of one level": (growth, 1, (1, 2, 4), SlabSolveError,
                                        "slab 1: singular slab system"),
        "non-finite error": (indefinite, 2, (4, 8), ValueError,
                             r"err_energy is not finite \(nan\) at N = 4"),
        "overflow on a finer level": (overflow, 1, (2, 4, 8), SlabSolveError,
                                      "slab 7: non-finite solution coefficients"),
    }


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("case", sorted(_failing_levels()))
def test_a_failing_level_raises_what_its_own_solve_raises(case):
    system, q, Ns, error, message = _failing_levels()[case]
    norms = ("energy", "nodal")
    with pytest.raises(error, match=message) as alone:
        _level_by_level(system, q, Ns, norms)
    with pytest.raises(error) as study:
        run_study(system, q, Ns, norms=norms)
    assert type(study.value) is type(alone.value)
    assert str(study.value) == str(alone.value)
    # a both-variant study raises what its projection-on study raises alone
    with pytest.raises(error) as both:
        analysis._run_studies(system, q, Ns, [True, False], norms)
    assert type(both.value) is type(alone.value)
    assert str(both.value) == str(alone.value)


def _failing_variants():
    stokes3 = build_saddle_dae("stokes3")
    # at q = 1 only the L2 projection samples g1 at the nodes; this is the
    # first node of slab 2 at N = 4, the times _slab_nodes computes
    node = 0.25 + 0.25 * SolverOptions(q=1).quadrature().nodes[0]
    nan_node = dataclasses.replace(stokes3, g1=_nan_at(stokes3.g1, node))
    return {
        # projection on passes, so the projection-off error is raised
        "data error of projection off only": nan_node,
        # projection on fails only at its norms, after the data stage at
        # which projection off fails
        "projection on fails at a later stage": dataclasses.replace(nan_node, normU=-np.eye(3)),
    }


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("case", sorted(_failing_variants()))
def test_a_both_variant_study_raises_what_its_first_failing_variant_raises(case):
    system, norms = _failing_variants()[case], ("energy", "nodal")
    alone = []
    for use_projection in (True, False):
        try:
            run_study(system, 1, (2, 4), use_projection=use_projection, norms=norms)
        except (ValueError, SlabSolveError) as exc:
            alone.append(exc)
    assert alone
    with pytest.raises(type(alone[0])) as study:
        analysis._run_studies(system, 1, (2, 4), [True, False], norms)
    assert type(study.value) is type(alone[0])
    assert str(study.value) == str(alone[0])
