"""Acceptance gate for the package: one test per shipped guarantee.

Each test prints a single [PASS]/[FAIL] line (straight to the console,
bypassing capture) and asserts, so `pytest tests/test_acceptance.py`
doubles as a human-readable conformance report.  Tolerances and rate
windows are part of the contract and must not be loosened.
"""

import math
import sys
import time

import numpy as np

from dgtime import (
    BrokenFunction,
    ConstrainedSystem,
    ManufacturedSolution1D,
    ProjectionSpec,
    SolverOptions,
    build_heat_1d,
    build_saddle_dae,
    build_uniform_mesh,
    constraint_residual,
    dh_form,
    dh_star_form,
    gauss_legendre,
    project_broken,
    project_slab,
    run_study,
    solve_constrained,
    solve_mixed,
    solve_monolithic,
)
from dgtime.systems import _STOKES3_A


def _report(num: int, description: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {description}"
    if detail:
        line += f"  [{detail}]"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def _rates(table, column):
    return [r for r in table.column(column) if r is not None]


def _errs(table, column):
    return table.column(column)


# ---------------------------------------------------------------------------
# 1. the defining example of the endpoint-interpolating projection


def test_criterion_01_projection_of_t_squared():
    spec = ProjectionSpec(2, gauss_legendre(4))
    project_slab(lambda t: t * t, (0.0, 1.0), spec)  # warm-up

    t0 = time.perf_counter()
    p = project_slab(lambda t: t * t, (0.0, 1.0), spec)
    elapsed = time.perf_counter() - t0

    ts = np.linspace(0.0, 1.0, 21)
    target = -1.0 / 3.0 + (4.0 / 3.0) * ts
    err = float(np.abs(p.eval_many(ts)[0] - target).max())
    ok = err <= 1e-12 and elapsed < 1e-3
    _report(1, "q=2 projection of t^2 on (0,1] equals -1/3 + (4/3) t",
            ok, f"max dev {err:.2e}, {elapsed * 1e6:.0f} us")


# ---------------------------------------------------------------------------
# 2. projection error is invisible to the DG derivative form


def test_criterion_02_characterization_of_the_projection():
    rng = np.random.default_rng(20240201)
    mesh = build_uniform_mesh(1.0, 4)
    quad = gauss_legendre(6)
    spec = ProjectionSpec(2, gauss_legendre(6))
    e4 = (-1.0) ** np.arange(4)
    worst = 0.0
    for _ in range(50):
        coeffs = rng.standard_normal((4, 4, 1))
        for n in range(1, 4):  # make w continuous: remove jumps
            coeffs[n, 0] += coeffs[n - 1].sum(axis=0) - e4 @ coeffs[n]
        w = BrokenFunction(mesh, coeffs)
        Pw = project_broken(lambda t: w.eval(t), mesh, 1, spec)
        X = BrokenFunction(mesh, rng.standard_normal((4, 2, 1)))
        num = abs(dh_form(Pw - w, X, 1.0, quad))
        den = 1.0 + abs(dh_form(w, X, 1.0, quad))
        worst = max(worst, num / den)
    ok = worst <= 1e-10
    _report(2, "D_H(proj w - w, X) = 0 for continuous piecewise cubics",
            ok, f"worst relative value {worst:.2e}")


# ---------------------------------------------------------------------------
# 3. antisymmetry and coercivity of the derivative forms


def test_criterion_03_form_antisymmetry_and_coercivity():
    rng = np.random.default_rng(20240202)
    worst_sym = 0.0
    worst_coer = 0.0
    for _ in range(100):
        N = int(rng.integers(1, 7))
        q = int(rng.integers(1, 5))
        d = int(rng.integers(1, 4))
        mesh = build_uniform_mesh(float(rng.uniform(0.5, 2.0)), N)
        R = rng.standard_normal((d, d))
        M = R @ R.T + d * np.eye(d)
        quad = gauss_legendre(q + 1)
        Y = BrokenFunction(mesh, rng.standard_normal((N, q, d)))
        X = BrokenFunction(mesh, rng.standard_normal((N, q, d)))
        a = dh_form(Y, X, M, quad)
        b = dh_star_form(Y, X, M, quad)
        worst_sym = max(worst_sym, abs(a + b) / (1.0 + abs(a) + abs(b)))
        yN = Y.node_value(N)
        self_val = dh_form(Y, Y, M, quad)
        lower = 0.5 * float(yN @ M @ yN)
        deficit = (lower - self_val) / (1.0 + abs(self_val) + lower)
        worst_coer = max(worst_coer, deficit)
    ok = worst_sym <= 1e-12 and worst_coer <= 1e-12
    _report(3, "D = -D* and D(Y,Y) >= ||Y^N||_M^2 / 2 on random broken functions",
            ok, f"antisymmetry {worst_sym:.2e}, coercivity deficit {worst_coer:.2e}")


# ---------------------------------------------------------------------------
# 4. polynomial exactness of the solvers


def _heat_poly_system(q):
    c = [0.7, -0.4, 0.3][:q]
    poly = np.polynomial.Polynomial(c)
    dpoly = poly.deriv()
    sol = ManufacturedSolution1D(
        u=lambda x, t: (1.0 + x + 3.0 * x * x) * poly(t),
        u_t=lambda x, t: (1.0 + x + 3.0 * x * x) * dpoly(t),
        u_xx=lambda x, t: 6.0 * poly(t) + 0.0 * x,
    )
    return build_heat_1d(3, sol)


def _saddle_poly_system(q, seed):
    rng = np.random.default_rng(seed)
    pu = [np.polynomial.Polynomial(rng.uniform(-1, 1, q)) for _ in range(3)]
    pp = np.polynomial.Polynomial(rng.uniform(-1, 1, q))
    return build_saddle_dae(
        M=np.eye(3), A=_STOKES3_A, B1=np.array([[1.0, 1.0, 1.0]]),
        exact_u=lambda t: np.array([p(t) for p in pu]),
        exact_du=lambda t: np.array([p.deriv()(t) for p in pu]),
        exact_p=lambda t: np.array([pp(t)]))


def test_criterion_04_polynomial_exactness():
    ts = np.linspace(0.04, 1.0, 25)
    worst = 0.0
    for q in (1, 2, 3):
        heat = _heat_poly_system(q)
        sol = solve_constrained(heat, build_uniform_mesh(1.0, 3), SolverOptions(q=q))
        scale = max(np.abs(heat.exact_u(t)).max() for t in ts)
        err = max(np.abs(sol.U.eval(t) - heat.exact_u(t)).max() for t in ts)
        worst = max(worst, err / scale)

        dae = _saddle_poly_system(q, seed=300 + q)
        sol = solve_mixed(dae, build_uniform_mesh(1.0, 3), SolverOptions(q=q))
        scale = max(np.abs(dae.exact_u(t)).max() for t in ts) + \
            max(np.abs(dae.exact_p(t)).max() for t in ts)
        err = max(np.abs(sol.U.eval(t) - dae.exact_u(t)).max() for t in ts)
        errp = max(np.abs(sol.P.eval(t) - dae.exact_p(t)).max() for t in ts)
        worst = max(worst, err / scale, errp / scale)
    ok = worst <= 1e-9
    _report(4, "solutions of temporal degree <= q-1 are reproduced exactly (q = 1, 2, 3)",
            ok, f"worst relative error {worst:.2e}")


# ---------------------------------------------------------------------------
# 5-9. convergence-rate windows


def test_criterion_05_energy_rate_is_q():
    t0 = time.perf_counter()
    table = run_study("heat1d", 2, [8, 16, 32, 64, 128], norms=("energy",))
    elapsed = time.perf_counter() - t0
    rates = _rates(table, "eoc_energy")
    ok = all(1.9 <= r <= 2.1 for r in rates) and elapsed < 10.0
    _report(5, "heat1d q=2 energy-norm orders in [1.9, 2.1] on N = 8..128",
            ok, f"EOC {', '.join(f'{r:.3f}' for r in rates)}, {elapsed:.2f}s")


def test_criterion_06_nodal_superconvergence_2q_minus_1():
    t0 = time.perf_counter()
    ok = True
    details = []
    for problem in ("heat1d", "stokes3"):
        table = run_study(problem, 2, [8, 16, 32, 64, 128], norms=("nodal",))
        errs = _errs(table, "err_nodal")
        rates = table.column("eoc_nodal")
        for i in range(1, len(errs)):
            at_floor = errs[i] < 1e-12
            rate_ok = rates[i] is not None and not math.isnan(rates[i]) \
                and 2.8 <= rates[i] <= 3.2
            ok = ok and (at_floor or rate_ok)
        shown = [f"{r:.3f}" if r is not None and not math.isnan(r) else "floor"
                 for r in rates[1:]]
        details.append(f"{problem}: {', '.join(shown)}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _report(6, "projected data gives nodal orders in [2.8, 3.2] at q=2",
            ok, f"{'; '.join(details)}, {elapsed:.2f}s")


def test_criterion_07_superconvergence_lost_without_projection():
    table = run_study("stokes3", 2, [16, 32, 64, 128],
                      use_projection=False, norms=("nodal",))
    rates = _rates(table, "eoc_nodal")
    ok = all(1.8 <= r <= 2.2 for r in rates)
    _report(7, "raw-moment data drops stokes3 nodal orders to [1.8, 2.2]",
            ok, f"EOC {', '.join(f'{r:.3f}' for r in rates)}")


def test_criterion_08_multiplier_rate_depends_on_projection():
    t0 = time.perf_counter()
    on = run_study("stokes3", 2, [8, 16, 32, 64], norms=("multiplier",))
    off = run_study("stokes3", 2, [8, 16, 32, 64],
                    use_projection=False, norms=("multiplier",))
    elapsed = time.perf_counter() - t0
    r_on = _rates(on, "eoc_p")
    r_off = _rates(off, "eoc_p")
    ok = all(1.9 <= r <= 2.1 for r in r_on) and all(r <= 1.3 for r in r_off) \
        and elapsed < 10.0
    _report(8, "stokes3 q=2 multiplier orders: ~2 projected, <= 1.3 raw",
            ok, f"on {', '.join(f'{r:.3f}' for r in r_on)}; "
                f"off {', '.join(f'{r:.3f}' for r in r_off)}, {elapsed:.2f}s")


def test_criterion_09_first_order_q1_and_high_order_q3():
    details = []
    ok = True
    for problem in ("heat1d", "stokes3"):
        table = run_study(problem, 1, [8, 16, 32, 64], norms=("energy",))
        rates = _rates(table, "eoc_energy")
        ok = ok and all(0.9 <= r <= 1.1 for r in rates)
        details.append(f"q=1 {problem}: {', '.join(f'{r:.2f}' for r in rates)}")

    table = run_study("stokes3", 3, [4, 8, 16, 32], norms=("nodal",))
    errs = _errs(table, "err_nodal")
    rates = table.column("eoc_nodal")
    for i in range(1, len(errs)):
        at_floor = errs[i] < 1e-12
        rate_ok = rates[i] is not None and not math.isnan(rates[i]) and rates[i] >= 4.5
        ok = ok and (at_floor or rate_ok)
    shown = [f"{r:.2f}" if r is not None and not math.isnan(r) else "floor"
             for r in rates[1:]]
    details.append(f"q=3 stokes3 nodal: {', '.join(shown)}")
    _report(9, "q=1 energy orders in [0.9, 1.1]; q=3 stokes3 nodal >= 4.5 or at floor",
            ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 10. the discrete constraint holds identically under projection


def _sup_norm_of_data(system):
    ts = np.linspace(0.0, 1.0, 201)
    sup = 0.0
    for g, r in ((system.g1, system.r1), (system.g2, system.r2)):
        if r > 0:
            sup = max(sup, max(np.abs(np.atleast_1d(g(t))).max() for t in ts))
    return sup


def test_criterion_10_constraint_residual_at_machine_precision():
    # every projection-on configuration exercised by the rate criteria
    configs = (
        [("heat1d", 2, N) for N in (8, 16, 32, 64, 128)]
        + [("stokes3", 2, N) for N in (8, 16, 32, 64, 128)]
        + [("heat1d", 1, N) for N in (8, 16, 32, 64)]
        + [("stokes3", 1, N) for N in (8, 16, 32, 64)]
        + [("stokes3", 3, N) for N in (4, 8, 16, 32)]
    )
    worst = 0.0
    for problem, q, N in configs:
        system = build_heat_1d(4) if problem == "heat1d" else build_saddle_dae("stokes3")
        mesh = build_uniform_mesh(1.0, N)
        opts = SolverOptions(q=q, use_projection=True)
        sol = solve_constrained(system, mesh, opts)
        res = constraint_residual(system, mesh, opts, sol.U).max()
        worst = max(worst, res / (1.0 + _sup_norm_of_data(system)))
    ok = worst <= 1e-11
    _report(10, "projected constraint B U = proj(g) holds slab-wise to 1e-11 (1 + |g|_inf)",
            ok, f"worst scaled residual {worst:.2e} over {len(configs)} solves")


# ---------------------------------------------------------------------------
# 11. unconditional energy stability


def test_criterion_11_energy_stability_random_systems():
    rng = np.random.default_rng(20250822)
    worst = -np.inf
    for trial in range(20):
        m = 2 + trial % 5
        QM, _ = np.linalg.qr(rng.standard_normal((m, m)))
        M = QM @ np.diag(rng.uniform(0.5, 3.0, m)) @ QM.T
        QA, _ = np.linalg.qr(rng.standard_normal((m, m)))
        A = QA @ np.diag(rng.uniform(0.1, 2.0, m)) @ QA.T
        u0 = rng.standard_normal(m)
        B1 = g1 = None
        if trial % 2:
            B1 = rng.standard_normal((1, m))
            u0 = u0 - B1[0] * (B1[0] @ u0) / (B1[0] @ B1[0])  # B1 u0 = 0
            g1 = lambda t: np.zeros(1)
        system = ConstrainedSystem(M=M, A=A, f=lambda t: np.zeros(m),
                                   u0=u0, B1=B1, g1=g1)
        q = 1 + trial % 3
        sol = solve_mixed(system, build_uniform_mesh(1.0, 5), SolverOptions(q=q))
        uN = sol.U.node_value(5)
        growth = math.sqrt(uN @ M @ uN) - math.sqrt(u0 @ M @ u0)
        worst = max(worst, growth)
    ok = worst <= 1e-10
    _report(11, "homogeneous solves never grow the M-norm: ||U^N|| <= ||u0|| + 1e-10",
            ok, f"worst growth {worst:.3e} over 20 random SPD systems")


# ---------------------------------------------------------------------------
# 12. sequential and monolithic solves agree


def test_criterion_12_sequential_matches_monolithic():
    worst = 0.0
    cases = []
    for use_projection in (True, False):
        cases.append((build_saddle_dae("stokes3"), 4, 2, use_projection))
    cases.append((build_heat_1d(3), 3, 2, True))
    cases.append((build_heat_1d(3), 4, 1, True))
    for system, N, q, use_projection in cases:
        mesh = build_uniform_mesh(1.0, N)
        opts = SolverOptions(q=q, use_projection=use_projection)
        seq = solve_constrained(system, mesh, opts)
        mono = solve_monolithic(system, mesh, opts)
        dev = np.abs(seq.U.coeffs - mono.U.coeffs).max() / (1.0 + np.abs(seq.U.coeffs).max())
        worst = max(worst, dev)
        if seq.P is not None:
            devp = np.abs(seq.P.coeffs - mono.P.coeffs).max() / (1.0 + np.abs(seq.P.coeffs).max())
            worst = max(worst, devp)
    ok = worst <= 1e-11
    _report(12, "slab-sequential and all-at-once solves agree to 1e-11 (N <= 4)",
            ok, f"worst relative deviation {worst:.2e}")


# ---------------------------------------------------------------------------
# 13. the paper's two constraint treatments give one discrete state


def test_criterion_13_explicit_and_implicit_constraints_give_one_state():
    explicit = build_heat_1d(4)
    # the same problem with its Dirichlet rows weak, through a multiplier
    implicit = ConstrainedSystem(M=explicit.M, A=explicit.A, f=explicit.f, u0=explicit.u0,
                                 B1=explicit.B2, g1=explicit.g2, exact_u=explicit.exact_u)
    mesh = build_uniform_mesh(1.0, 32)
    worst = 0.0
    for solve in (solve_constrained, solve_monolithic):
        for q in (1, 2, 3):
            for use_projection in (True, False):
                opts = SolverOptions(q=q, use_projection=use_projection)
                U = solve(explicit, mesh, opts).U.coeffs
                dev = np.abs(solve(implicit, mesh, opts).U.coeffs - U).max() / np.abs(U).max()
                worst = max(worst, dev)
    ok = worst <= 1e-13
    _report(13, "heat1d's Dirichlet rows eliminated (B2) or weak (B1) give one state to 1e-13",
            ok, f"worst relative deviation {worst:.2e}, q = 1..3, both solvers")
