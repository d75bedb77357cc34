"""The benchmark's workloads: inputs, one pass, and its correctness checks.

Each pass is one closed-loop request: the benchmark is the only caller and
starts the next pass when the previous one has returned.  A pass runs the
workload's solves, error norms and checks; the operations it counts are
its solve calls and its checks, and an exception fails every operation
the pass had not finished.  Passes are sized to take well under a second,
so that a run holds dozens of them (see run.py for why).
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from dgtime import (
    ProjectionSpec,
    SolverOptions,
    TimeMesh,
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
    project_broken,
    run_study,
    solve_constrained,
    solve_mixed,
)
from dgtime.cli import format_csv
from dgtime.cli import main as cli_main

REFERENCE = json.loads((Path(__file__).resolve().parent / "reference.json").read_text())

# Errors are compared with reference.json to this relative tolerance.  The
# CSV cells carry 6 significant digits, so two correct runs differ by at
# most one unit in the 6th digit; errors near 1e-12 also carry rounding.
REL_TOL = 1e-3
EOC_TOL = 0.1               # half-width of every EOC band
CONSTRAINT_TOL = 1e-10      # constraint_residual, projection on
DG_RESIDUAL_TOL = 1e-12     # dg_residual: rounding level for O(1) data
# A jittered slab is at most about 1.5x the widest unjittered one, and the
# nodal error scales with width^(2q-1) = width^5, so 1.5^5 < 8.
GRADED_NODAL_FACTOR = 8.0


class Tally:
    """Operations of one pass: each solve call and each correctness check."""

    def __init__(self, planned: int):
        self.planned = planned
        self.ok = 0
        self.failures = []

    def op(self, name: str, ok: bool, detail: str = ""):
        if ok:
            self.ok += 1
        else:
            self.failures.append(f"{name}: {detail}" if detail else name)

    def abort(self, exc: BaseException):
        self.failures.append(f"raised {type(exc).__name__}: {exc}")

    @property
    def failed(self) -> int:
        return self.planned - self.ok


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= REL_TOL * abs(ref)


def _cell(text: str) -> float:
    """A CSV number; "at-floor" and empty cells read as nan and fail checks."""
    try:
        return float(text)
    except ValueError:
        return math.nan


def _width_classes(mesh: TimeMesh) -> int:
    """Distinct float slab widths: the keys of the solver's factor cache."""
    return int(np.unique(np.diff(mesh.breakpoints)).size)


class Workload:
    name = ""
    seeded = False
    q = 2
    solve_s = None  # seconds in the last pass's solve call; None if it has none

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        self.size = "tiny" if tiny else "full"
        self.workdir = workdir
        self.opts = SolverOptions(q=self.q)
        self.ref = REFERENCE[self.name][self.size]

    def warmup(self, system):
        """One solve on a 2-slab mesh: loads LAPACK and fills lazy state."""
        solve = solve_constrained if system.r2 else solve_mixed
        solve(system, build_uniform_mesh(1.0, 2), self.opts)


class Stokes3Study(Workload):
    name = "stokes3_study"
    NORMS = ("energy", "nodal", "multiplier")
    # Paper bands for q = 2: with the projection, energy q, nodal 2q - 1 and
    # multiplier q; without it, nodal falls to q and the multiplier to q - 1.
    BANDS = {"on": {"eoc_energy": 2.0, "eoc_nodal": 3.0, "eoc_p": 2.0},
             "off": {"eoc_energy": 2.0, "eoc_nodal": 2.0, "eoc_p": 1.0}}

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        self.Ns = (32, 64, 128) if tiny else (32, 64, 128, 256, 512)
        self.meshes = [build_uniform_mesh(1.0, N) for N in self.Ns]
        self.slabs = 2 * sum(self.Ns)
        self.width_classes = 2 * sum(_width_classes(m) for m in self.meshes)
        self.ops_per_pass = 2 * len(self.Ns) + 5
        self.out = workdir / "study.csv"
        self.tables = {v: workdir / f"study_projection_{v}.csv" for v in ("on", "off")}

    def build(self):
        return build_saddle_dae("stokes3")

    def run_pass(self, system, tracer, tally):
        for path in self.tables.values():
            path.unlink(missing_ok=True)
        solves = len(self.Ns)
        if tracer.enabled:
            # cli.main builds its own system, so the traced pass makes the
            # calls cli.main makes, with the wrapped system.
            for variant in ("on", "off"):
                with tracer.span("analysis.run_study"):
                    table = run_study(system, self.q, self.Ns, use_projection=variant == "on",
                                      norms=self.NORMS)
                for _ in range(solves):
                    tally.op("solve", True)
                with tracer.span("cli.format_csv"):
                    text = format_csv(table)
                self.tables[variant].write_text(text, encoding="utf-8")
        else:
            with redirect_stdout(io.StringIO()):  # "wrote <path>" lines
                rc = cli_main(["study", "--problem", "stokes3", "--q", str(self.q),
                               "--Ns", ",".join(map(str, self.Ns)), "--projection", "both",
                               "--norms", ",".join(self.NORMS), "--format", "csv",
                               "--output", str(self.out)])
            for _ in range(2 * solves):
                tally.op("solve", rc == 0, f"dgtime study exited {rc}")
        self.check(tally)

    def check(self, tally):
        rows = {}
        for variant, path in self.tables.items():
            with open(path, newline="", encoding="utf-8") as fh:
                rows[variant] = list(csv.DictReader(fh))
        tally.op("tables_written", all(
            [int(r["N"]) for r in rows[v]] == list(self.Ns) for v in rows))
        for variant, table in rows.items():
            bad = [f"{col}={r[col]} at N={r['N']}" for r in table[1:]
                   for col, want in self.BANDS[variant].items()
                   if not abs(_cell(r[col]) - want) <= EOC_TOL]
            tally.op(f"eoc_bands_{variant}", not bad, "; ".join(bad))
            ref = self.ref[variant]
            bad = [f"{col}={r[col]} at N={r['N']} (reference {ref[col][i]:.6g})"
                   for col in ref for i, r in enumerate(table)
                   if not _close(_cell(r[col]), ref[col][i])]
            tally.op(f"reference_{variant}", not bad, "; ".join(bad))

    def replay(self, system):
        """Layers the study runs internally, timed on their own."""
        spec = ProjectionSpec(self.q, self.opts.quadrature())
        t0 = time.perf_counter()
        for mesh in self.meshes:
            project_broken(system.g1, mesh, system.r1, spec)
        out = {"projection.replay_s": time.perf_counter() - t0}
        # Norms of the finest level with the projection on, as run_study
        # computes them.
        mesh = self.meshes[-1]
        sol = solve_mixed(system, mesh, self.opts)
        errquad = gauss_legendre(self.q + 3)
        for key, fn, args in (
                ("analysis.err_energy_s", error_l2_energy,
                 (sol.U, system.exact_u, system.normU, errquad)),
                ("analysis.err_nodal_s", error_nodal_max, (sol.U, system.exact_u, system.M)),
                ("analysis.err_p_s", error_l2_multiplier,
                 (sol.P, system.exact_p, system.normQ1, errquad))):
            t0 = time.perf_counter()
            fn(*args)
            out[key] = time.perf_counter() - t0
        return out


class HeatWorkload(Workload):
    """heat1d: one solve_constrained call per pass on a fixed mesh."""

    def __init__(self, seed, tiny, workdir, n_elements: int, mesh: TimeMesh):
        super().__init__(seed, tiny, workdir)
        self.n_elements = n_elements
        self.mesh = mesh
        self.slabs = mesh.N
        self.width_classes = _width_classes(mesh)

    def build(self):
        return build_heat_1d(self.n_elements)

    def solve(self, system, tracer, tally):
        with tracer.span("dgsolver.solve_constrained"):
            t0 = time.perf_counter()
            sol = solve_constrained(system, self.mesh, self.opts)
            self.solve_s = time.perf_counter() - t0
        tally.op("solve", True)
        return sol

    def replay(self, system):
        spec = ProjectionSpec(self.q, self.opts.quadrature())
        t0 = time.perf_counter()
        project_broken(system.g2, self.mesh, system.r2, spec)
        return {"projection.replay_s": time.perf_counter() - t0}


class HeatWide(HeatWorkload):
    name = "heat1d_wide"
    ops_per_pass = 5

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir, 8 if tiny else 128,
                         build_uniform_mesh(1.0, 10 if tiny else 25))

    def run_pass(self, system, tracer, tally):
        mesh, opts = self.mesh, self.opts
        sol = self.solve(system, tracer, tally)
        with tracer.span("analysis.error_l2_energy"):
            err_energy = error_l2_energy(sol.U, system.exact_u, system.normU,
                                         gauss_legendre(self.q + 3))
        with tracer.span("analysis.error_nodal_max"):
            err_nodal = error_nodal_max(sol.U, system.exact_u, system.M)
        with tracer.span("timecore.dh_form"):
            dform = dh_form(sol.U, sol.U, system.M, opts.quadrature())
        with tracer.span("dgsolver.constraint_residual"):
            cres = float(constraint_residual(system, mesh, opts, sol.U).max())
        uN = sol.U.node_value(mesh.N)
        half = 0.5 * float(uN @ system.M @ uN)
        tally.op("constraint_residual", cres <= CONSTRAINT_TOL, f"{cres:.3e}")
        # D(U, U) = 1/2 |U^N|^2 + 1/2 sum |jumps|^2 + 1/2 |U^0_+|^2 >= 1/2 |U^N|^2
        tally.op("energy_identity", dform >= half * (1.0 - 1e-12),
                 f"D(U, U) = {dform:.12g} < {half:.12g}")
        tally.op("nodal_reference", _close(err_nodal, self.ref["err_nodal"]),
                 f"{err_nodal:.6e} vs {self.ref['err_nodal']:.6e}")
        tally.op("energy_reference", _close(err_energy, self.ref["err_energy"]),
                 f"{err_energy:.6e} vs {self.ref['err_energy']:.6e}")


def graded_mesh(N: int, seed: int) -> TimeMesh:
    """t_n = s_n^2 with s_n = n/N jittered by up to a quarter slab, seeded."""
    s = np.arange(N + 1) / N
    s[1:-1] += np.random.default_rng(seed).uniform(-0.25, 0.25, N - 1) / N
    return TimeMesh(s * s)


class HeatGraded(HeatWorkload):
    name = "heat1d_graded"
    seeded = True
    q = 3
    ops_per_pass = 4

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir, 8 if tiny else 64,
                         graded_mesh(12 if tiny else 16, seed))

    def run_pass(self, system, tracer, tally):
        mesh, opts = self.mesh, self.opts
        sol = self.solve(system, tracer, tally)
        with tracer.span("analysis.error_nodal_max"):
            err_nodal = error_nodal_max(sol.U, system.exact_u, system.M)
        with tracer.span("dgsolver.constraint_residual"):
            cres = float(constraint_residual(system, mesh, opts, sol.U).max())
        with tracer.span("dgsolver.dg_residual"):
            dres = float(dg_residual(system, mesh, opts, sol.U).max())
        tally.op("constraint_residual", cres <= CONSTRAINT_TOL, f"{cres:.3e}")
        tally.op("dg_residual", dres <= DG_RESIDUAL_TOL, f"{dres:.3e}")
        ceiling = GRADED_NODAL_FACTOR * self.ref["err_nodal_unjittered"]
        tally.op("nodal_reference", err_nodal <= ceiling, f"{err_nodal:.6e} above {ceiling:.6e}")


WORKLOADS = {w.name: w for w in (Stokes3Study, HeatWide, HeatGraded)}
