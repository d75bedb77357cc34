"""Compare dgtime's results with those of another checkout: python3 tools/same_results.py OTHER_DIR

OTHER_DIR is the root of another dgtime tree, such as an unpacked
`git archive` of the parent commit.  Both trees run the same matrix, each
in a fresh interpreter that imports dgtime from its own src/:

    dgtime study --problem P --q Q --Ns 8,16,...,1024 --projection both --format csv

for P in stokes3 (norms energy, nodal, multiplier) and heat1d (energy,
nodal) and Q = 1, 2, 3, which writes 12 CSV files, and the stacked U and P
of the same studies, read from the march (dgsolver._march) that
`--projection both` runs.  Both trees also run solve_constrained on graded
meshes t_n = (n/N)^2, whose slabs all have their own widths: heat1d with
64 elements (m = 129) at q = 3, N = 16, which has only B2; stokes3 at
q = 2, N = 512, which has only B1; and, at q = 3, N = 128, stokes3 with
one B2 row, [1, 0, 0] with g2 the first component of its exact u, which
has both, and stokes3's M and A without B1, which has neither.  The
oracle, solve_monolithic, runs on the same four graded meshes.  The
script prints every CSV file that differs byte for byte and, per problem
and q, per graded solve and per oracle solve (the `oracle` lines), the
largest relative difference max |U - U_other| / max |U_other|, and the
same for P.  It exits 1 when anything differs.  Standard library and
numpy only.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

THIS = Path(__file__).resolve().parent.parent
PROBLEMS = {"stokes3": "energy,nodal,multiplier", "heat1d": "energy,nodal"}
QS = (1, 2, 3)
NS = tuple(2 ** i for i in range(3, 11))
# the graded solves: name -> (the system, as an expression the worker evaluates, q, N)
GRADED = {"heat1d(64)": ("dgtime.build_heat_1d(64)", 3, 16),
          "stokes3": ("stokes3", 2, 512),
          "stokes3 with B2": ("replace(stokes3, B2=np.array([[1.0, 0.0, 0.0]]), "
                              "g2=lambda t: stokes3.exact_u(t)[:1])", 3, 128),
          "unconstrained": ("dgtime.build_saddle_dae(M=np.eye(3), A=_STOKES3_A, "
                            "exact_u=u, exact_du=du)", 3, 128)}

# run in each tree: argv = [src directory, output directory, [PROBLEMS, QS, NS, GRADED] as JSON]
WORKER = """
import sys
sys.path.insert(0, sys.argv[1])
from pathlib import Path
import json
from dataclasses import replace
import numpy as np
import dgtime
from dgtime import cli, dgsolver
from dgtime.analysis import _resolve_problem
from dgtime.systems import _STOKES3_A, _stokes3_handles
from dgtime.timecore import _Slabs, build_uniform_mesh
out, (problems, qs, Ns, graded) = Path(sys.argv[2]), json.loads(sys.argv[3])
stokes3, (u, du, _) = dgtime.build_saddle_dae("stokes3"), _stokes3_handles()
for name, (expr, q, N) in graded.items():
    args = (eval(expr), dgtime.TimeMesh((np.arange(N + 1) / N) ** 2),
            dgsolver.SolverOptions(q=q))
    for stem, solve in (("graded", dgsolver.solve_constrained),
                        ("oracle", dgsolver.solve_monolithic)):
        sol = solve(*args)
        np.savez(out / f"{stem}_{name}.npz", U=sol.U.coeffs,
                 P=np.empty(0) if sol.P is None else sol.P.coeffs)
slabs = _Slabs.of([build_uniform_mesh(1.0, N) for N in Ns])
for problem, norms in problems.items():
    for q in qs:
        code = cli.main(["study", "--problem", problem, "--q", str(q),
                         "--Ns", ",".join(map(str, Ns)), "--projection", "both",
                         "--norms", norms, "--format", "csv",
                         "--output", str(out / f"{problem}_q{q}.csv")])
        if code:
            sys.exit(f"dgtime study {problem} q = {q} exited {code}")
        variants = [dgsolver.SolverOptions(q=q, use_projection=p) for p in (True, False)]
        U, P, _ = dgsolver._march(_resolve_problem(problem), slabs, variants)
        np.savez(out / f"{problem}_q{q}.npz", U=U, P=np.empty(0) if P is None else P)
"""


def _run(tree: Path, out: Path) -> None:
    subprocess.run([sys.executable, "-c", WORKER, str(tree / "src"), str(out),
                    json.dumps([PROBLEMS, QS, NS, GRADED])], stdout=subprocess.DEVNULL,
                   check=True)


def _relative(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b| / max |b|; 0 for two empty arrays, inf for arrays of another shape."""
    if a.shape != b.shape:
        return float("inf")
    if a.size == 0:
        return 0.0
    scale = np.abs(b).max()
    diff = np.abs(a - b).max()
    return float(diff / scale) if scale else float(diff)


def main(argv) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "src" / "dgtime").is_dir():
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    other = Path(argv[0]).resolve()
    with tempfile.TemporaryDirectory() as tmp:
        mine, theirs = Path(tmp, "this"), Path(tmp, "other")
        mine.mkdir()
        theirs.mkdir()
        _run(THIS, mine)
        _run(other, theirs)
        csvs = sorted(p.name for p in mine.glob("*.csv"))
        differ = [name for name in csvs if (mine / name).read_bytes() != (theirs / name).read_bytes()]
        print(f"CSV files: {len(csvs) - len(differ)} of {len(csvs)} byte-identical")
        for name in differ:
            print(f"  differs: {name}")
        moved = bool(differ)
        print("largest relative difference of the stacked U and P (0 = bit-identical):")
        runs = [(f"{problem}_q{q}", f"{problem} q = {q}") for problem in PROBLEMS for q in QS]
        runs += [(f"{stem}_{name}", f"{label}{name} q = {q}, graded N = {N}")
                 for stem, label in (("graded", ""), ("oracle", "oracle "))
                 for name, (_, q, N) in GRADED.items()]
        for stem, label in runs:
            with np.load(mine / f"{stem}.npz") as a, np.load(theirs / f"{stem}.npz") as b:
                du, dp = _relative(a["U"], b["U"]), _relative(a["P"], b["P"])
            moved |= du > 0.0 or dp > 0.0
            print(f"  {label}: U {du:.3g}, P {dp:.3g}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
