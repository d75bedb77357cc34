"""dgtime benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload stokes3_study --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` times passes with tracing off and reports the end-to-end
metrics, each pass timing as the median over the passes of the run.  Pass
timings are given in reference units: each pass is divided by the mean of
the reference job run just before and just after it (see reference_job).
``--trace 1`` alternates untraced and traced passes, reports the per-layer
metrics and the tracing overhead, and writes the spans to
``.perfbench_work/spans_<workload>.npz``.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
The exit code is 1 when any correctness check failed and 2 when the
benchmark could not run at all (then no result line is printed).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import benv

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

SETUP_PROBES = 5      # setup_s is the median over this many fresh processes
BUILD_REPS = 3        # systems.build_s is the median over this many builds
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="stokes3_study, heat1d_wide, heat1d_graded, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure passes for this long (at least one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the schema self-check only")
    return parser.parse_args(argv)


def probe_setup(args) -> float:
    """Seconds from starting a fresh interpreter until its warm-up solve is done."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), args.workload, str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        rc = proc.wait(timeout=PROBE_TIMEOUT_S)
    if line.strip() != "ready" or rc != 0:
        raise RuntimeError(f"set-up probe failed (exit {rc})")
    return elapsed


def reference_job():
    """A fixed job that uses no dgtime code; calling it returns its seconds.

    On a shared host the CPU's speed changes by up to 1.5x for minutes at a
    time.  Each pass is timed between two runs of this job, and the pass
    divided by their mean cancels most of that change (see README.md for
    the figures).  The job mixes what the passes spend their time on:
    products with a 257x257 matrix, an LU factorization, small matrix
    products and a Python loop.  Changing it changes the unit of every
    reference metric.  It has no einsum: numpy's einsum of the passes'
    form ran 3x slower throughout one fresh process in 16.
    """
    import numpy as np
    from scipy.linalg import lu_factor

    rng = np.random.default_rng(0)
    a = rng.standard_normal((257, 257))
    x = rng.standard_normal((257, 5))
    k = rng.standard_normal((400, 400)) + 400.0 * np.eye(400)
    small = list(rng.standard_normal((200, 3, 3)))

    def job() -> float:
        t0 = time.perf_counter()
        for _ in range(30):
            float((x * (a @ x)).sum())
        lu_factor(k, check_finite=False)
        acc = 0.0
        for m in small:
            acc += float((m @ m).sum())
        for i in range(20000):
            acc += i * 0.5
        return time.perf_counter() - t0

    return job


def timed_pass(workload, system, tracer, tally):
    """Seconds of one pass, and its solve time in microseconds per slab."""
    gc.collect()
    if tracer.enabled:
        tracer.begin_pass()
    t0 = time.perf_counter()
    try:
        workload.run_pass(system, tracer, tally)
    except Exception as exc:  # a failed pass is counted and reported, the run goes on
        tally.abort(exc)
    wall = time.perf_counter() - t0
    if tracer.enabled:
        tracer.end_pass()
    solve = workload.solve_s if workload.solve_s is not None else wall
    return wall, solve * 1e6 / workload.slabs


def summary(values):
    """Median, minimum, and the highest of p90, p75 and p50 that has at
    least ten samples beyond it (p50 when none has)."""
    ordered = sorted(values)
    pct = next((p for p in (90, 75) if len(values) * (100 - p) >= 1000), 50)
    return {"median": statistics.median(ordered), "min": ordered[0],
            "pct": pct, "high": ordered[min(len(ordered) - 1, len(ordered) * pct // 100)],
            "n": len(values)}


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    import dgtime

    if Path(dgtime.__file__).resolve().parent != SRC / "dgtime":
        print(f"error: dgtime imported from {dgtime.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    from workloads import WORKLOADS, Tally

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    setup = [] if args.trace else [probe_setup(args) for _ in range(SETUP_PROBES)]

    workload = WORKLOADS[args.workload](args.seed, args.tiny, WORK)
    builds = []
    for _ in range(BUILD_REPS):
        t0 = time.perf_counter()
        system = workload.build()
        builds.append(time.perf_counter() - t0)
    workload.warmup(system)

    null = tracing.NullTracer()
    tracer = tracing.Tracer(args.workload) if args.trace else None
    traced = tracer.wrap_system(system) if tracer else None
    walls, per_slab, refs, wall_ref, solve_ref, traced_walls, tallies, rounds = \
        [], [], [], [], [], [], [], []
    job = reference_job()
    job()  # warm-up
    refs.append(job())
    deadline = time.perf_counter() + args.seconds
    # Stop before a round that would end past the deadline, so a run takes
    # about --seconds; a traced run makes at least two rounds.
    min_rounds = 2 if tracer else 1
    while len(rounds) < min_rounds or \
            time.perf_counter() + statistics.median(rounds) <= deadline:
        t0 = time.perf_counter()
        tallies.append(Tally(workload.ops_per_pass))
        wall, us = timed_pass(workload, system, null, tallies[-1])
        refs.append(job())
        unit = 0.5 * (refs[-2] + refs[-1])
        walls.append(wall)
        per_slab.append(us)
        wall_ref.append(wall / unit)
        solve_ref.append(us * 1e-6 / unit)
        if tracer:
            tallies.append(Tally(workload.ops_per_pass))
            traced_walls.append(timed_pass(workload, traced, tracer, tallies[-1])[0])
        rounds.append(time.perf_counter() - t0)

    attempted = sum(t.planned for t in tallies)
    failed = sum(t.failed for t in tallies)
    failures = [f for t in tallies for f in t.failures]
    samples = {}
    if tracer:
        layers = [tracing.pass_layers(p) for p in tracer.passes]
        for key in layers[0]:
            samples[key] = [lay[key] for lay in layers]
        for key, value in workload.replay(system).items():
            samples[key] = [value]
        samples["systems.build_s"] = builds
        samples["workload.slabs"] = [workload.slabs]
        samples["workload.width_classes"] = [workload.width_classes]
        samples["trace.overhead_share"] = [
            statistics.median(traced_walls) / statistics.median(walls)]
        samples["wall_s"] = walls
        samples["solve_us_per_slab"] = per_slab
        samples["reference_s"] = refs
        tracer.write(WORK / f"spans_{args.workload}.npz")
    else:
        samples["wall_ref"] = wall_ref
        samples["solve_per_slab_ref"] = solve_ref
        samples["setup_s"] = setup
        samples["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
    wanted = BENCHMARK["per_layer" if tracer else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in samples]
    if missing:
        raise RuntimeError(f"no samples for {missing}")

    print(f"workload {args.workload}  seed {args.seed} "
          f"({'generates the mesh' if workload.seeded else 'inputs do not depend on the seed'})"
          f"  trace {args.trace}  size {workload.size}")
    print("why: " + next(w["why"] for w in BENCHMARK["workloads"] if w["name"] == args.workload))
    print("env: " + json.dumps(benv.describe(ROOT), sort_keys=True))
    print(f"inputs: slabs {workload.slabs}, width classes {workload.width_classes}; "
          f"closed loop, 1 caller, {len(walls)} untraced + {len(traced_walls)} traced passes")
    print(f"{'metric':28s} {'median':>14s} {'unit':>6s} {'n':>4s} {'min':>14s} "
          f"{'p50/75/90':>14s}")
    stats = {m["name"]: summary(samples[m["name"]]) for m in wanted}
    for m in wanted:
        s = stats[m["name"]]
        print(f"{m['name']:28s} {s['median']:14.6g} {m['unit']:>6s} {s['n']:4d} "
              f"{s['min']:14.6g} {s['high']:10.6g} p{s['pct']}")
    print(f"ops_failed_share {failed / attempted:.6g} ({failed} failed of {attempted} "
          "solve calls and checks)")
    for failure in dict.fromkeys(failures):
        print(f"FAILED {failure}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": stats[m["name"]]["median"], "unit": m["unit"]}
                    for m in wanted},
    }
    for path in WORK.glob("*.csv"):
        path.unlink()
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = res.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if res.returncode == 2 or not lines:
            return 2
        worst = max(worst, res.returncode)
        one = json.loads(lines[-1])
        total["correct"] &= one["correct"]
        total["attempted"] += one["attempted"]
        total["failed"] += one["failed"]
        for name, metric in one["metrics"].items():
            total["metrics"][f"{name}.{workload}"] = metric
        print()
    print(json.dumps(total))
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    benv.pin()
    if not (SRC / "dgtime" / "__init__.py").is_file():
        print(f"error: no dgtime sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    except RuntimeError as exc:  # the benchmark itself could not run
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
