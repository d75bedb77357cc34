"""Quick self-check of the benchmark's output schema (about half a minute).

Runs every workload once at tiny size, untraced and traced, and validates
the result line against BENCHMARK.json: the four keys, the metric names
and units, finite values, nonzero end-to-end values, passing checks and
the span file.  It also runs the benchmark in a copy that holds only
BENCHMARK.json and perfbench/, where it must fail without a result.

    python3 perfbench/selfcheck.py      # exit 0 when every check holds
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SPAN_COLUMNS = {"names", "workload", "name", "start", "end", "parent", "tid", "pass"}


def run(root: Path, workload: str, trace: int):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)


def problems_of(workload: str, trace: int) -> list:
    res = run(ROOT, workload, trace)
    problems = [] if res.returncode == 0 else [f"exit {res.returncode}: {res.stderr[-400:]}"]
    try:
        out = json.loads(res.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return problems + ["last line is not a JSON object"]
    if set(out) != {"correct", "attempted", "failed", "metrics"}:
        return problems + [f"result keys {sorted(out)}"]
    if out["correct"] is not True or out["failed"] != 0:
        problems.append(f"checks failed: {out['failed']} of {out['attempted']}")
    if not isinstance(out["attempted"], int) or out["attempted"] < 1:
        problems.append(f"attempted = {out['attempted']!r}")
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    if set(out["metrics"]) != set(expected):
        problems.append(f"metric names differ: {sorted(set(out['metrics']) ^ set(expected))}")
    for name, metric in out["metrics"].items():
        value = metric.get("value")
        if set(metric) != {"value", "unit"} or metric["unit"] != expected.get(name):
            problems.append(f"{name}: {metric}")
        elif not isinstance(value, (int, float)) or not math.isfinite(value) or value < 0:
            problems.append(f"{name}: value {value!r}")
        elif not trace and value == 0:
            problems.append(f"{name}: end-to-end value is 0")
    if trace:
        spans = WORK / f"spans_{workload}.npz"
        if not spans.is_file():
            problems.append(f"no span file {spans.name}")
        else:
            with np.load(spans) as npz:
                if set(npz.files) != SPAN_COLUMNS:
                    problems.append(f"span columns {sorted(npz.files)}")
    return problems


def bare_copy_fails() -> list:
    """In a directory with only BENCHMARK.json and perfbench/, no result."""
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        res = run(bare, BENCHMARK["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if res.returncode == 0 or '"metrics"' in res.stdout:
        return [f"bare copy: exit {res.returncode}, stdout {res.stdout[-200:]!r}"]
    return []


def main() -> int:
    failures = 0
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        for trace in (0, 1):
            problems = problems_of(workload, trace)
            failures += bool(problems)
            print(f"{'ok  ' if not problems else 'FAIL'} {workload} --trace {trace}")
            for problem in problems:
                print(f"     {problem}")
    problems = bare_copy_fails()
    failures += bool(problems)
    print(f"{'ok  ' if not problems else 'FAIL'} fails without the sources")
    for problem in problems:
        print(f"     {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
