"""Set-up probe: a fresh process imports dgtime, builds one workload's inputs
and system, makes one warm-up solve on a 2-slab mesh and prints "ready".

run.py starts several of these and times each from process start to the
"ready" line.  Usage: python3 perfbench/setup_probe.py WORKLOAD SEED [--tiny]
"""

import sys
from pathlib import Path

import benv

ROOT = Path(__file__).resolve().parent.parent


def main(argv):
    benv.pin()
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS[argv[0]](int(argv[1]), "--tiny" in argv, ROOT / ".perfbench_work")
    workload.warmup(workload.build())
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
