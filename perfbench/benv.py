"""CPU and thread pinning, and the environment record of a benchmark run.

``pin()`` must run before numpy is imported: OpenBLAS reads its thread
count once, at load time.  The process runs on one CPU, BLAS runs one
thread and ``run_study`` runs its levels one after the other
(``DGTIME_THREADS=1``), so the program never has more threads at work than
the CPUs it may use.

Left at its default, OpenBLAS starts one thread per core: on a 2-vCPU
x86_64 Xeon VM the heat1d_graded solve (q = 3, N = 128) then took 4.9-6.3 s
against 1.9-2.5 s with one thread, so an unpinned environment change would
pass for a 2x speed-up.  On the same VM, the stokes3 study with two
``run_study`` threads on both vCPUs lost 10-40 % of its time to the
hypervisor (steal time in /proc/stat) as the GIL passed between the vCPUs,
and its median pass time varied by 10 % between half-minute windows,
against under 4 % when pinned to one CPU.
"""

from __future__ import annotations

import glob
import os
import platform
import sys
from pathlib import Path

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin():
    """Pin this process, and the processes it starts, to one CPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    os.environ.update({var: "1" for var in (*BLAS_VARS, "DGTIME_THREADS")})


def _blas_threads(module) -> dict:
    """Threads each OpenBLAS copy bundled with ``module`` reports, by file."""
    import ctypes

    libdir = Path(module.__file__).resolve().parent.parent / f"{module.__name__}.libs"
    out = {}
    for path in glob.glob(str(libdir / "*openblas*.so*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git directly: no git, no reads outside."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def describe(root: Path) -> dict:
    """Record of what decides the figures besides the code under test."""
    import numpy
    import scipy

    def blas(mod):
        dep = mod.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "env": {var: os.environ.get(var) for var in (*BLAS_VARS, "DGTIME_THREADS")},
        "blas": {"numpy": blas(numpy), "scipy": blas(scipy)},
        "blas_threads": {**_blas_threads(numpy), **_blas_threads(scipy)},
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": _git_commit(root),
    }
