"""dgtime runs on numpy alone: importing it, or running a CLI study, loads no scipy module,
and building heat1d loads no numpy.random.

Each check runs in a fresh interpreter, since the test process itself has
scipy loaded (the tests use it as a reference).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# runs dgtime.cli as `python -m dgtime.cli ARGS` does
_CLI = """
import runpy
sys.argv = ["dgtime"] + sys.argv[1:]
try:
    runpy.run_module("dgtime.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert not exc.code, exc.code
"""
# the last line of stdout: every scipy module the program left in sys.modules
_REPORT = """
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "scipy")))
"""


def _fresh(program, *args) -> list:
    """The stdout lines of `python -c program args` with src/ first on the path; it must succeed."""
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    done = subprocess.run([sys.executable, "-c", "import json, sys\n" + program, *args],
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


@pytest.mark.parametrize("program, args", [
    ("import dgtime\n", []),
    (_CLI, ["study", "--problem", "stokes3", "--q", "2", "--Ns", "8,16"]),
], ids=["import", "cli-study"])
def test_no_scipy_module_is_loaded(program, args):
    *printed, loaded = _fresh(program + _REPORT, *args)
    if args:  # the study ran and printed its table
        assert any(line.startswith("| 16 | 0.0625 |") for line in printed), printed
    assert json.loads(loaded) == []


def test_building_heat1d_loads_no_numpy_random():
    # the builder's probe times are literals; importing numpy.random costs a fresh process ms
    *_, loaded = _fresh("import dgtime\ndgtime.build_heat_1d(8)\n"
                        "print(json.dumps(sorted(n for n in sys.modules if n.startswith('numpy.random'))))\n")
    assert json.loads(loaded) == []
