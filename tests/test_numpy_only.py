"""dgtime runs on numpy alone: importing it, or running a CLI study, loads no scipy module.

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


@pytest.mark.parametrize("program, args", [
    ("import dgtime\n", []),
    (_CLI, ["study", "--problem", "stokes3", "--q", "2", "--Ns", "8,16"]),
], ids=["import", "cli-study"])
def test_no_scipy_module_is_loaded(program, args):
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    done = subprocess.run([sys.executable, "-c", "import json, sys\n" + program + _REPORT, *args],
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    *printed, loaded = done.stdout.splitlines()
    if args:  # the study ran and printed its table
        assert any(line.startswith("| 16 | 0.0625 |") for line in printed), done.stdout
    assert json.loads(loaded) == []
