"""tools/same_results.py: the same tree compares equal, and a changed CSV cell shows."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("same_results", ROOT / "tools" / "same_results.py")
same_results = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_results)


def test_a_tree_gives_the_same_results_as_itself(capsys):
    assert same_results.main([str(ROOT)]) == 0
    out = capsys.readouterr().out
    assert "CSV files: 12 of 12 byte-identical" in out
    assert "stokes3 q = 3: U 0, P 0" in out
    assert "oracle heat1d(64) q = 3, graded N = 16: U 0, P 0" in out
    assert "oracle stokes3 q = 2, graded N = 512: U 0, P 0" in out


def test_a_changed_at_floor_rule_shows_in_the_csv_files_only(tmp_path, capsys):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    analysis = tmp_path / "src" / "dgtime" / "analysis.py"
    text = analysis.read_text()
    assert "EOC_FLOOR = 1e-13\n" in text
    analysis.write_text(text.replace("EOC_FLOOR = 1e-13\n", "EOC_FLOOR = 1e-9\n"))
    assert same_results.main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "differs: stokes3_q3_projection_on.csv" in out
    assert "heat1d q = 2: U 0, P 0" in out


def test_a_directory_without_dgtime_is_refused(tmp_path):
    assert same_results.main([str(tmp_path)]) == 2
