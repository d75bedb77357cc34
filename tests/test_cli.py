import argparse
import json
import math
from unittest import mock

import numpy as np
import pytest

from dgtime import EOCTable, load_system, run_study
from dgtime.cli import (
    CSV_COLUMNS,
    format_csv,
    format_markdown,
    main,
    parse_table_csv,
)


# ---------------------------------------------------------------------------
# table formatting and parsing


def _small_table():
    return run_study("stokes3", 2, [4, 8], norms=("energy", "nodal"))


def test_csv_header_and_round_trip():
    table = _small_table()
    text = format_csv(table)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3
    back = parse_table_csv(text, problem=table.problem, q=table.q)
    assert format_csv(back) == text
    assert [r.N for r in back.rows] == [4, 8]
    assert back.rows[0].eoc_energy is None
    assert back.rows[1].err_p is None


def test_csv_renders_at_floor_and_empty_cells():
    from dgtime.analysis import EOCTable, StudyRow

    table = EOCTable(problem="toy", q=1, use_projection=True, rows=(
        StudyRow(N=4, k=0.25, err_energy=1e-15, eoc_energy=None),
        StudyRow(N=8, k=0.125, err_energy=9e-16, eoc_energy=math.nan),
    ))
    text = format_csv(table)
    lines = text.strip().split("\n")
    assert lines[1] == "4,0.25,1e-15,,,,,"
    assert lines[2] == "8,0.125,9e-16,at-floor,,,,"
    back = parse_table_csv(text)
    assert math.isnan(back.rows[1].eoc_energy)
    assert back.rows[0].eoc_energy is None


def test_parse_table_csv_rejects_foreign_header():
    with pytest.raises(ValueError):
        parse_table_csv("a,b,c\n1,2,3\n")


@pytest.mark.parametrize("row", ["8,0.125,1e-3", "8,0.125,1e-3,,,,,,extra"])
def test_parse_table_csv_rejects_a_row_of_another_length(row):
    # a row holds one cell per column: a short row is not padded, a long one not cut
    text = ",".join(CSV_COLUMNS) + "\n4,0.25,1e-2,,,,,\n" + row + "\n"
    with pytest.raises(ValueError, match="^line 3: "):
        parse_table_csv(text)


def test_parse_table_csv_rejects_a_projection_switch_that_is_not_a_bool():
    # "off" is truthy: a table holding it would be titled "projection on"
    text = format_csv(_small_table())
    with pytest.raises(ValueError, match="use_projection must be a bool, got 'off'"):
        parse_table_csv(text, problem="stokes3", q=2, use_projection="off")
    back = parse_table_csv(text, problem="stokes3", q=2, use_projection=False)
    assert format_markdown(back).startswith("### stokes3, q = 2, projection off")


def test_parse_table_csv_rejects_an_empty_text():
    for text, message in (("", "the CSV has no header line"),
                          (",".join(CSV_COLUMNS) + "\n", "the CSV has no data rows")):
        with pytest.raises(ValueError, match=message):
            parse_table_csv(text)


def test_format_markdown_rejects_a_table_without_rows():
    with pytest.raises(ValueError, match="the table has no rows"):
        format_markdown(EOCTable(problem="stokes3", q=2, use_projection=True, rows=()))


def test_markdown_has_title_and_selected_columns_only():
    table = run_study("stokes3", 2, [4, 8], norms=("nodal", "multiplier"))
    text = format_markdown(table)
    assert text.startswith("### stokes3, q = 2, projection on")
    header = text.split("\n")[2]
    assert "err_nodal" in header and "err_p" in header
    assert "err_energy" not in header
    # two header lines, separator, two data rows, trailing newline
    assert text.endswith("|\n")


def test_formatting_is_deterministic():
    t1, t2 = _small_table(), _small_table()
    assert format_csv(t1) == format_csv(t2)
    assert format_markdown(t1) == format_markdown(t2)


# ---------------------------------------------------------------------------
# study subcommand


def test_study_stdout_markdown_both_variants(capsys):
    rc = main(["study", "--problem", "stokes3", "--q", "2", "--Ns", "4,8",
               "--norms", "nodal,multiplier", "--projection", "both"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "### stokes3, q = 2, projection on" in out
    assert "### stokes3, q = 2, projection off" in out


def test_study_stdout_csv_both_variants_is_two_studies_under_headers(capsys):
    args = ["study", "--problem", "stokes3", "--q", "2", "--Ns", "4,8", "--format", "csv"]
    alone = {}
    for proj in ("on", "off"):
        assert main(args + ["--projection", proj]) == 0
        alone[proj] = capsys.readouterr().out
    assert main(args + ["--projection", "both"]) == 0
    assert capsys.readouterr().out == (f"# projection on\n{alone['on']}"
                                       f"# projection off\n{alone['off']}")


def test_study_writes_csv_file(tmp_path, capsys):
    out_file = tmp_path / "table.csv"
    rc = main(["study", "--problem", "heat1d", "--q", "1", "--Ns", "4,8",
               "--format", "csv", "--output", str(out_file)])
    assert rc == 0
    assert f"wrote {out_file}" in capsys.readouterr().out
    text = out_file.read_text()
    assert text.startswith(",".join(CSV_COLUMNS))
    table = parse_table_csv(text)
    assert [r.N for r in table.rows] == [4, 8]


def test_study_outputs_are_byte_identical(tmp_path):
    args = ["study", "--problem", "stokes3", "--q", "2", "--Ns", "4,8,16",
            "--format", "csv"]
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--output", str(f1)]) == 0
    assert main(args + ["--output", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_study_both_variants_to_files(tmp_path, capsys):
    out_file = tmp_path / "run.csv"
    rc = main(["study", "--problem", "stokes3", "--Ns", "4,8",
               "--projection", "both", "--format", "csv",
               "--output", str(out_file)])
    assert rc == 0
    on = tmp_path / "run_projection_on.csv"
    off = tmp_path / "run_projection_off.csv"
    assert on.exists() and off.exists()
    assert on.read_bytes() != off.read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "md"])
@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("problem", ["heat1d", "stokes3"])
def test_study_both_variants_write_the_bytes_of_two_separate_studies(tmp_path, capsys, problem,
                                                                    q, fmt):
    norms = "energy,nodal,multiplier" if problem == "stokes3" else "energy,nodal"
    args = ["study", "--problem", problem, "--q", str(q), "--Ns", "4,8,16", "--norms", norms,
            "--format", fmt]
    assert main(args + ["--projection", "both", "--output", str(tmp_path / f"run.{fmt}")]) == 0
    for proj in ("on", "off"):
        alone = tmp_path / f"alone_{proj}.{fmt}"
        assert main(args + ["--projection", proj, "--output", str(alone)]) == 0
        assert (tmp_path / f"run_projection_{proj}.{fmt}").read_bytes() == alone.read_bytes()


@pytest.mark.parametrize("output, written", [
    ("res.v2/table", ("res.v2/table_projection_on", "res.v2/table_projection_off")),
    ("./table", ("table_projection_on", "table_projection_off")),
])
def test_study_both_variants_name_files_by_their_file_name(tmp_path, monkeypatch, capsys,
                                                           output, written):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "res.v2").mkdir()
    rc = main(["study", "--problem", "stokes3", "--Ns", "4,8", "--projection", "both",
               "--format", "csv", "--output", output])
    assert rc == 0
    assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file()) \
        == sorted(written)


def test_study_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps({
        "problem": "stokes3", "q": 2, "Ns": [4, 8], "norms": ["nodal"],
        "format": "csv",
    }))
    rc = main(["study", "--config", str(cfg), "--Ns", "8,16"])
    out = capsys.readouterr().out
    assert rc == 0
    rows = out.strip().split("\n")
    assert rows[1].startswith("8,") and rows[2].startswith("16,")


def test_study_config_file_ignores_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps({"problem": "stokes3", "Ns": [4, 8], "format": "csv",
                               "seed": 3}))
    assert main(["study", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.startswith(",".join(CSV_COLUMNS))


@pytest.mark.parametrize("argv", [
    ["study", "--problem", "heat1d", "--Ns", ""],          # empty list
    ["study", "--problem", "heat1d", "--Ns", "16,8"],      # not increasing
    ["study", "--problem", "heat1d", "--q", "14"],         # q beyond the study's rule
    ["study", "--problem", "nosuch.json"],                 # missing file
    ["study", "--Ns", "4,8"],                              # no problem given
    ["study", "--problem", "heat1d", "--norms", "multiplier"],  # r1 = 0
    ["study", "--problem", "heat1d", "--seed", "1"],       # no such flag
    ["study", "--problem", "heat1d", "--q", "0"],          # q out of range
    ["study", "--problem", "heat1d", "--norms", "energy,sup"],  # unknown norm
    ["study", "--problem", "stokes3", "--Ns", "4,8", "--norms", ""],  # no norm
    ["study", "--problem", "stokes3", "--Ns", "4,8", "--norms", " , "],  # blanks only
    ["study", "--problem", "heat1d", "--Ns", "8,4"],       # decreasing
    ["study", "--problem", "heat1d", "--Ns", "4,8,8"],     # repeated
    ["study", "--problem", "heat1d", "--Ns", "8,8"],       # repeated
    ["study", "--problem", "heat1d", "--projection", "maybe"],
    ["study", "--problem", "heat1d", "--format", "tex"],
    ["study", "--problem", "heat1d", "--format", "CSV"],   # choices are case-sensitive
])
def test_study_unusable_configuration_exits_2(argv, capsys):
    assert main(argv) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("kwargs", [
    dict(Ns=(8, 4)), dict(Ns=(4, 8, 8)), dict(Ns=()), dict(Ns=(8, 8)), dict(Ns=(16, 8)),
    dict(projection="maybe"), dict(format="tex"), dict(format="CSV"), dict(norms=[]),
])
def test_study_config_validation(tmp_path, capsys, kwargs):
    # the same settings given in a config file are rejected like the flags
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps({"problem": "heat1d", **kwargs}))
    assert main(["study", "--config", str(cfg)]) == 2
    assert "error" in capsys.readouterr().err


def test_study_defaults_are_the_documented_ones(capsys):
    assert main(["study", "--problem", "stokes3", "--format", "csv"]) == 0
    assert capsys.readouterr().out == format_csv(run_study("stokes3", 2, (8, 16, 32, 64))) + "\n"


@pytest.mark.parametrize("text", ['{"problem": "heat1d", "q": 2.5}',
                                  '{"problem": "heat1d", "Ns": [4.7, 8]}',
                                  '["problem", "heat1d"]'],
                         ids=["fractional-q", "fractional-N", "list"])
def test_study_config_file_values_are_checked_like_flags(tmp_path, capsys, text):
    cfg = tmp_path / "study.json"
    cfg.write_text(text)
    assert main(["study", "--config", str(cfg)]) == 2
    assert "error" in capsys.readouterr().err


def test_study_config_file_values_read_as_flags(tmp_path, capsys):
    # a string where a list is expected, and null for "absent"
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps({"problem": "stokes3", "Ns": [4, 8], "norms": "nodal", "q": None,
                               "projection": None, "format": None, "output": None}))
    assert main(["study", "--config", str(cfg)]) == 0
    from_file = capsys.readouterr().out
    assert main(["study", "--problem", "stokes3", "--Ns", "4,8", "--norms", "nodal"]) == 0
    assert from_file == capsys.readouterr().out


def test_study_unwritable_output_exits_2(tmp_path, capsys):
    out = tmp_path / "missing_dir" / "x.csv"
    assert main(["study", "--problem", "stokes3", "--Ns", "4,8", "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_study_runs_every_q_run_study_accepts(capsys):
    argv = ["study", "--problem", "stokes3", "--q", "7", "--Ns", "4,8", "--format", "csv"]
    assert main(argv) == 0
    assert capsys.readouterr().out == format_csv(run_study("stokes3", 7, (4, 8))) + "\n"


def test_study_solver_failure_exits_3(tmp_path, capsys):
    bad = tmp_path / "singular.json"
    bad.write_text(json.dumps({
        "M": [[0.0]], "A": [[0.0]], "u0": [0.0], "exact_u": "zero",
    }))
    rc = main(["study", "--problem", str(bad), "--q", "1", "--Ns", "2,4"])
    assert rc == 3
    assert "solver failure" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# validate subcommand


def test_validate_stokes3_passes(capsys):
    rc = main(["validate", "stokes3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[PASS] kernel mass SPD" in out
    assert "[FAIL]" not in out


def test_validate_heat_passes(capsys):
    rc = main(["validate", "heat1d"])
    assert rc == 0
    checks = [line.split(" — ")[0] for line in capsys.readouterr().out.splitlines()]
    assert checks == ["[PASS] kernel mass SPD", "[PASS] kernel stiffness symmetric",
                      "[PASS] constraint row rank", "[PASS] kernel ellipticity"]


def test_validate_reports_failures(tmp_path, capsys):
    path = tmp_path / "deficient.json"
    path.write_text(json.dumps({
        "M": [[1.0, 0.0], [0.0, 1.0]],
        "A": [[1.0, 0.0], [0.0, 1.0]],
        "u0": [0.0, 0.0],
        "B1": [[0.0, 0.0]],
        "g1": "zero",
    }))
    rc = main(["validate", str(path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "[FAIL] constraint row rank" in out


def test_validate_passes_a_stiffness_unsymmetric_only_in_a_dirichlet_row(tmp_path, capsys):
    path = tmp_path / "dirichlet_row.json"
    path.write_text(json.dumps({
        "M": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        "A": [[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, 0.0, 1.0]],
        "u0": [1.0, 0.0, 0.0],
        "B2": [[0.0, 0.0, 1.0]],
        "g2": "sin4t",
    }))
    rc = main(["validate", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[FAIL]" not in out


def test_validate_ignores_a_lift_key(tmp_path, capsys):
    # the solvers compute their right inverse themselves; a file that still gives a
    # right inverse of B2 loads, with the key ignored like any unknown key
    path = tmp_path / "with_lift.json"
    path.write_text(json.dumps({
        "M": [[1.0, 0.0], [0.0, 1.0]],
        "A": [[1.0, 0.0], [0.0, 1.0]],
        "u0": [0.0, 0.0],
        "B2": [[1.0, 0.0]],
        "g2": "zero",
        "lift": [[1.0], [0.0]],
    }))
    system = load_system(path)
    assert system.r2 == 1 and not hasattr(system, "lift")
    assert main(["validate", str(path)]) == 0
    assert "[FAIL]" not in capsys.readouterr().out


def test_validate_missing_file_exits_2(capsys):
    assert main(["validate", "nowhere.json"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["5", "null", '{"M": [[1.0, 0.0], [0.0, null]], "u0": [0, 0]}',
                                  '{"M": [[1.0]], "A": [[1e400]], "u0": [0.0]}',
                                  '{"M": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "u0": [0, 0, 0], '
                                  '"normU": [[1, 0], [0, 1]]}',
                                  '{"M": [[1, 0], [0, 1]], "u0": [0, 0], "B1": [[1, 0]], '
                                  '"g1": "zero", "normQ1": [[1, 0], [0, 1]]}'],
                         ids=["number", "null", "nan-entry", "overflowing-entry",
                              "normU-shape", "normQ1-shape"])
def test_validate_malformed_system_file_exits_2(tmp_path, capsys, text):
    path = tmp_path / "malformed.json"
    path.write_text(text)
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_validate_warns_on_incompatible_initial_data(tmp_path, capsys):
    path = tmp_path / "incompatible.json"
    path.write_text(json.dumps({
        "M": [[1.0, 0.0], [0.0, 1.0]],
        "A": [[1.0, 0.0], [0.0, 1.0]],
        "u0": [0.0, 0.0],
        "B2": [[1.0, 0.0]],
        "g2": "const1",
    }))
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # construction warns; the CLI reports it
        rc = main(["validate", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[warn]" in out


# ---------------------------------------------------------------------------
# project subcommand


def test_project_t_squared_coefficients(capsys):
    rc = main(["project", "--preset", "tsq", "--q", "2", "--N", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    # Legendre coefficients of -1/3 + (4/3) t on (0, 1]: (1/3, 2/3)
    assert "modal coeffs: 0.333333 0.666667" in out
    assert "value(t_n): 1" in out


def test_project_constant_is_reproduced(capsys):
    rc = main(["project", "--preset", "const1", "--q", "2", "--N", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    # leading coefficient 1, endpoint value 1 on every slab
    assert out.count("modal coeffs: 1 ") == 3
    assert out.count("value(t_n): 1") == 3


def test_project_q1_endpoint_values(capsys):
    rc = main(["project", "--preset", "t", "--q", "1", "--N", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "value(t_n): 0.5" in out
    assert "value(t_n): 1" in out


def test_project_unknown_preset_exits_2(capsys):
    assert main(["project", "--preset", "cosh"]) == 2
    assert "unknown preset" in capsys.readouterr().err


def test_project_bad_mesh_exits_2(capsys):
    assert main(["project", "--preset", "t", "--N", "0"]) == 2


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_project_data_failure_exits_3(capsys):
    # exp(t) overflows on a mesh to T = 1e308
    assert main(["project", "--preset", "exp_t", "--T", "1e308", "--N", "2"]) == 3
    assert capsys.readouterr().err.startswith("error: solver failure: ")


# ---------------------------------------------------------------------------
# top-level entry


def test_main_builds_its_parsers_once_per_process(tmp_path, capsys):
    # the parser and its subparsers are built at import; no call of main,
    # nor the re-parse of a --config file, builds another
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps({"problem": "stokes3", "Ns": [4, 8], "format": "csv"}))
    built, init = [], argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    with mock.patch.object(argparse.ArgumentParser, "__init__", counting_init):
        assert main(["validate", "stokes3"]) == 0
        assert main(["study", "--config", str(cfg), "--Ns", "8,16"]) == 0
    assert built == []


def test_main_requires_subcommand(capsys):
    assert main([]) == 2


def test_main_rejects_unknown_flag(capsys):
    assert main(["study", "--problem", "heat1d", "--frobnicate"]) == 2
