"""Command-line front end: convergence studies, system validation, projection demo.

Subcommands
-----------
study     run a convergence study and emit CSV or Markdown tables
validate  check the structural assumptions of a problem or system file
project   print the slab projection of a named data preset

The settings of a ``study --config`` JSON file are parsed as if given as
flags before the command-line ones.  Exit codes, mapped from errors once in
``main``: 0 success; 1 validation failures; 2 unusable configuration or input
files, or an --output path that cannot be written; 3 solver failure.  Table
output is deterministic: identical configurations produce byte-identical
files.  Values are printed with 6 significant digits; EOC cells read
"at-floor" when the error sits at the floating-point floor, and
unselected-norm cells stay empty.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from typing import Optional, Sequence

from .analysis import _PROBLEMS, EOCTable, StudyRow, _resolve_problem, _run_studies
from .dgsolver import DataError, SlabSolveError, SolverOptions
from .projection import ProjectionSpec, project_broken
from .systems import PRESET_FUNCTIONS, ConstrainedSystem, load_system, validate_system
from .timecore import build_uniform_mesh

__all__ = ["main", "format_csv", "format_markdown", "parse_table_csv"]

CSV_COLUMNS = ("N", "k", "err_energy", "eoc_energy", "err_nodal", "eoc_nodal",
               "err_p", "eoc_p")


# ---------------------------------------------------------------------------
# study configuration

def _names(text: str) -> tuple:
    """--norms: comma-separated names, blanks dropped."""
    return tuple(s.strip() for s in text.split(",") if s.strip())


def _slab_counts(text: str) -> tuple:
    """--Ns: comma-separated integers; the study checks that they increase."""
    try:
        return tuple(int(s) for s in _names(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a list of integers: {text!r}") from None


def _config_argv(path: str) -> list:
    """The study settings of a JSON config file as --key=value tokens.

    Lists are joined by commas; unknown keys and null values are left out.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("config file must hold a JSON object")
    tokens = []
    for key in ("problem", "q", "Ns", "projection", "norms", "format", "output"):
        value = raw.get(key)
        if isinstance(value, list):
            value = ",".join(map(str, value))
        if value is not None:
            tokens.append(f"--{key}={value}")
    return tokens


# ---------------------------------------------------------------------------
# table formatting

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float) and math.isnan(value):
        return "at-floor"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def _parse_cell(text: str):
    if text == "":
        return None
    if text == "at-floor":
        return math.nan
    return float(text)


def format_csv(table: EOCTable) -> str:
    """Fixed-column CSV (comma separated, LF line endings)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in table.rows:
        writer.writerow([_fmt(getattr(r, col)) for col in CSV_COLUMNS])
    return buf.getvalue()


def parse_table_csv(text: str, problem: str = "", q: int = 0,
                    use_projection: bool = True) -> EOCTable:
    """Inverse of format_csv (table metadata is not stored in the file)."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None:
        raise ValueError("the CSV has no header line")
    if tuple(header) != CSV_COLUMNS:
        raise ValueError(f"unexpected CSV header {header}")
    rows = []
    for rec in reader:
        if len(rec) != len(CSV_COLUMNS):
            raise ValueError(f"line {reader.line_num}: {len(rec)} cells, "
                             f"expected {len(CSV_COLUMNS)}")
        vals = [_parse_cell(cell) for cell in rec]
        rows.append(StudyRow(int(vals[0]), *vals[1:]))
    if not rows:
        raise ValueError("the CSV has no data rows")
    return EOCTable(problem=problem, q=q, use_projection=use_projection,
                    rows=tuple(rows))


def format_markdown(table: EOCTable) -> str:
    """Markdown pipe table with one error/EOC column pair per selected norm."""
    if not table.rows:
        raise ValueError("the table has no rows")
    cols = [("N", "N"), ("k", "k")]
    first = table.rows[0]
    if first.err_energy is not None:
        cols += [("err_energy", "err_energy"), ("eoc_energy", "EOC")]
    if first.err_nodal is not None:
        cols += [("err_nodal", "err_nodal"), ("eoc_nodal", "EOC")]
    if first.err_p is not None:
        cols += [("err_p", "err_p"), ("eoc_p", "EOC")]
    proj = "on" if table.use_projection else "off"
    lines = [f"### {table.problem}, q = {table.q}, projection {proj}", ""]
    lines.append("| " + " | ".join(label for _, label in cols) + " |")
    lines.append("|" + "|".join("---:" for _ in cols) + "|")
    for r in table.rows:
        lines.append("| " + " | ".join(_fmt(getattr(r, field)) for field, _ in cols) + " |")
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# subcommands

def _load_problem(ref: str) -> ConstrainedSystem:
    """A built-in problem by name, otherwise a system JSON file."""
    return _resolve_problem(ref) if ref in _PROBLEMS else load_system(ref)


def _cmd_study(args) -> int:
    if args.problem is None:
        raise ValueError("a problem must be given (--problem or config file)")
    system = _load_problem(args.problem)
    projections = {"on": [True], "off": [False], "both": [True, False]}[args.projection]
    tables = _run_studies(system, args.q, args.Ns, projections, args.norms)
    render = format_csv if args.format == "csv" else format_markdown
    for table in tables:
        proj = "on" if table.use_projection else "off"
        if args.output is None:
            if args.format == "csv" and len(tables) > 1:
                print(f"# projection {proj}")
            print(render(table), end="\n" if args.format == "csv" else "")
            continue
        path = args.output
        if len(tables) > 1:
            root, ext = os.path.splitext(path)  # a dot in a directory is no extension
            path = f"{root}_projection_{proj}{ext}"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(render(table))
        print(f"wrote {path}")
    return 0


def _cmd_validate(args) -> int:
    report = validate_system(_load_problem(args.problem))
    for check in report.checks:
        status = "PASS" if check.ok else "FAIL"
        print(f"[{status}] {check.name} — {check.detail}")
    for note in report.warnings:
        print(f"[warn] {note}")
    return 0 if report.passed else 1


def _cmd_project(args) -> int:
    fn = PRESET_FUNCTIONS.get(args.preset)
    if fn is None:
        raise ValueError(f"unknown preset {args.preset!r} "
                         f"(known: {', '.join(sorted(PRESET_FUNCTIONS))})")
    mesh = build_uniform_mesh(args.T, args.N)
    spec = ProjectionSpec(args.q, SolverOptions(q=args.q).quadrature())
    F = project_broken(fn, mesh, 1, spec)
    print(f"projection of preset '{args.preset}' with q = {args.q} "
          f"on {mesh.N} slab(s), T = {mesh.T:g}")
    for n in range(mesh.N):
        s = F.slab(n)
        coeffs = " ".join(f"{c:.6g}" for c in s.coeffs[:, 0])
        print(f"slab {n + 1}: ({s.a:g}, {s.b:g}]  modal coeffs: {coeffs}  "
              f"value(t_n): {s.value_end()[0]:.6g}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dgtime",
        description="DG time stepping for constrained parabolic systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_study = sub.add_parser("study", help="run a convergence study")
    p_study.add_argument("--problem", help="heat1d, stokes3, or a system JSON file")
    p_study.add_argument("--q", type=int, default=2,
                         help="temporal dofs per slab, i.e. polynomial degree q - 1 (default 2)")
    p_study.add_argument("--Ns", type=_slab_counts, default=(8, 16, 32, 64),
                         help="comma-separated slab counts, strictly increasing "
                              "(default 8,16,32,64)")
    p_study.add_argument("--projection", choices=("on", "off", "both"), default="on")
    p_study.add_argument("--norms", type=_names, default=("energy", "nodal"),
                         help="comma-separated subset of energy,nodal,multiplier")
    p_study.add_argument("--format", choices=("csv", "md"), default="md")
    p_study.add_argument("--output", help="output file (stdout if omitted)")
    p_study.add_argument("--config", help="JSON config file; flags override")
    p_study.set_defaults(handler=_cmd_study)

    p_val = sub.add_parser("validate", help="validate a problem or system file")
    p_val.add_argument("problem", help="heat1d, stokes3, or a system JSON file")
    p_val.set_defaults(handler=_cmd_validate)

    p_proj = sub.add_parser("project", help="print the slab projection of a preset")
    p_proj.add_argument("--preset", required=True,
                        help=f"one of {', '.join(sorted(PRESET_FUNCTIONS))}")
    p_proj.add_argument("--q", type=int, default=2)
    p_proj.add_argument("--N", type=int, default=1, help="number of slabs")
    p_proj.add_argument("--T", type=float, default=1.0, help="final time")
    p_proj.set_defaults(handler=_cmd_project)
    return parser


# built once per process: parsing leaves the parser unchanged
_PARSER = _build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _PARSER.parse_args(argv)
        if getattr(args, "config", None):
            # argv[0] is the subcommand; the flags after it override the file
            args = _PARSER.parse_args([argv[0], *_config_argv(args.config), *argv[1:]])
        return args.handler(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (SlabSolveError, DataError) as exc:
        print(f"error: solver failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
