"""Line counts of the dgtime package: python tools/src_lines.py

For each src/dgtime/*.py, prints its total lines (as wc -l counts them)
and its code lines: lines that hold a token other than a comment, a
docstring or layout.  A docstring is the string expression that opens a
module, class or function body.  Standard library only.
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dgtime"
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple:
    """(total lines, code lines) of one Python file."""
    text = path.read_text(encoding="utf-8")
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return text.count("\n"), len(code - _docstring_lines(ast.parse(text)))


def main() -> None:
    totals = [0, 0]
    print(f"{'file':<16}{'total':>8}{'code':>8}")
    for path in sorted(PACKAGE.glob("*.py")):
        lines = count(path)
        totals = [t + n for t, n in zip(totals, lines)]
        print(f"{path.name:<16}{lines[0]:>8}{lines[1]:>8}")
    print(f"{'total':<16}{totals[0]:>8}{totals[1]:>8}")


if __name__ == "__main__":
    main()
