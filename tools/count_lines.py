"""Count the code lines of tfmult's modules: lines that are not blank, comment or docstring.

    python3 tools/count_lines.py [FILE ...]

Without arguments it counts the five modules ``core``, ``tf``, ``mult``,
``verify`` and ``cli`` under ``src/tfmult`` of this checkout.  A line
counts when a token other than a comment starts on it or a string token
continues over it, unless it lies in a docstring: the string statement that
opens a module, class or function body.  One line per file gives the
module name and its count, and a last line the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

MODULES = ("core", "tf", "mult", "verify", "cli")
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code, not counting docstrings."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - _docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    src = Path(__file__).resolve().parents[1] / "src" / "tfmult"
    paths = [Path(a) for a in args] or [src / f"{name}.py" for name in MODULES]
    total = 0
    for path in paths:
        n = count_code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{path.stem:<8}{n:>6}")
    print(f"{'total':<8}{total:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
