"""Code lines per module under src/, and in total.

Usage: python tests/loc.py [ROOT]

A code line is a line that holds a token other than a comment, an
indent, a dedent or a line break, and that lies outside every docstring
(the string statement that opens a module, class or function body).
Blank lines, comment lines and docstring lines are not counted.  ROOT
defaults to this checkout; another checkout's root gives its counts.

The file has no `test_` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import ast
import pathlib
import sys
import tokenize

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree):
    """The line numbers that docstrings of `tree` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path):
    """The number of code lines in the Python file at `path`."""
    docs = _docstring_lines(ast.parse(path.read_text(encoding="utf-8")))
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in SKIPPED:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main(argv):
    root = pathlib.Path(argv[1] if len(argv) > 1
                        else pathlib.Path(__file__).resolve().parent.parent)
    src = root / "src"
    total = 0
    for path in sorted(src.rglob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6}  {path.relative_to(src).as_posix()}")
    print(f"{total:6}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
