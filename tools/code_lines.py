"""Count the total lines and the code lines of the .py files under a directory.

    python3 tools/code_lines.py DIR

A code line holds at least one token that is not a comment, and is not part of
a docstring: the string literal that opens a module, class or function body.
Blank lines, comment-only lines and docstring lines are left out.  The counts
come from ``ast`` (the docstrings) and ``tokenize`` (every other token).
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set:
    """The line numbers spanned by every docstring of the tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple:
    """(total lines, code lines) of one file's source."""
    docstrings = _docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docstrings)
    return len(source.splitlines()), len(code)


def main(argv: list) -> int:
    if len(argv) != 1:
        print("usage: code_lines.py DIR", file=sys.stderr)
        return 2
    total = code = 0
    for path in sorted(Path(argv[0]).rglob("*.py")):
        lines, lines_of_code = count(path.read_text(encoding="utf-8"))
        total, code = total + lines, code + lines_of_code
    print(f"{argv[0]}: {total} lines, {code} code lines")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
