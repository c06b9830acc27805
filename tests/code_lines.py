"""Count the code lines of Python modules.

    python tests/code_lines.py src/contextsim

A code line holds at least one token that is not a comment, an indent or a
line break, and is no part of a docstring (the leading string of a module,
class or function). Blank lines, comments and docstrings do not count; each
line of a multi-line expression or string literal does. Prints the count of
each ``*.py`` file in the directory, in name order, then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _HAS_DOCSTRING) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tests/code_lines.py DIRECTORY", file=sys.stderr)
        return 1
    total = 0
    for path in sorted(Path(argv[0]).glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:<20} {count:>5}")
    print(f"{'total':<20} {total:>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
