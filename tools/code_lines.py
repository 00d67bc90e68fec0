#!/usr/bin/env python
"""Code-only line count: the repo's simplicity metric.

Counts the physical lines of every ``*.py`` file under the given paths
that carry at least one real token — anything but comments, newlines,
indentation and the encoding/end markers — and are not part of a
docstring (the string constant that is the first statement of a module,
class or function).  Blank lines, comments and docstrings therefore do
not count, so documenting code is never penalised and deleting comments
is never rewarded.

    python tools/code_lines.py src             # one total
    python tools/code_lines.py -v src tests    # per file, then the total
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, _DOCUMENTED) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    with tokenize.open(path) as fh:
        source = fh.read()
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", type=Path)
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="also print the count of every file")
    args = parser.parse_args(argv)
    total = 0
    for root in args.paths:
        files = [root] if root.is_file() else sorted(root.rglob("*.py"))
        for path in files:
            count = code_lines(path)
            total += count
            if args.verbose:
                print(f"{count:7d}  {path}")
    print(total)
    return 0


if __name__ == "__main__":
    sys.exit(main())
