#!/usr/bin/env python3
"""Print the size of each module of ``src/qnearest``: all its lines, and its
code lines, which leave out docstrings, comments and blank lines.

Usage: ``python3 scripts/code_lines.py [package directory]``. The output is
CSV, one row per module in name order and a ``total`` row last.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qnearest"
# tokens that stand on comment, blank or layout-only lines
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines holding at least one token of code that is not a docstring."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main() -> None:
    parser = argparse.ArgumentParser(description="Total and code lines per module.")
    parser.add_argument("package", nargs="?", type=Path, default=PACKAGE)
    args = parser.parse_args()
    print("module,lines,code_lines")
    total = code = 0
    for path in sorted(args.package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines, kept = len(source.splitlines()), code_lines(source)
        print(f"{path.name},{lines},{kept}")
        total, code = total + lines, code + kept
    print(f"total,{total},{code}")


if __name__ == "__main__":
    main()
