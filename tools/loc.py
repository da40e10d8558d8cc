#!/usr/bin/env python3
"""Code-only line counts: lines that hold code, not blanks, comments or
docstrings — the measure the ROADMAP and the issues quote.

    python tools/loc.py                       # src/repro/chunkstore/*.py, then
                                              # a total per package of src/repro
    python tools/loc.py src/repro/obs/*.py    # any other files

A line counts if some token on it is neither a comment nor part of a
docstring (``tokenize`` finds the comments, ``ast`` the docstrings), so a
statement with a trailing comment counts and a multi-line string that is
not a docstring counts on every line it spans.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize
from pathlib import Path
from typing import Dict, List, Set

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
DEFAULT = SRC / "chunkstore"

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> Set[int]:
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ) and ast.get_docstring(node, clean=False) is not None:
            literal = node.body[0]
            lines.update(range(literal.lineno, literal.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    skip = docstring_lines(ast.parse(source))
    counted: Set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            counted.update(range(token.start[0], token.end[0] + 1))
    return len(counted - skip)


def per_package() -> None:
    """One total per package of ``src/repro`` (a package's own modules and
    its sub-packages'; top-level modules under ``repro``), and the sum."""
    totals: Dict[str, int] = {}
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC).parts
        package = parts[0] if len(parts) > 1 else "repro"
        totals[package] = totals.get(package, 0) + code_lines(path.read_text())
    for package, count in sorted(totals.items()):
        print(f"{count:6d}  {package}")
    print(f"{sum(totals.values()):6d}  code-only lines in src/repro, by package")


def main(argv: List[str]) -> int:
    paths = [Path(arg) for arg in argv] or sorted(DEFAULT.glob("*.py"))
    total = 0
    for path in paths:
        text = path.read_text()
        count = code_lines(text)
        total += count
        print(f"{count:6d}  {len(text.splitlines()):6d}  {os.path.relpath(path)}")
    print(f"{total:6d}  code-only lines in {len(paths)} file(s) (second column: all lines)")
    if not argv:
        per_package()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
