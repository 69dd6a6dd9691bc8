#!/usr/bin/env python3
"""Count the lines of Python modules: all of them, and the code lines.

    python3 tools/count_lines.py              # the modules of src/araid
    python3 tools/count_lines.py path ...     # files, or directories of them

Prints one row per module, then the total: its lines, and its code lines,
which leave out blank lines, lines that hold only a comment, and the lines
of module, class and function docstrings. A claim of less code should rest
on the code column, which deleting comments or docstrings does not move.
"""
from __future__ import annotations

import argparse
import ast
import io
import pathlib
import sys
import tokenize

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def count(source: str) -> tuple[int, int]:
    """(lines, code lines) of one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstrings)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    root = pathlib.Path(__file__).resolve().parents[1]
    parser.add_argument("paths", nargs="*", type=pathlib.Path, default=[root / "src" / "araid"])
    args = parser.parse_args(argv)
    files = sorted(f for p in args.paths for f in ([p] if p.is_file() else p.rglob("*.py")))
    rows = [(str(f.resolve().relative_to(root)) if f.resolve().is_relative_to(root) else str(f),
             *count(f.read_text())) for f in files]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, lines, code in rows:
        print(f"{name:<{width}}  {lines:>6}  {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
