#!/usr/bin/env python3
"""Print the raw lines and the code lines of each module of src/awilt.

Usage: python scripts/count_lines.py

A code line is one that is not blank, not a comment alone and not part
of a docstring (the string that opens a module, class or function).
Prints one "raw code path" row per module, the path relative to the
repository, then a "raw code total" row.
"""

import ast
import glob
import io
import os
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: tokens that make no line a code line
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def count(path):
    """(raw lines, code lines) of the Python file at path."""
    with open(path) as fh:
        source = fh.read()
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docstrings.update(range(body[0].lineno, body[0].end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstrings)


def main():
    total_raw = total_code = 0
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "awilt", "*.py"))):
        raw, code = count(path)
        total_raw += raw
        total_code += code
        print(f"{raw:6d} {code:6d} {os.path.relpath(path, ROOT)}")
    print(f"{total_raw:6d} {total_code:6d} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
