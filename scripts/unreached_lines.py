#!/usr/bin/env python3
"""Print the lines of src/awilt that no test runs, and fail if there are any.

Usage: PYTHONPATH=src python scripts/unreached_lines.py [PYTEST_ARGS...]

Runs pytest (the Tier-1 suite when no arguments are given) in this
process under a sys.settrace line tracer that records the lines run in
the files of src/awilt.  Then prints each executable line that no test
ran, as "path:line: source" with the path relative to the repository.
pytest's report and a count of those lines go to stderr.  A line is
executable when an instruction of the code compiled from its file starts
on it (co_lines), as coverage.py counts it.  Lines run only in a
subprocess, such as the one that imports the CLI in
`test_import_loads_no_scipy`, are not seen.  The tracer more than
doubles the suite's wall time, so this is not part of Tier-1.  Exits with
pytest's exit code when pytest fails, else with 1 when a line was not
run and 0 when every line was.
"""

import contextlib
import os
import sys
import threading
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "awilt")


def executable_lines(path):
    """The line numbers of a source file that start an instruction."""
    with open(path) as fh:
        stack = [compile(fh.read(), path, "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts
                     if isinstance(c, types.CodeType))
    return lines


def main():
    prefix = PACKAGE + os.sep
    traced = {}          # co_filename -> absolute path, or None if outside
    ran = set()

    def local(frame, event, _):
        if event == "line":
            ran.add((traced[frame.f_code.co_filename], frame.f_lineno))
        return local

    def call(frame, event, _):
        name = frame.f_code.co_filename
        if name not in traced:
            path = os.path.abspath(name)
            traced[name] = path if path.startswith(prefix) else None
        if traced[name] is None:
            return None
        ran.add((traced[name], frame.f_lineno))
        return local

    import pytest
    os.chdir(ROOT)
    threading.settrace(call)
    sys.settrace(call)
    try:
        # pytest reports on stderr, so that stdout holds only the lines
        with contextlib.redirect_stdout(sys.stderr):
            code = pytest.main(sys.argv[1:] or
                               ["-q", "--continue-on-collection-errors",
                                "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = missed = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path) as fh:
            source = fh.read().splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for line in sorted(lines):
            if (path, line) not in ran:
                missed += 1
                print(f"{os.path.relpath(path, ROOT)}:{line}: "
                      f"{source[line - 1].strip()}")
    print(f"{missed} of {total} executable lines not run", file=sys.stderr)
    return int(code) or int(missed > 0)


if __name__ == "__main__":
    sys.exit(main())
