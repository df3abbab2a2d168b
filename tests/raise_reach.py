"""List the raise statements in src/nbhd that no Tier-1 test reaches.

Runs the Tier-1 suite in this process under a line tracer that watches only
the package's own files, then prints each `raise` none of whose lines ran,
as path:line and the statement's first line, and a count.  A raise no test
reaches may be wrong or unreachable: each one listed wants a test that
triggers it and checks its type and text, or its deletion.

    python tests/raise_reach.py [pytest arguments]

Run it from the repository root.  Without arguments it runs the Tier-1
command's arguments, `-q --continue-on-collection-errors`.  The exit status
is 0 when every raise was reached and the tests passed, else 1.  Tracing
slows the suite several-fold, so expect minutes.  Code that a test runs in
a child process is not traced.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nbhd"


def raise_statements() -> list[tuple[Path, ast.Raise, str]]:
    """Each raise in the package, with its file and its first line."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        found += [
            (path, node, lines[node.lineno - 1].strip())
            for node in ast.walk(ast.parse(source, filename=str(path)))
            if isinstance(node, ast.Raise)
        ]
    return sorted(found, key=lambda item: (item[0], item[1].lineno))


def traced_lines(pytest_args: list[str]) -> tuple[dict[str, set[int]], int]:
    """The lines of the package's files that ran, by real path, and pytest's
    exit status."""
    hits = {str(path.resolve()): set() for path in PACKAGE.glob("*.py")}
    tracers: dict[str, object] = {}  # a code file name to its line tracer, or None

    def line_tracer(lines: set[int]):
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in tracers:
            real = os.path.realpath(name)
            tracers[name] = line_tracer(hits[real]) if real in hits else None
        return tracers[name]

    import pytest

    threading.settrace(calls)
    sys.settrace(calls)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return hits, int(status)


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    statements = raise_statements()  # before the run, whose imports they must match
    hits, status = traced_lines(argv or ["-q", "--continue-on-collection-errors"])
    unreached = []
    for path, node, first in statements:
        ran = hits[str(path.resolve())]
        if not any(line in ran for line in range(node.lineno, node.end_lineno + 1)):
            unreached.append(f"{path.relative_to(ROOT)}:{node.lineno}  {first}")
    print()
    print("\n".join(unreached))
    print(f"{len(unreached)} of {len(statements)} raise statements in src/nbhd not reached")
    if status:
        print(f"pytest exited with status {status}")
    return 1 if unreached or status else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
