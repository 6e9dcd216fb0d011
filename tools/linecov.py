"""List every statement in a function body of src/qdrings that tier-1 never runs.

Usage: python tools/linecov.py

Tier-1 runs in this process through ``pytest.main``, with a fixed hypothesis
seed so that a line reached only by some examples cannot flap, under a
``sys.settrace`` line tracer limited to src/qdrings.  Module and class bodies
run at import, so only the statements inside function bodies are listed,
docstrings left out.  A statement counts as run when any of its lines ran.
Each one that never ran is printed as ``file:line: source``, and the exit
status is 1 when there is any (or tier-1's own status when it fails).
"""

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qdrings"


def body_statements(source: str) -> set[tuple[int, int]]:
    """(first line, last line) of each statement inside a function body, docstrings left out."""
    spans = set()
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in (n for stmt in fn.body for n in ast.walk(stmt)):
                docstring = isinstance(node, ast.Expr) and isinstance(getattr(node.value, "value", None), str)
                if isinstance(node, ast.stmt) and not docstring:
                    spans.add((node.lineno, node.end_lineno))
    return spans


def tracer(prefix: str, ran: set[tuple[str, int]]):
    """A sys.settrace function that adds (file, line) to ran for each line run in a file under prefix."""

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    return lambda frame, event, arg: local if frame.f_code.co_filename.startswith(prefix) else None


def never_run(path: Path, ran: set[tuple[str, int]]) -> list[str]:
    """``file:line: source`` for each body statement of the module at path of which no line ran."""
    source, name = path.read_text(), str(path.resolve())
    lines = source.splitlines()
    return [
        f"{path}:{first}: {lines[first - 1].strip()}"
        for first, last in sorted(body_statements(source))
        if not any((name, n) in ran for n in range(first, last + 1))
    ]


def main() -> int:
    import pytest

    os.chdir(ROOT)  # where tier-1 runs, so the files print relative to the repository
    ran: set[tuple[str, int]] = set()
    sys.settrace(tracer(str(PACKAGE), ran))
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", "--hypothesis-seed=0"])
    finally:
        sys.settrace(None)
    if code:
        return int(code)
    missed = [line for path in sorted(PACKAGE.glob("*.py")) for line in never_run(path.relative_to(ROOT), ran)]
    for line in missed:
        print(line)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
