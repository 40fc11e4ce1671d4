"""List the statements of ``src/riskspace`` that no test executes.

Standard library only, so it runs where ``coverage`` is not installed: the
test suite runs in this process under ``sys.settrace``, which records every
line executed in the package's files, and each statement is then checked
against those lines.  A simple statement counts as executed when any of its
lines ran; a compound one (``if``, ``for``, ``def``, ...) when a line of its
head, decorators included, ran.  Docstrings, ``try:`` and ``global`` lines
run no code of their own and are not listed.

Run from the root of a checkout; extra arguments go to pytest:

    python tools/untested.py                  # the tier-1 suite
    python tools/untested.py tests/test_cli.py

Prints one ``path:line: statement`` per statement never executed, then a
summary line.  Statements reached only in a child process, such as a CLI
test that starts ``python -m riskspace.cli``, are listed too: the tracer
sees this process alone.  Tracing slows the suite down, so a test with a
Hypothesis deadline can fail under it; the lines it ran still count, and
the exit status is pytest's.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "riskspace"


def statement_heads(source: str) -> list[tuple[int, int, int]]:
    """(line, first, last) of each statement that runs code: ``line`` is
    where it starts, and it counts as executed when any line in
    [first, last] ran."""
    heads = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(
                node, (ast.Try, ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue
        first = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        heads.append((node.lineno, first, max(first, last)))
    return sorted(heads)


def main(pytest_args: list[str]) -> int:
    import pytest

    files = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    ran: dict[str, set[int]] = {name: set() for name in files}
    known: dict[str, set[int] | None] = {}

    def lines_of(filename: str) -> set[int] | None:
        if filename not in known:
            known[filename] = ran.get(str(Path(filename).resolve()))
        return known[filename]

    def trace(frame, event, arg):
        hits = lines_of(frame.f_code.co_filename)
        if hits is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return local

        return local

    sys.path.insert(0, str(PACKAGE.parent))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missing = 0
    for name, path in files.items():
        source = path.read_text()
        lines = source.splitlines()
        for line, first, last in statement_heads(source):
            if not ran[name] & set(range(first, last + 1)):
                missing += 1
                print(f"{path.relative_to(ROOT)}:{line}: {lines[line - 1].strip()}")
    print(f"{missing} statements never executed; pytest exit status {int(status)}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
