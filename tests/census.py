"""Which lines of ``src/nocsim`` the tests never run: a line census.

    PYTHONPATH=src python tests/census.py [PYTEST_ARG ...]

Run from the repository root. It runs pytest in this process (tier-1 when
no argument is given) under a ``sys.settrace`` tracer that records each
line run in a frame whose code lives in ``src/nocsim``. Then it prints
every line of a function body that never ran, as ``path:line: text``, and
the count. Only function bodies are counted: module and class bodies run
at import. Code that a test runs in a subprocess does not count. Standard
library only; it is a tool like ``golden_diff.py``, not part of tier-1,
and takes minutes. Exit status is pytest's.
"""

from __future__ import annotations

import sys
import threading
from inspect import CO_NEWLOCALS
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nocsim"


def body_lines(path: Path) -> set[int]:
    """The lines of every function body compiled from ``path``."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
        if code.co_flags & CO_NEWLOCALS:
            lines.update(line for _, _, line in code.co_lines() if line is not None)
    return lines


def main(argv: list[str]) -> int:
    prefix = str(SRC) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return local

    # read before the run, so the lines counted are those of the code that ran
    files = [(path, body_lines(path), path.read_text(encoding="utf-8").splitlines())
             for path in sorted(SRC.glob("*.py"))]
    import pytest

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = missed = 0
    for path, lines, text in files:
        never = sorted(lines - ran.get(str(path), set()))
        for line in never:
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
        total += len(lines)
        missed += len(never)
    print(f"{missed} of {total} function-body lines never ran")
    return int(status)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
