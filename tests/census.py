"""Which lines of ``src/nocsim`` the tests never run: a line census.

    PYTHONPATH=src python tests/census.py [PYTEST_ARG ...]

Run from the repository root. It runs pytest in this process (tier-1 when
no argument is given) under a ``sys.settrace`` tracer that records each
line run in a frame whose code lives in ``src/nocsim``. Then it prints
every line of a function body that never ran, as ``path:line: text``, and
the count. Only function bodies are counted: module and class bodies run
at import. Code that a test runs in a subprocess does not count. Standard
library only; it is a tool like ``golden_diff.py``, not part of tier-1,
and takes minutes.

``ALLOWED`` lists the lines accepted as never run, each with its reason;
the census prints that reason after such a line. An entry is matched by
the line's text within its function, not by the line's number, so it
survives edits elsewhere in the file. Exit status is 1 when a never-run
line is not listed, or an entry matches no never-run line, else pytest's.
"""

from __future__ import annotations

import sys
import threading
from inspect import CO_NEWLOCALS
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nocsim"

# (file in src/nocsim, function's qualified name, the line's stripped text,
# why it may never run)
ALLOWED = (
    ("niu.py", "PendingTable.insert", 'raise ScenarioError("pending table overflow")',
     "guards an internal bug: assign_tag gives no tag while the table is full"),
)


def body_lines(path: Path) -> dict[int, str]:
    """The lines of every function body compiled from ``path``, each with the
    qualified name of the innermost function it belongs to."""
    lines: dict[int, str] = {}
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
        if code.co_flags & CO_NEWLOCALS:
            name = code.co_qualname
            for _, _, line in code.co_lines():
                if line is not None and len(name) > len(lines.get(line, "")):
                    lines[line] = name
    return lines


def stale_entries(entries=ALLOWED) -> list[tuple]:
    """The entries whose text is on no line of their function's body."""
    stale = []
    for entry in entries:
        path = SRC / entry[0]
        text = path.read_text(encoding="utf-8").splitlines()
        found = {text[line - 1].strip() for line, name in body_lines(path).items()
                 if name == entry[1]}
        if entry[2] not in found:
            stale.append(entry)
    return stale


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

    reasons = {entry[:3]: entry[3] for entry in ALLOWED}
    matched = set()
    total = missed = unlisted = 0
    for path, lines, text in files:
        never = sorted(set(lines) - ran.get(str(path), set()))
        for line in never:
            key = (path.name, lines[line], text[line - 1].strip())
            reason = reasons.get(key)
            if reason is None:
                unlisted += 1
            matched.add(key)
            note = "" if reason is None else f"  [listed: {reason}]"
            print(f"{path.relative_to(ROOT)}:{line}: {key[2]}{note}")
        total += len(lines)
        missed += len(never)
    print(f"{missed} of {total} function-body lines never ran, {unlisted} of them not listed")
    unmatched = [key for key in reasons if key not in matched]
    for name, function, text in unmatched:
        print(f"listed, but ran or is gone: {name} {function}: {text}")
    return 1 if unlisted or unmatched else int(status)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
