"""Where two commits' golden runs first part.

    python tests/golden_diff.py REV [CASE ...]

Exports REV with ``git archive`` into a temporary directory and runs the
golden cases of ``tests/test_golden.py`` (all of them when no CASE is
named) twice: on that tree and on this checkout, each side in its own
subprocess with only its own ``src`` and ``tests`` on the import path. For
each case whose output differs it prints the first differing line of
``trace.csv`` and of the ``check_invariants`` output, with the line number
and both sides, the ``stats.txt`` keys whose values differ, and whether the
stuck lists differ. Then it prints the line total of ``src/nocsim`` on
each side, and each file's count where the sides differ. Exit status is 0
when no case differs, 1 when one does and 2 when REV cannot be exported;
the line counts do not change it.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
END = "<end of file>"


def dump(tree: Path, out: Path, cases: list[str]) -> None:
    """Run the cases with ``tree``'s code; write each one's output under ``out``."""
    sys.path[:1] = [str(tree / "src"), str(tree / "tests")]
    from test_golden import CASES

    from nocsim import Engine, check_invariants

    for case in cases or sorted(CASES):
        if case not in CASES:
            continue
        folder = out / case
        folder.mkdir(parents=True)
        scenario = CASES[case]()
        result = Engine(scenario).run()
        (folder / "trace.csv").write_text(result.trace.to_csv())
        (folder / "stats.txt").write_text(result.stats.to_text())
        (folder / "stuck.txt").write_text("\n".join(result.stuck))
        audit = check_invariants(result.trace, scenario, result.stats)
        (folder / "audit.txt").write_text("\n".join(audit))


def first_difference(ours: list[str], theirs: list[str]) -> Optional[tuple[int, str, str]]:
    """(1-based line number, our line, their line) where two texts first differ."""
    for number, (a, b) in enumerate(zip_longest(ours, theirs, fillvalue=END), 1):
        if a != b:
            return number, a, b
    return None


def stats_keys_that_differ(ours: str, theirs: str) -> list[str]:
    """Keys of two ``stats.txt`` texts whose values differ or exist on one side only."""
    a, b = (dict(line.split(" = ", 1) for line in text.splitlines()) for text in (ours, theirs))
    return [key for key in {**a, **b} if a.get(key) != b.get(key)]


def compare(case: str, rev_dir: Path, this_dir: Path, rev: str) -> list[str]:
    """The report lines for one case; empty when both sides agree."""
    missing = [side for side, folder in ((rev, rev_dir), ("this checkout", this_dir))
               if not folder.exists()]
    if missing:
        return [f"{case}: not a golden case at {' or '.join(missing)}"]
    text = {name: ((rev_dir / name).read_text(), (this_dir / name).read_text())
            for name in ("trace.csv", "stats.txt", "stuck.txt", "audit.txt")}
    lines = []
    for name in ("trace.csv", "audit.txt"):
        first = first_difference(*(t.splitlines() for t in text[name]))
        if first:
            number, a, b = first
            lines += [f"  {name} line {number}", f"    {rev}: {a}", f"    this checkout: {b}"]
    keys = stats_keys_that_differ(*text["stats.txt"])
    if keys:
        lines.append(f"  stats.txt keys: {', '.join(keys)}")
    if text["stuck.txt"][0] != text["stuck.txt"][1]:
        lines.append("  stuck list differs")
    return [f"{case}:"] + lines if lines else []


def line_counts(tree: Path) -> dict[str, int]:
    """The number of lines of each file in ``tree``'s ``src/nocsim``."""
    return {path.name: len(path.read_text(encoding="utf-8").splitlines())
            for path in (tree / "src" / "nocsim").glob("*.py")}


def line_report(rev: str, theirs: dict[str, int], ours: dict[str, int]) -> list[str]:
    """Both sides' ``src/nocsim`` line totals, then each file whose count differs."""
    lines = [f"src/nocsim lines: {sum(theirs.values())} at {rev}, "
             f"{sum(ours.values())} in this checkout"]
    for name in sorted({**theirs, **ours}):
        if theirs.get(name) != ours.get(name):
            lines.append(f"  {name}: {theirs.get(name, 0)} -> {ours.get(name, 0)}")
    return lines


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="commit to compare this checkout with")
    parser.add_argument("cases", nargs="*", help="golden case names (default: all)")
    parser.add_argument("--dump", nargs=2, metavar=("TREE", "OUT"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.dump:
        dump(Path(args.dump[0]), Path(args.dump[1]), args.cases)
        return 0

    with tempfile.TemporaryDirectory() as tmp:
        tree, out = Path(tmp) / "tree", Path(tmp) / "out"
        tree.mkdir()
        archive = subprocess.run(["git", "archive", args.rev], cwd=ROOT, capture_output=True)
        if archive.returncode:
            sys.stderr.write(archive.stderr.decode())
            return 2
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive.stdout, check=True)
        sides = {"rev": tree, "this": ROOT}
        workers = [
            subprocess.Popen([sys.executable, __file__, args.rev, *args.cases,
                              "--dump", str(root), str(out / side)])
            for side, root in sides.items()
        ]
        if any([worker.wait() for worker in workers]):
            raise SystemExit("a side failed to run its cases")
        cases = args.cases or sorted(
            {p.name for side in sides if (out / side).exists() for p in (out / side).iterdir()}
        )
        report = [line for case in cases
                  for line in compare(case, out / "rev" / case, out / "this" / case, args.rev)]
        differing = sum(not line.startswith(" ") for line in report)
        report += line_report(args.rev, line_counts(tree), line_counts(ROOT))
    print("\n".join(report + [f"{differing} of {len(cases)} cases differ from {args.rev}"]))
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
