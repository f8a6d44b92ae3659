"""The first-divergence tool, ``tests/golden_diff.py``."""

import subprocess
import sys
from pathlib import Path

import pytest
from golden_diff import compare, line_counts, line_report

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tests" / "golden_diff.py"


def _in_git_checkout() -> bool:
    probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True)
    return probe.returncode == 0


@pytest.mark.skipif(not _in_git_checkout(), reason="golden_diff.py exports REV with git")
def test_head_reports_no_difference(tmp_path):
    cases = ["file-basic_line", "file-lock_deadlock", "random-0-saf", "mixed-0-cut"]
    proc = subprocess.run([sys.executable, str(SCRIPT), "HEAD", *cases],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # the line counts of HEAD's src/nocsim, which this checkout may have edited
    archive = subprocess.run(["git", "archive", "HEAD", "src/nocsim"], cwd=ROOT,
                             capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(tmp_path)], input=archive.stdout, check=True)
    counts = line_report("HEAD", line_counts(tmp_path), line_counts(ROOT))
    assert proc.stdout == "\n".join(counts + ["0 of 4 cases differ from HEAD\n"])


def test_line_report_gives_totals_then_each_file_that_differs():
    theirs = {"engine.py": 438, "fabric.py": 728, "gone.py": 5}
    ours = {"engine.py": 430, "fabric.py": 728, "new.py": 9}
    assert line_report("abc123", theirs, ours) == [
        "src/nocsim lines: 1171 at abc123, 1167 in this checkout",
        "  engine.py: 438 -> 430",
        "  gone.py: 5 -> 0",
        "  new.py: 0 -> 9",
    ]
    assert line_report("abc123", ours, ours) == [
        "src/nocsim lines: 1167 at abc123, 1167 in this checkout"
    ]


def test_line_counts_count_the_lines_of_each_source_file(tmp_path):
    src = tmp_path / "src" / "nocsim"
    src.mkdir(parents=True)
    (src / "a.py").write_text("x = 1\ny = 2\n")
    (src / "b.py").write_text("")
    (src / "notes.txt").write_text("not code\n")
    assert line_counts(tmp_path) == {"a.py": 2, "b.py": 0}


def _write(folder: Path, trace: str, stats: str, stuck: str = "", audit: str = "") -> Path:
    folder.mkdir()
    for name, text in (("trace.csv", trace), ("stats.txt", stats),
                       ("stuck.txt", stuck), ("audit.txt", audit)):
        (folder / name).write_text(text)
    return folder


def test_compare_names_first_line_stats_keys_and_stuck(tmp_path):
    header = "cycle,site,kind\n"
    old = _write(tmp_path / "old", header + "0,niu0,REQ_ISSUED\n1,niu0,PKT_INJECTED\n",
                 "cycles = 9\nseed = 1\nmaster.0.issued = 2\n")
    new = _write(tmp_path / "new", header + "0,niu0,REQ_ISSUED\n",
                 "cycles = 8\nseed = 1\nlink.a.flits = 3\n", stuck="master 0 stuck",
                 audit="tag liveness violation")
    assert compare("case", old, new, "abc123") == [
        "case:",
        "  trace.csv line 3",
        "    abc123: 1,niu0,PKT_INJECTED",
        "    this checkout: <end of file>",
        "  audit.txt line 1",
        "    abc123: <end of file>",
        "    this checkout: tag liveness violation",
        "  stats.txt keys: cycles, master.0.issued, link.a.flits",
        "  stuck list differs",
    ]
    assert compare("case", old, old, "abc123") == []
    assert compare("case", old, tmp_path / "none", "abc123") == [
        "case: not a golden case at this checkout"
    ]
