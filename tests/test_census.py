"""The census allowlist (``tests/census.py``) names lines that still exist."""

import census


def test_every_listed_line_is_in_its_function():
    assert census.stale_entries() == []


def test_an_entry_whose_line_left_its_function_is_stale():
    moved = ("niu.py", "PendingTable.pop", 'raise ScenarioError("pending table overflow")', "")
    gone = ("workload.py", "Master.done", "raise NotImplementedError()", "")
    assert census.stale_entries((moved, gone, *census.ALLOWED)) == [moved, gone]
