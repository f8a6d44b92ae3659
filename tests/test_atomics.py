"""Exclusive-access and READEX/LOCK atomicity at system level."""

from pathlib import Path

import nocsim
from nocsim.engine import run
from nocsim.fabric import TransportMode
from nocsim.oracle import sequential_oracle
from nocsim.scenario import atomic_loop_scenario, load_scenario
from nocsim.trace import (
    LOCK_CLEARED,
    LOCK_SET,
    MONITOR_ARMED,
    MONITOR_CLEARED,
    RESP_EMITTED,
    Trace,
    TraceEvent,
    check_invariants,
)

from oracles import exclusive_safety_reference

COUNTER = 64
DEADLOCK = Path(__file__).resolve().parent.parent / "scenarios" / "lock_deadlock.yaml"


def _counter_value(result):
    return int.from_bytes(result.memories[100][COUNTER : COUNTER + 4], "little")


def test_exclusive_two_masters_lose_no_updates():
    scenario = atomic_loop_scenario("exclusive", n_masters=2, iterations=50)
    result = run(scenario)
    assert not result.timed_out
    # arithmetic oracle: 2 masters x 50 iterations
    oracle = sequential_oracle(scenario)
    assert result.memories[100] == oracle[100]
    assert _counter_value(result) == 100


def test_exclusive_contention_produces_failures():
    result = run(atomic_loop_scenario("exclusive", n_masters=2, iterations=50))
    exfails = [e for e in result.trace if e.kind == RESP_EMITTED and e.op == "EXFAIL"]
    assert exfails, "two symmetric masters must contend at least once"


def test_exclusive_monitor_trace_events():
    result = run(atomic_loop_scenario("exclusive", n_masters=2, iterations=10))
    armed = [e for e in result.trace if e.kind == MONITOR_ARMED]
    cleared = [e for e in result.trace if e.kind == MONITOR_CLEARED]
    assert armed and cleared
    # wins: the acting master clears its own monitor on success
    wins = [e for e in cleared if e.master == e.tag and e.op == "STORE_EXCLUSIVE"]
    assert len(wins) == 20  # every completed iteration is one win
    assert check_invariants(result.trace) == []


def test_exclusive_safety_check_catches_missing_rearm():
    result = run(atomic_loop_scenario("exclusive", n_masters=2, iterations=5))
    events = list(result.trace)
    # drop one master's re-arm between two of its wins to poison the trace
    wins = [
        i for i, e in enumerate(events)
        if e.kind == MONITOR_CLEARED and e.master == e.tag and e.op == "STORE_EXCLUSIVE"
    ]
    same_master_wins = [i for i in wins if events[i].master == events[wins[0]].master]
    lo, hi = same_master_wins[0], same_master_wins[1]
    poisoned = [
        e for i, e in enumerate(events)
        if not (lo < i < hi and e.kind == MONITOR_ARMED and e.master == events[lo].master)
    ]
    # the win preceding the stripped master's second one is the last it saw
    m2, granule = events[hi].master, events[hi].address
    m1 = events[max(i for i in wins if i < hi)].master
    result.trace.events = poisoned
    violations = check_invariants(result.trace)
    assert [v for v in violations if v.startswith("exclusive safety")] == [
        f"exclusive safety violation at {events[hi].site} granule {granule:#x}: "
        f"master {m2} won without re-arming after master {m1}'s win"
    ]


def _arm(cycle, site, master, granule):
    return TraceEvent(cycle, site, MONITOR_ARMED, master, "", master, "LOAD_EXCLUSIVE", granule)


def _clear(cycle, site, owner, actor, granule):
    return TraceEvent(cycle, site, MONITOR_CLEARED, owner, "", actor, "STORE_EXCLUSIVE", granule)


def test_exclusive_safety_reports_violations_grouped_by_sorted_granule():
    events = [
        _arm(0, "niu101", 0, 0x40),
        _clear(1, "niu101", 0, 0, 0x40),   # first win on the granule
        _arm(2, "niu100", 2, 0x80),
        _clear(3, "niu101", 1, 1, 0x40),   # master 1 never armed here
        _arm(4, "niu100", 3, 0x80),
        _clear(4, "niu100", 2, 2, 0x80),
        _clear(5, "niu101", 0, 0, 0x40),   # master 0 armed only before the first win
        _arm(6, "niu100", 1, 0x40),
        _clear(7, "niu100", 1, 1, 0x40),
        _arm(8, "niu100", 0, 0x40),
        _clear(8, "niu100", 0, 1, 0x40),   # master 1 clears 0's monitor: no win
        _clear(9, "niu100", 0, 0, 0x40),   # armed after master 1's win: fine
        _clear(10, "niu100", 3, 3, 0x80),  # master 3 armed only before master 2's win
        _clear(11, "niu100", 0, 0, 0x40),  # no re-arm after its own win
    ]
    expected = [
        "exclusive safety violation at niu100 granule 0x40: "
        "master 0 won without re-arming after master 0's win",
        "exclusive safety violation at niu100 granule 0x80: "
        "master 3 won without re-arming after master 2's win",
        "exclusive safety violation at niu101 granule 0x40: "
        "master 1 won without re-arming after master 0's win",
        "exclusive safety violation at niu101 granule 0x40: "
        "master 0 won without re-arming after master 1's win",
    ]
    assert check_invariants(Trace(events)) == expected
    assert exclusive_safety_reference(events) == expected


def test_exclusive_scales_to_more_masters():
    scenario = atomic_loop_scenario("exclusive", n_masters=4, iterations=25)
    result = run(scenario)
    assert _counter_value(result) == 100
    assert result.memories == sequential_oracle(scenario)


def test_lock_two_masters_full_count():
    scenario = atomic_loop_scenario("lock", n_masters=2, iterations=50)
    result = run(scenario)
    assert not result.timed_out
    assert _counter_value(result) == 100
    assert result.memories == sequential_oracle(scenario)


def test_lock_windows_exclude_foreign_traffic():
    result = run(atomic_loop_scenario("lock", n_masters=3, iterations=10))
    assert not result.timed_out
    sets = [e for e in result.trace if e.kind == LOCK_SET]
    clears = [e for e in result.trace if e.kind == LOCK_CLEARED]
    assert sets and len(sets) == len(clears)
    # the full-detail trace audit walks every locked window
    assert check_invariants(result.trace) == []


def test_lock_works_in_both_transport_modes():
    for mode in (TransportMode.WORMHOLE, TransportMode.STORE_AND_FORWARD):
        result = run(atomic_loop_scenario("lock", n_masters=2, iterations=10, mode=mode))
        assert _counter_value(result) == 20


def test_deadlock_scenario_times_out_with_stuck_report():
    result = run(load_scenario(DEADLOCK))
    assert result.timed_out
    assert result.stuck
    assert any("READEX" in line for line in result.stuck)
    locked = [e for e in result.trace if e.kind == LOCK_SET]
    assert locked  # both lock sequences made partial progress


def test_masters_make_progress_in_windows():
    result = run(atomic_loop_scenario("exclusive", n_masters=4, iterations=25))
    last_seen = {}
    for e in result.trace:
        if e.kind == RESP_EMITTED:
            gap = e.cycle - last_seen.get(e.master, 0)
            assert gap < 1000, f"master {e.master} starved for {gap} cycles"
            last_seen[e.master] = e.cycle
