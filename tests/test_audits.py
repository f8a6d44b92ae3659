"""Post-run audits: each flags a poisoned trace, by exact message text, and
the one-pass audits agree with their definitions on poisoned real traces."""

import random

from nocsim import random_scenario
from nocsim.engine import run
from nocsim.fabric import TransportMode
from nocsim.scenario import atomic_loop_scenario
from nocsim.trace import (
    LOCK_SET,
    MONITOR_ARMED,
    PKT_DELIVERED,
    PKT_INJECTED,
    REQ_ISSUED,
    RESP_EMITTED,
    Trace,
    TraceEvent,
    check_invariants,
)

from oracles import exclusive_safety_reference, tag_liveness_reference


def _of(violations, prefix):
    return [v for v in violations if v.startswith(prefix)]


def test_dead_tag_after_request_removed():
    result = run(atomic_loop_scenario("lock", n_masters=2, iterations=3))
    events = result.trace.events
    assert _of(check_invariants(result.trace), "tag liveness") == []
    # each master of the loop has one request outstanding at a time, so the
    # removed request's packets are covered by no other window of its tag
    i = [k for k, e in enumerate(events) if e.kind == REQ_ISSUED and e.master == 1][1]
    victim = events[i]
    close = next(
        k for k in range(i + 1, len(events))
        if events[k].kind == RESP_EMITTED and events[k].master == victim.master
    )
    carried = [
        e for e in events[i + 1 : close]
        if e.kind in (PKT_INJECTED, PKT_DELIVERED)
        and (e.master, e.tag) == (victim.master, victim.tag)
    ]
    assert len(carried) >= 2
    result.trace.events = events[:i] + events[i + 1 :]
    assert _of(check_invariants(result.trace), "tag liveness") == [
        f"tag liveness violation: packet event at cycle {e.cycle} site {e.site} "
        f"carries dead tag {victim.tag} of master {victim.master}"
        for e in carried
    ]


def test_tag_live_twice_across_streams():
    events = [
        TraceEvent(0, "niu0", REQ_ISSUED, 0, "thread:0", 2, "LOAD", 0x10),
        TraceEvent(1, "niu0", REQ_ISSUED, 0, "thread:1", 2, "LOAD", 0x20),
        TraceEvent(1, "niu0", PKT_INJECTED, 0, "", 2, "LOAD", 0x10),
        TraceEvent(5, "niu0", RESP_EMITTED, 0, "thread:0", 2, "OKAY", 0x10),
        TraceEvent(6, "niu0", RESP_EMITTED, 0, "thread:1", 2, "OKAY", 0x20),
        # reusing the tag after both windows closed is fine
        TraceEvent(7, "niu0", REQ_ISSUED, 0, "thread:2", 2, "LOAD", 0x30),
        TraceEvent(9, "niu0", RESP_EMITTED, 0, "thread:2", 2, "OKAY", 0x30),
    ]
    assert check_invariants(Trace(events)) == [
        "tag liveness violation: master 0 tag 2 live twice (streams thread:0 and thread:1)"
    ]


def test_foreign_packet_inside_lock_window():
    result = run(atomic_loop_scenario("lock", n_masters=2, iterations=2))
    events = result.trace.events
    assert _of(check_invariants(result.trace), "lock violation") == []
    i = next(k for k, e in enumerate(events) if e.kind == LOCK_SET)
    held = events[i]
    foreign = 1 - held.master
    intruder = TraceEvent(held.cycle + 1, held.site, PKT_DELIVERED, foreign, "", 0, "LOAD", 64)
    result.trace.events = events[: i + 1] + [intruder] + events[i + 1 :]
    assert _of(check_invariants(result.trace), "lock violation") == [
        f"lock violation: packet of master {foreign} crossed {held.site} at cycle "
        f"{held.cycle + 1} while locked by {held.master} since cycle {held.cycle}"
    ]


def test_credit_bounds_from_stats():
    scenario = atomic_loop_scenario("lock", n_masters=2, iterations=2)
    result = run(scenario)
    assert check_invariants(result.trace, scenario, result.stats) == []
    first, last = sorted(result.stats.channels)[0], sorted(result.stats.channels)[-1]
    result.stats.channels[first]["min_credits"] = -1
    depth = result.stats.channels[last]["depth"]
    result.stats.channels[last]["min_credits"] = depth + 1
    assert check_invariants(result.trace, scenario, result.stats) == [
        f"credit bounds violated on {first}: min -1",
        f"credit bounds violated on {last}: min {depth + 1}",
    ]


def _poisoned(events, rng):
    """A copy with random events dropped (monitor arms more often) and
    random events duplicated elsewhere."""
    out = [
        e for e in events
        if rng.random() >= (0.3 if e.kind == MONITOR_ARMED else 0.03)
    ]
    for _ in range(rng.randrange(4)):
        out.insert(rng.randrange(len(out) + 1), rng.choice(events))
    return out


def test_one_pass_audits_match_definitions_on_poisoned_traces():
    scenarios = [
        atomic_loop_scenario("exclusive", n_masters=3, iterations=8),
        atomic_loop_scenario("lock", n_masters=3, iterations=5),
    ] + [
        random_scenario(seed, trace_level="full").with_mode(mode)
        for seed in range(3)
        for mode in (TransportMode.WORMHOLE, TransportMode.STORE_AND_FORWARD)
    ]
    rng = random.Random(7)
    flagged = 0
    for scenario in scenarios:
        events = run(scenario).trace.events
        for copy in [events] + [_poisoned(events, rng) for _ in range(8)]:
            violations = check_invariants(Trace(copy))
            tag = _of(violations, "tag liveness")
            exclusive = _of(violations, "exclusive safety")
            assert tag == tag_liveness_reference(copy)
            assert exclusive == exclusive_safety_reference(copy)
            flagged += len(tag) + len(exclusive)
    assert flagged > 100
