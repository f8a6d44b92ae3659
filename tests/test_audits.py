"""Post-run audits: each flags a poisoned trace, by exact message text, the
one-walk audit agrees with the per-check references on poisoned real traces
and, for tag liveness, on generated event lists, and it walks a trace once
at every trace level and sets off no garbage collection."""

import gc
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

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
    STALL,
    Trace,
    TraceEvent,
    check_invariants,
)

from oracles import (
    exclusive_safety_reference,
    lock_window_reference,
    stream_order_reference,
    tag_liveness_reference,
)


def _of(violations, prefix):
    return [v for v in violations if v.startswith(prefix)]


def test_dead_tag_after_request_removed():
    result = run(atomic_loop_scenario("lock", n_masters=2, iterations=3))
    events = list(result.trace)
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


def test_response_before_its_request_pairs_by_position():
    events = [
        TraceEvent(0, "niu0", RESP_EMITTED, 0, "thread:0", 1, "OKAY", 0x10),
        TraceEvent(1, "niu0", REQ_ISSUED, 0, "thread:0", 1, "LOAD", 0x10),
        TraceEvent(2, "niu0", REQ_ISSUED, 0, "thread:0", 2, "STORE_POSTED", 0x40),
        TraceEvent(3, "niu0", RESP_EMITTED, 0, "thread:0", 3, "OKAY", 0x20),
        TraceEvent(4, "niu0", REQ_ISSUED, 0, "thread:0", 3, "STORE", 0x30),
        TraceEvent(5, "niu0", REQ_ISSUED, 0, "thread:0", 4, "LOAD", 0x50),
        TraceEvent(6, "niu0", RESP_EMITTED, 1, "thread:0", 0, "OKAY", 0x10),
    ]
    assert check_invariants(Trace(events)) == [
        "conservation violation: response without request for master 1 stream thread:0",
        "stream order violation: master 0 stream thread:0 position 1: issued "
        "STORE@48 tag 3 at cycle 4, emitted OKAY@32 tag 3 at cycle 3",
        "conservation violation: 1 request(s) without response for master 0 "
        "stream thread:0",
    ]
    # cut before the last request, then before the store that answers the
    # early response: the surplus moves to the response side
    assert check_invariants(Trace(events[:5])) == [
        "stream order violation: master 0 stream thread:0 position 1: issued "
        "STORE@48 tag 3 at cycle 4, emitted OKAY@32 tag 3 at cycle 3",
    ]
    assert check_invariants(Trace(events[:4])) == [
        "conservation violation: 1 extra response(s) for master 0 stream thread:0",
    ]


# masters and tags; 0 is drawn most, so windows of one (master, tag) often overlap
_ids = st.one_of(st.just(0), st.integers(-1, 3))


@st.composite
def tag_events(draw):
    """Requests over few masters, streams and tags, each with its packet
    events after it and usually a response, ordered by drawn cycles: tags are
    reused across streams, stores may be posted, and a response may come
    before its request or not at all. Stray events are mixed in."""
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        master, tag = draw(_ids), draw(_ids)
        key = draw(st.sampled_from(["thread:0", "thread:1", "id:2"]))
        op = draw(st.sampled_from(["LOAD", "STORE", "STORE_POSTED"]))
        cycle = draw(st.integers(0, 20))
        rows.append((cycle, REQ_ISSUED, master, key, tag, op))
        for _ in range(draw(st.integers(0, 2))):
            kind = draw(st.sampled_from([PKT_INJECTED, PKT_DELIVERED]))
            rows.append((cycle + draw(st.integers(0, 6)), kind, master, "", tag, op))
        if draw(st.integers(0, 3)):
            resp_tag = draw(st.one_of(st.just(tag), _ids))
            rows.append((cycle + draw(st.integers(-2, 8)), RESP_EMITTED, master, key, resp_tag, "OKAY"))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from([RESP_EMITTED, PKT_DELIVERED, STALL]))
        rows.append((draw(st.integers(0, 20)), kind, draw(_ids), "thread:0", draw(_ids), "OKAY"))
    rows.sort(key=lambda row: row[0])
    return [
        TraceEvent(cycle, "niu0", kind, master, key, tag, op, 0x10 * tag)
        for cycle, kind, master, key, tag, op in rows
    ]


@settings(max_examples=500, derandomize=True, deadline=None)
@given(events=tag_events())
def test_tag_liveness_matches_its_definition_on_generated_events(events):
    assert _of(check_invariants(Trace(events)), "tag liveness") == tag_liveness_reference(events)


class _CountedWalks(list):
    """An event list that counts the walks over it."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def _walks(trace):
    trace.events = _CountedWalks(trace.events)
    check_invariants(trace)
    return trace.events.walks


def test_transaction_level_trace_is_walked_once():
    result = run(random_scenario(2, trace_level="transaction"))
    assert _walks(result.trace) == 1


@pytest.mark.parametrize("level", ["transaction", "packet", "full"])
def test_trace_is_walked_once_at_every_level(level):
    result = run(atomic_loop_scenario("lock", n_masters=2, iterations=3).with_trace_level(level))
    kinds = {e.kind for e in result.trace}
    assert (PKT_INJECTED in kinds) == (level != "transaction")
    assert _walks(result.trace) == 1


@pytest.mark.skipif(sys.implementation.name != "cpython", reason="CPython's collector counts")
def test_audit_sets_off_no_collection():
    """A garbage collection that an audit sets off walks every live object of
    its caller, such as a corpus of engines and traces, and a full one takes
    far longer than the audit. So a stream's state, its queue included, is
    one list: once a first audit has stocked the interpreter's free lists, a
    second one of a trace with dozens of streams allocates fewer than 50
    objects that count towards the next collection.
    """
    result = run(random_scenario(0, trace_level="transaction"))
    streams = {(ev.master, ev.key) for ev in result.trace if ev.kind == REQ_ISSUED}
    assert len(streams) > 30
    check_invariants(result.trace, None, result.stats)
    threshold = gc.get_threshold()
    gc.collect(0)
    collections = sum(gen["collections"] for gen in gc.get_stats())
    gc.set_threshold(50, *threshold[1:])
    try:
        check_invariants(result.trace, None, result.stats)
    finally:
        gc.set_threshold(*threshold)
    assert sum(gen["collections"] for gen in gc.get_stats()) == collections


def test_foreign_packet_inside_lock_window():
    result = run(atomic_loop_scenario("lock", n_masters=2, iterations=2))
    events = list(result.trace)
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
    """A copy with random events dropped (monitor arms more often), random
    events duplicated elsewhere, neighbouring events swapped (so a response
    can come before its request) and events retagged."""
    out = [
        e for e in events
        if rng.random() >= (0.3 if e.kind == MONITOR_ARMED else 0.03)
    ]
    for _ in range(rng.randrange(4)):
        out.insert(rng.randrange(len(out) + 1), rng.choice(events))
    for _ in range(rng.randrange(12)):
        i = rng.randrange(len(out) - 1)
        out[i], out[i + 1] = out[i + 1], out[i]
    for _ in range(rng.randrange(4)):
        i = rng.randrange(len(out))
        out[i] = out[i]._replace(tag=rng.randrange(-1, 8))
    return out


def _credit_bounds(stats):
    return [
        f"credit bounds violated on {name}: min {ch['min_credits']}"
        for name, ch in sorted(stats.channels.items())
        if not 0 <= ch["min_credits"] <= ch["depth"]
    ]


_CHECKS = (
    "stream order", "conservation", "tag liveness", "lock violation",
    "exclusive safety", "credit bounds",
)


def test_one_pass_audits_match_definitions_on_poisoned_traces():
    scenarios = [
        atomic_loop_scenario("exclusive", n_masters=3, iterations=8),
        atomic_loop_scenario("lock", n_masters=3, iterations=5),
    ] + [
        random_scenario(seed, trace_level=level).with_mode(mode)
        for seed in range(3)
        for level in ("transaction", "full")
        for mode in (TransportMode.WORMHOLE, TransportMode.STORE_AND_FORWARD)
    ]
    rng = random.Random(7)
    flagged = {}
    for scenario in scenarios:
        result = run(scenario)
        events, stats = list(result.trace), result.stats
        for copy in [events] + [_poisoned(events, rng) for _ in range(8)]:
            if rng.random() < 0.3:
                stats.channels[rng.choice(sorted(stats.channels))]["min_credits"] = -1
            violations = check_invariants(Trace(copy), scenario, stats)
            assert violations == (
                stream_order_reference(copy)
                + tag_liveness_reference(copy)
                + lock_window_reference(copy)
                + exclusive_safety_reference(copy)
                + _credit_bounds(stats)
            )
            for check in _CHECKS:
                flagged[check] = flagged.get(check, 0) + len(_of(violations, check))
    assert all(flagged[check] >= 2 for check in _CHECKS), flagged
