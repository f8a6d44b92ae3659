"""End-to-end engine behavior on small scripted scenarios."""

import copy
import gc
import sys
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import pytest

from helpers import line_scenario, mixed_widths, per_stream, pooled, req
from oracles import pipeline_times, round_trip_emission_cycle

import nocsim
from nocsim.engine import Engine, run, scripted_steps_for
from nocsim.fabric import ChannelStream, Switch, TransportMode
from nocsim.link import LinkParams
from nocsim.niu import InitiatorNiu, PendingEntry, SocketFamily, TargetNiu
from nocsim.oracle import sequential_oracle
from nocsim.packet import PacketKind
from nocsim.scenario import atomic_loop_scenario, load_scenario, random_scenario
from nocsim.trace import (
    LOCK_CLEARED,
    LOCK_SET,
    MONITOR_ARMED,
    MONITOR_CLEARED,
    PKT_DELIVERED,
    PKT_INJECTED,
    REQ_ISSUED,
    RESP_EMITTED,
    TRACE_LEVELS,
    Trace,
    TraceEvent,
    check_invariants,
    compare_projections,
    projection_text,
    transaction_projection,
)
from nocsim.transaction import Opcode, SocketOrderKey, Status, TransactionResponse
from nocsim.workload import ExclusiveLoopMaster, LockLoopMaster


def test_empty_workload_is_vacuous():
    scenario = line_scenario(programs=[[]])
    result = run(scenario)
    assert result.stats.cycles == 0
    assert len(result.trace) == 0
    assert not result.timed_out


def test_single_load_timing_matches_pipeline_oracle():
    # one load over a two-switch path, both transport modes; the oracle is an
    # independent pipeline recurrence over the three channels of the path
    params = LinkParams(flit_payload_width=4, latency=2, rate_ratio=1)
    hops = [(2, 1)] * 3  # niu->sw0, sw0->sw1, sw1->target
    load = req(0, Opcode.LOAD, 0x40, beats=4, beat_size=4)
    req_flits = 1  # loads carry no payload
    resp_flits = 1 + 4  # header plus 16 payload bytes at width 4
    for mode, saf in (
        (TransportMode.WORMHOLE, False),
        (TransportMode.STORE_AND_FORWARD, True),
    ):
        scenario = line_scenario(
            programs=[[(load, True)]], n_switches=2, mode=mode, params=params
        )
        result = run(scenario)
        emitted = [e for e in result.trace if e.kind == RESP_EMITTED]
        assert len(emitted) == 1
        expected = round_trip_emission_cycle(req_flits, resp_flits, hops, saf)
        assert emitted[0].cycle == expected


def test_wormhole_head_exits_earlier_than_store_and_forward():
    # 4-flit packet over a 2-hop path through one switch: the hand-computed
    # pipeline oracle says store-and-forward delivers (flits - 1) = 3 cycles
    # later, independent of link latency
    params = LinkParams(flit_payload_width=4, latency=1, rate_ratio=1)
    store = req(0, Opcode.STORE, 0x40, beats=3, beat_size=4)
    delivered = {}
    for mode, saf in (
        (TransportMode.WORMHOLE, False),
        (TransportMode.STORE_AND_FORWARD, True),
    ):
        scenario = line_scenario(
            programs=[[(store, True)]], n_switches=1, mode=mode, params=params
        )
        result = run(scenario)
        at_target = [
            e for e in result.trace if e.kind == PKT_DELIVERED and e.site == "niu100"
        ]
        _, arrive = pipeline_times(4, [(1, 1), (1, 1)], saf)
        assert at_target[0].cycle == arrive[-1][3]
        delivered[mode] = at_target[0].cycle
    diff = delivered[TransportMode.STORE_AND_FORWARD] - delivered[TransportMode.WORMHOLE]
    assert diff == 3
    assert delivered[TransportMode.WORMHOLE] == 7
    assert delivered[TransportMode.STORE_AND_FORWARD] == 10


def test_rate_ratio_throttles_but_preserves_content():
    store = req(0, Opcode.STORE, 0x40, beats=4, beat_size=4)
    fast = run(line_scenario(programs=[[(store, True)]], params=LinkParams(4, 1, 1)))
    slow = run(line_scenario(programs=[[(store, True)]], params=LinkParams(4, 1, 3)))
    assert slow.stats.cycles > fast.stats.cycles
    assert fast.memories == slow.memories


def test_determinism_identical_trace_bytes():
    scenario = random_scenario(11, n_masters=3, n_switches=3, total_transactions=120)
    a = run(copy.deepcopy(scenario))
    b = run(copy.deepcopy(scenario))
    assert a.trace.to_csv() == b.trace.to_csv()
    assert a.stats.to_text() == b.stats.to_text()
    c = run(scenario.with_seed(12))
    assert c.trace.to_csv() != a.trace.to_csv()


def test_posted_write_invisible_at_socket_but_lands():
    steps = [
        (req(0, Opcode.STORE_POSTED, 0x40, beats=1, data=b"\xca\xfe\xba\xbe"), False),
        (req(0, Opcode.LOAD, 0x40, beats=1), True),
    ]
    result = run(line_scenario(programs=[steps]))
    assert not result.timed_out
    emitted = [e for e in result.trace if e.kind == RESP_EMITTED]
    assert len(emitted) == 1  # only the load responds at the socket
    assert emitted[0].op == "OKAY"
    assert result.memories[100][0x40:0x44] == b"\xca\xfe\xba\xbe"
    assert check_invariants(result.trace) == []


def test_decode_miss_yields_local_error_without_packets():
    scenario = line_scenario(programs=[[(req(0, Opcode.LOAD, 0x8000), True)]])
    result = run(scenario)
    emitted = [e for e in result.trace if e.kind == RESP_EMITTED]
    assert [e.op for e in emitted] == ["ERROR_DECODE"]
    assert not [e for e in result.trace if e.kind == PKT_INJECTED]
    assert not result.timed_out


def test_slave_error_for_out_of_bounds_offset():
    scenario = line_scenario(
        programs=[[(req(0, Opcode.LOAD, 0x800, beats=4), True)]],
        memory_size=128,  # region is 4096 but the device only backs 128 bytes
    )
    result = run(scenario)
    emitted = [e for e in result.trace if e.kind == RESP_EMITTED]
    assert [e.op for e in emitted] == ["ERROR_SLAVE"]


def test_scripted_memory_matches_sequential_oracle():
    steps = [
        (req(0, Opcode.STORE, 0x10, beats=2, data=b"\x01\x02\x03\x04\x05\x06\x07\x08"), False),
        (req(0, Opcode.STORE, 0x10, beats=1, data=b"\xff\xee\xdd\xcc"), False),
        (req(0, Opcode.STORE_POSTED, 0x20, beats=1, data=b"\x11\x22\x33\x44"), False),
        (req(0, Opcode.LOAD, 0x10, beats=2), True),
    ]
    scenario = line_scenario(programs=[steps])
    result = run(scenario)
    assert result.memories == sequential_oracle(scenario)
    # last writer wins on the overlap
    assert result.memories[100][0x10:0x14] == b"\xff\xee\xdd\xcc"


def test_stores_that_reach_no_memory_match_sequential_oracle():
    # a store that decodes nowhere gets a local error response, and one past
    # the target's memory an ERROR_SLAVE: neither writes, in the engine or in
    # the oracle
    steps = [
        (req(0, Opcode.STORE, 0x10), False),
        (req(0, Opcode.STORE, 0x2000), False),  # past the 4096-byte region
        (req(0, Opcode.STORE, 0x80), True),  # inside the region, past the memory
    ]
    scenario = line_scenario(programs=[steps], memory_size=64)
    result = run(scenario)
    assert [e.op for e in result.trace if e.kind == RESP_EMITTED] == [
        "OKAY", "ERROR_DECODE", "ERROR_SLAVE",
    ]
    assert result.memories == sequential_oracle(scenario)
    assert result.memories[100] == bytes(0x10) + b"\x01\x02\x03\x04" + bytes(44)


def test_script_master_woken_while_it_waits_keeps_waiting():
    # the response to step 0 wakes the master while it waits for step 1's,
    # and it offers step 2 only once that response is back
    steps = [
        (req(0, Opcode.LOAD, 0x40), False),
        (req(0, Opcode.LOAD, 0x44), True),
        (req(0, Opcode.LOAD, 0x48), False),
    ]
    result = run(line_scenario(programs=[steps], policies=[pooled(2)]))
    assert [(e.kind, e.address) for e in result.trace if e.kind in (REQ_ISSUED, RESP_EMITTED)] == [
        (REQ_ISSUED, 0x40), (REQ_ISSUED, 0x44), (RESP_EMITTED, 0x40),
        (RESP_EMITTED, 0x44), (REQ_ISSUED, 0x48), (RESP_EMITTED, 0x48),
    ]


def _script_master_mid_program():
    # single outstanding: step 1 is refused while step 0 is in flight
    steps = [(req(0, Opcode.LOAD, 0x40 + 4 * i), False) for i in range(3)]
    engine = Engine(line_scenario(programs=[steps], max_cycles=3))
    engine.run()
    return engine.masters[0]


def _loop_master_mid_iteration(master_cls):
    master = master_cls(0x40, 2)
    load, _ = master.offer()
    master.deliver(PendingEntry(0, load, 0, 100, 0, 1), TransactionResponse(
        Status.OKAY, (7).to_bytes(4, "little")))
    return master


@pytest.mark.parametrize("build", [
    _script_master_mid_program,
    lambda: _loop_master_mid_iteration(ExclusiveLoopMaster),
    lambda: _loop_master_mid_iteration(LockLoopMaster),
], ids=["script", "exclusive_loop", "lock_loop"])
def test_offer_is_a_pure_peek(build):
    # phase 1 and the stuck report both ask for the offer without taking it
    master = build()
    done = master.done()
    first = master.offer()
    assert first is not None and not done
    assert master.offer() == first
    assert master.done() == done


def test_stuck_report_of_a_waiting_master_lists_only_its_pending_entry():
    steps = [(req(0, Opcode.LOAD, 0x40), True), (req(0, Opcode.LOAD, 0x44), False)]
    result = run(line_scenario(programs=[steps], max_cycles=3))
    assert result.timed_out
    assert result.stuck == ["master 0 tag 0 LOAD@0x40 issued at cycle 0"]


def test_stuck_report_of_a_tag_stall_names_the_blocked_offer():
    steps = [(req(0, Opcode.LOAD, 0x40), False), (req(0, Opcode.LOAD, 0x44), False)]
    result = run(line_scenario(programs=[steps], max_cycles=3))
    assert result.timed_out
    assert result.stuck == [
        "master 0 tag 0 LOAD@0x40 issued at cycle 0",
        "master 0 blocked issuing LOAD@0x44",
    ]


def test_random_disjoint_masters_match_oracle():
    scenario = random_scenario(23, n_masters=4, total_transactions=160)
    result = run(scenario)
    assert not result.timed_out
    assert result.memories == sequential_oracle(scenario)


def test_projection_single_load_shape():
    scenario = line_scenario(programs=[[(req(0, Opcode.LOAD, 0x40), True)]])
    result = run(scenario)
    projection = transaction_projection(result.trace)
    assert projection == {
        0: {"single": [("single", "LOAD", 0x40, "OKAY")]}
    }
    text = projection_text(projection)
    assert text == "0,single,0,LOAD,64,OKAY\n"


def test_projection_comparator_reports_first_divergence():
    a = {0: {"single": [("single", "LOAD", 64, "OKAY")]}}
    b = {0: {"single": [("single", "LOAD", 64, "ERROR_SLAVE")]}}
    message = compare_projections(a, b)
    assert message is not None and "row 0" in message
    assert compare_projections(a, a) is None


@pytest.mark.parametrize("longer", ["a", "b"])
def test_projection_comparator_reports_a_side_with_more_rows(longer):
    short = {0: {"single": [("single", "LOAD", 64, "OKAY")]}}
    long = {0: {"single": [("single", "LOAD", 64, "OKAY"), ("single", "STORE", 68, "OKAY")]}}
    a, b = (long, short) if longer == "a" else (short, long)
    assert compare_projections(a, b) == (
        "projections diverge at row 1: only one side has '0,single,1,STORE,68,OKAY'"
    )


def test_check_invariants_clean_run():
    scenario = random_scenario(31, n_masters=3, total_transactions=90, trace_level="full")
    result = run(scenario)
    assert check_invariants(result.trace, scenario, result.stats) == []


def _swap_same_stream_responses(trace):
    events = list(trace)
    idxs = [
        i for i, e in enumerate(events)
        if e.kind == RESP_EMITTED and e.master == 0 and e.key == "single"
    ]
    assert len(idxs) >= 2
    i, j = idxs[0], idxs[1]
    a, b = events[i], events[j]
    events[i] = TraceEvent(a.cycle, a.site, a.kind, a.master, a.key, b.tag, b.op, b.address)
    events[j] = TraceEvent(b.cycle, b.site, b.kind, b.master, b.key, a.tag, a.op, a.address)
    trace.events = events
    return trace


def test_check_invariants_detects_swapped_stream_responses():
    steps = [
        (req(0, Opcode.LOAD, 0x10, beats=1), False),
        (req(0, Opcode.LOAD, 0x20, beats=2), False),
    ]
    result = run(line_scenario(programs=[steps]))
    violations = check_invariants(_swap_same_stream_responses(result.trace))
    assert any("stream order violation" in v for v in violations)


def test_check_invariants_detects_conservation_break():
    result = run(line_scenario(programs=[[(req(0, Opcode.LOAD, 0x10), True)]]))
    orphan = TraceEvent(99, "niu0", RESP_EMITTED, 0, "thread:7", 3, "OKAY", 0x10)
    result.trace.events.append(orphan)
    violations = check_invariants(result.trace)
    assert any("response without request" in v for v in violations)
    # and a request that never got its response
    result2 = run(line_scenario(programs=[[(req(0, Opcode.LOAD, 0x10), True)]]))
    result2.trace.events = [e for e in result2.trace if e.kind != RESP_EMITTED]
    violations2 = check_invariants(result2.trace)
    assert any("without response" in v for v in violations2)


def test_stats_text_shape():
    result = run(line_scenario(programs=[[(req(0, Opcode.LOAD, 0x40), True)]]))
    text = result.stats.to_text()
    assert "cycles = " in text
    assert "master.0.latency_mean = " in text
    assert "workload_rng = python-random-mt19937" in text
    assert any(line.startswith("link.") for line in text.splitlines())


def test_trace_csv_header_and_shape():
    result = run(line_scenario(programs=[[(req(0, Opcode.LOAD, 0x40), True)]]))
    lines = result.trace.to_csv().splitlines()
    assert lines[0] == "cycle,site,kind,master,order_key,tag,op,address"
    issue = [l for l in lines if ",REQ_ISSUED," in l]
    assert issue and issue[0].split(",")[1] == "niu0"


def test_trace_export_streams_in_bounded_chunks():
    trace = run(atomic_loop_scenario("exclusive", n_masters=4, iterations=200)).trace
    csv = trace.to_csv()
    assert len(csv) > 1_500_000  # 1.63 MB in 33,424 events
    tracemalloc.start()
    try:
        for _ in trace.csv_chunks():
            pass
        streamed = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        again = trace.to_csv()
        joined = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again == csv
    assert streamed < 1_000_000
    assert joined < 2.5 * len(csv)
    assert Trace().to_csv() == "cycle,site,kind,master,order_key,tag,op,address\n"


def test_trace_cycles_non_decreasing():
    scenario = random_scenario(3, n_masters=3, total_transactions=60, trace_level="full")
    result = run(scenario)
    cycles = [e.cycle for e in result.trace]
    assert cycles == sorted(cycles)


def test_per_stream_multi_target_stall_preserves_order():
    # thread 0 first goes to the far target, then the same thread to the same
    # target again (pipelines on one tag), responses in issue order
    steps = [
        (req(0, Opcode.LOAD, 0x40, key=SocketOrderKey.thread(0)), False),
        (req(0, Opcode.LOAD, 0x80, key=SocketOrderKey.thread(0)), False),
        (req(0, Opcode.LOAD, 0xC0, key=SocketOrderKey.thread(1)), False),
    ]
    scenario = line_scenario(
        programs=[steps],
        families=[SocketFamily.THREADED],
        policies=[per_stream(4)],
    )
    result = run(scenario)
    assert not result.timed_out
    emitted = [e for e in result.trace if e.kind == RESP_EMITTED and e.key == "thread:0"]
    assert [e.address for e in emitted] == [0x40, 0x80]
    assert check_invariants(result.trace) == []


def test_engine_rejects_invalid_scenario():
    # a built scenario is checked and immutable: the bad NIU setting can only
    # come in a new NIU config, which refuses it before any scenario or
    # engine sees it
    base = line_scenario(programs=[[]])
    with pytest.raises(AttributeError):
        base.masters[0].niu.priority = 12
    with pytest.raises(nocsim.ScenarioError, match="priority 12 is not in 0..7"):
        replace(base.masters[0].niu, priority=12)


def test_posted_decode_miss_as_last_step_ends_run():
    steps = [(req(0, Opcode.STORE_POSTED, 0x8000, data=b"\x00" * 4), False)]
    result = run(line_scenario(programs=[steps]))
    assert not result.timed_out
    assert result.stats.cycles == 1


@pytest.mark.parametrize("mode", list(TransportMode))
def test_wake_ups_match_stepping_everything_every_cycle(monkeypatch, mode):
    # Runs cut off at consecutive cycles end in the cycles a switch sleeps
    # through, where its streams' credit stalls are still to be added.
    base = random_scenario(3, total_transactions=60).with_mode(mode)
    base = base.with_link_params(LinkParams(4, 3, 2))

    def outputs():
        out = []
        for max_cycles in [*range(240, 256), base.run.max_cycles]:
            result = run(base.with_run(max_cycles=max_cycles))
            out.append((result.trace.to_csv(), result.stats.to_text()))
        return out

    woken = outputs()
    # the reference steps every switch plane and NIU in every cycle, and
    # every plane's step visits each input port and, in port order, each output
    always = property(lambda self: 0, lambda self, value: None)
    for cls in (Switch, InitiatorNiu, TargetNiu):
        monkeypatch.setattr(cls, "wake_cycle", always, raising=False)
    every_input = property(
        lambda self: [ch for _, ch in self.inputs if ch.in_flight], lambda self, value: None
    )
    monkeypatch.setattr(Switch, "arrivals", every_input, raising=False)
    monkeypatch.setattr(Switch, "ready", property(lambda self: 1, lambda self, value: None),
                        raising=False)
    assert outputs() == woken


def test_each_plane_sleeps_on_its_own(monkeypatch):
    # In lock_deadlock each READEX holds the request-plane port the other
    # one waits for. From then on the lock-blocked request planes of
    # switches 0 and 2 are stepped every cycle, and no response plane is.
    steps = []
    step = Switch.step

    def counted(self, cycle, *rest):
        steps.append((cycle, self.switch_id, self.kind))
        return step(self, cycle, *rest)

    monkeypatch.setattr(Switch, "step", counted)
    scenario = load_scenario(Path(__file__).resolve().parent.parent / "scenarios"
                             / "lock_deadlock.yaml")
    result = run(scenario)
    assert result.timed_out
    last = max(ev.cycle for ev in result.trace)
    assert last == 4
    responses = [cycle for cycle, _, kind in steps if kind is PacketKind.RESPONSE]
    assert responses and max(responses) <= last
    # the heads that wait on the locks arrive at their switches by cycle 10
    after = sorted((cycle, sid) for cycle, sid, _ in steps if cycle > 10)
    assert after == [(cycle, sid) for cycle in range(11, result.stats.cycles)
                     for sid in (0, 2)]


@pytest.mark.parametrize("mode", list(TransportMode))
def test_ready_count_equals_candidates_at_every_grant_scan(monkeypatch, mode):
    # The lone-head grant relies on OutPort.ready being exactly the number
    # of heads that compete for the port whenever its grant scan runs.
    # A head competes when it is at the front of an input's flit buffer, its
    # input is not being streamed (a granted head stays there until it is
    # forwarded), and its packet is whole under store-and-forward.
    scans = []
    grant = Switch._try_grant

    def checked(self, cycle, port, out):
        saf = self.saf
        streamed = {o.active_ch for _, o in self.outputs}
        competing = [
            ch for _, ch in self.inputs
            if ch.rx and ch.rx[0].is_head and ch not in streamed and (not saf or ch.tails)
            and self.routes[ch.rx[0].packet.dest.target_id] == port
        ]
        heads = len(competing)
        assert out.ready == heads, (self.switch_id, port, cycle)
        waiting = [ch for _, ch in self.inputs if ch.waiting == port]
        assert waiting == competing, (self.switch_id, port, cycle)
        scans.append(heads)
        return grant(self, cycle, port, out)

    monkeypatch.setattr(Switch, "_try_grant", checked)
    scenarios = [random_scenario(seed, total_transactions=120) for seed in range(6)]
    slow = random_scenario(6, total_transactions=120).with_link_params(LinkParams(4, 3, 2))
    scenarios.append(slow)
    scenarios.append(atomic_loop_scenario("lock", n_masters=3, iterations=8))
    for scenario in scenarios:
        assert not run(scenario.with_mode(mode)).timed_out
    assert 1 in scans and max(scans) >= 3


@pytest.mark.parametrize("mode", list(TransportMode))
def test_every_credit_is_on_a_link_in_a_buffer_or_free(monkeypatch, mode):
    # After every component step (nothing else touches a channel) each
    # channel's credits, flits in flight and buffered flits add up to its
    # depth, and its tail count is the number of tails in its buffer.
    channels = []
    checks = [0]

    def conserved(step):
        def checked(self, *args):
            result = step(self, *args)
            for ch in channels:
                assert ch.credits + len(ch.in_flight) + len(ch.rx) == ch.depth, (
                    ch.name
                )
                assert ch.tails == sum(1 for f in ch.rx if f.is_tail), ch.name
            checks[0] += 1
            return result

        return checked

    for cls, name in ((Switch, "step"), (InitiatorNiu, "step_inject"),
                      (InitiatorNiu, "step_egress"), (TargetNiu, "step")):
        monkeypatch.setattr(cls, name, conserved(getattr(cls, name)))
    scenarios = [random_scenario(seed, total_transactions=120) for seed in range(3)]
    scenarios += [mixed_widths(random_scenario(seed, total_transactions=120), seed)
                  for seed in range(3, 6)]
    scenarios.append(atomic_loop_scenario("lock", n_masters=3, iterations=8))
    for scenario in scenarios:
        engine = Engine(scenario.with_mode(mode))
        channels[:] = engine.channels.values()
        assert not engine.run().timed_out
        assert all(not ch.rx and not ch.in_flight for ch in channels)
    assert checks[0] > 10_000


def test_no_step_reads_the_channel_views(monkeypatch):
    # rx and in_flight copy a channel's buffer for tests and inspection; a
    # run reads the buffer itself, so with the views refused it is unchanged
    scenarios = [random_scenario(seed).with_mode(mode)
                 for seed in range(6) for mode in TransportMode]
    scenarios.append(atomic_loop_scenario("lock"))

    def outputs():
        return [(result.trace.to_csv(), result.stats.to_text())
                for result in map(run, scenarios)]

    expected = outputs()

    def refused(self):
        raise AssertionError("a channel view was read")

    for name in ("rx", "in_flight"):
        monkeypatch.setattr(ChannelStream, name, property(refused))
    assert outputs() == expected


@pytest.mark.parametrize("kind", ["lock", "exclusive"])
def test_transaction_level_makes_no_packet_event_calls(kind):
    # Below packet level the engine, the switches and the target NIUs make
    # no recorder call for a packet event at all; lock and monitor events
    # are recorded at every level.
    scenario = atomic_loop_scenario(kind, n_masters=3, iterations=6)
    engine = Engine(scenario.with_trace_level("transaction"))
    rec = engine.recorder
    calls = []
    record_packet, record_event = rec.packet_marker, rec.event
    rec.packet_marker = lambda cycle, site, k, packet: (
        calls.append(k), record_packet(cycle, site, k, packet))
    rec.event = lambda cycle, site, k, **kw: (calls.append(k), record_event(cycle, site, k, **kw))
    result = engine.run()
    assert not result.timed_out
    assert not {PKT_INJECTED, PKT_DELIVERED} & set(calls)
    recorded = [ev.kind for ev in result.trace]
    assert sorted(calls) == sorted(recorded)
    if kind == "lock":
        assert recorded.count(LOCK_SET) == recorded.count(LOCK_CLEARED) > 0
    else:
        assert recorded.count(MONITOR_ARMED) > 0 and recorded.count(MONITOR_CLEARED) > 0
    full = run(scenario)
    assert [ev for ev in full.trace if ev.kind not in (PKT_INJECTED, PKT_DELIVERED)] == list(
        result.trace
    )


@pytest.fixture
def collector_off():
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


def _drop_engines(run_them: bool) -> None:
    scenarios = [random_scenario(seed) for seed in range(10)]
    scenarios += [atomic_loop_scenario(kind, n_masters=2, iterations=5)
                  for kind in ("exclusive", "lock")]
    gc.collect()
    for i, scenario in enumerate(scenarios):
        engine = Engine(scenario)
        result = engine.run() if run_them else None
        assert not (run_them and result.timed_out)
        freed = weakref.ref(engine)
        del engine, result
        assert freed() is None, i
        assert gc.collect() == 0, i


def test_a_finished_run_needs_no_collector(collector_off):
    # Nothing an engine builds refers back to it, and dropping it clears the
    # back-references it set, so dropping an engine and its result frees
    # both at once, not at the cyclic collector's next pass.
    _drop_engines(run_them=True)


def test_an_unrun_engine_needs_no_collector(collector_off):
    _drop_engines(run_them=False)


def test_a_failed_build_is_dropped_quietly(monkeypatch):
    # ``__del__`` of a half-built engine raises nothing for Python to report
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    try:
        Engine(None)
    except AttributeError:
        pass
    gc.collect()
    assert unraisable == []


def test_a_kept_engine_keeps_its_wiring():
    engine = Engine(random_scenario(1))
    engine.run()
    assert all(ch.sink is not None for ch in engine.channels.values())


@pytest.mark.parametrize("level", sorted(TRACE_LEVELS))
def test_recorded_events_are_untracked_after_one_collection(level):
    # an event is an exact tuple of atoms, which the collector untracks
    scenarios = [
        random_scenario(2, total_transactions=60, trace_level=level),
        atomic_loop_scenario("exclusive", iterations=5).with_trace_level(level),
        atomic_loop_scenario("lock", iterations=5).with_trace_level(level),
    ]
    traces = [run(sc).trace for sc in scenarios]
    gc.collect()
    for trace in traces:
        assert trace.events and not any(map(gc.is_tracked, trace.events))


def test_held_traces_leave_the_collector_no_event():
    traces = [
        run(random_scenario(seed, total_transactions=40).with_mode(mode)).trace
        for seed in range(24) for mode in TransportMode
    ]
    gc.collect()
    events = {id(ev) for trace in traces for ev in trace.events}
    assert len(events) > 1000
    assert not any(id(obj) in events for obj in gc.get_objects())


def test_a_kept_engine_does_not_keep_its_trace(collector_off):
    engine = Engine(random_scenario(1))
    result = engine.run()
    trace = weakref.ref(result.trace)
    assert len(result.trace) > 0
    del result
    assert trace() is None
    assert len(engine.recorder) == 0


def test_a_run_sweep_holds_one_trace_at_a_time(collector_off):
    scenarios = [random_scenario(seed, trace_level="full") for seed in range(20)]
    for sc in scenarios:  # expand the programs first: the expansions are kept
        for spec in sc.masters:
            scripted_steps_for(spec, sc.run.seed)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        single = sweep = 0
        for sc in scenarios:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            run(sc)
            peak = tracemalloc.get_traced_memory()[1]
            single = max(single, peak - before)
            sweep = max(sweep, peak - start)
    finally:
        tracemalloc.stop()
    assert sweep < 2 * single


def test_a_spent_engine_refuses_to_run_again():
    # a second run would start from the first one's end state
    engine = Engine(random_scenario(1))
    engine.run()
    with pytest.raises(nocsim.NocSimError,
                       match="^an Engine runs once; build a new one to run again$"):
        engine.run()
