"""Transport layer units: routing tables, arbitration, credit flow."""

import random
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from oracles import bfs_distances

from nocsim.errors import CreditError, ScenarioError
from nocsim.fabric import (
    ArbiterState,
    AttachmentSpec,
    Candidate,
    LinkSpec,
    RoutingTable,
    SwitchSpec,
    Topology,
    arbitrate,
    build_routing,
    route,
    validate_routing,
)
from nocsim.link import LinkParams


# -- routing -----------------------------------------------------------------

def _ring4() -> Topology:
    # ports: 0 = to previous, 1 = to next, 2 = attachment
    return Topology(
        switches=[SwitchSpec(i, 3) for i in range(4)],
        links=[LinkSpec(i, 1, (i + 1) % 4, 0) for i in range(4)],
        attachments=[AttachmentSpec(100 + i, i, 2) for i in range(4)],
    )


def test_route_is_a_table_lookup():
    table = RoutingTable({0: {100: 1, 101: 2}})
    assert route(table, 0, 101) == 2
    assert route(table, 0, 100) == 1


def test_route_depends_only_on_destination():
    # the lookup signature admits no opcode, payload, tag, or user bits; the
    # mutation suite in test_acceptance drives this over generated packets
    table = RoutingTable({0: {100: 1}})
    results = {route(table, 0, 100) for _ in range(5)}
    assert results == {1}


def test_route_lookup_miss_refused():
    table = RoutingTable({0: {100: 1}})
    for switch_id, target_id in ((0, 101), (1, 100)):
        with pytest.raises(ScenarioError) as err:
            route(table, switch_id, target_id)
        assert str(err.value) == (
            f"unroutable packet: switch {switch_id} has no route to NIU {target_id}"
        )


def test_ring_auto_routes_follow_bfs_distance():
    topo = _ring4()
    table = build_routing(topo)
    adjacency = {sw: [o for o, _, _ in adjacent] for sw, adjacent in topo.adjacency().items()}
    port_to_neighbor = {}
    for ln in topo.links:
        port_to_neighbor[(ln.a_switch, ln.a_port)] = ln.b_switch
        port_to_neighbor[(ln.b_switch, ln.b_port)] = ln.a_switch
    for at in topo.attachments:
        dist = bfs_distances(adjacency, at.switch_id)
        for sw in topo.switch_ids():
            port = table.lookup(sw, at.niu_id)
            if sw == at.switch_id:
                assert port == at.port
            else:
                nxt = port_to_neighbor[(sw, port)]
                assert dist[nxt] == dist[sw] - 1, (
                    f"route at sw{sw} toward NIU {at.niu_id} not along shortest path"
                )


def test_explicit_routing_loop_rejected():
    topo = _ring4()
    table = build_routing(topo).ports
    table[0][102] = 1  # sw0 -> sw1
    table[1][102] = 1  # sw1 -> sw2
    table[2][102] = 0  # sw2 -> sw1: bounces forever
    with pytest.raises(ScenarioError, match="loop"):
        validate_routing(topo, RoutingTable(table))


def test_missing_route_rejected():
    topo = _ring4()
    table = build_routing(topo).ports
    del table[2][100]
    with pytest.raises(ScenarioError, match="unroutable"):
        validate_routing(topo, RoutingTable(table))


def test_route_to_wrong_niu_rejected():
    topo = _ring4()
    table = build_routing(topo).ports
    table[1][100] = 2  # sw1's own attachment port, but that NIU is 101
    with pytest.raises(ScenarioError, match="ends at NIU"):
        validate_routing(topo, RoutingTable(table))


def test_kept_table_is_derived_again_after_an_edit_in_place():
    # a topology is immutable, so its table is derived once, when it is built;
    # a switch cannot be added in place, and a topology built with it is
    # checked before it routes, and refused
    topo = _ring4()
    assert topo.table.ports == build_routing(topo).ports
    with pytest.raises(AttributeError):
        topo.switches.append(SwitchSpec(4, 1))
    with pytest.raises(ScenarioError, match=r"unreachable switches \[4\]"):
        replace(topo, switches=(*topo.switches, SwitchSpec(4, 1)))  # nothing links to it


def test_disconnected_topology_rejected():
    with pytest.raises(ScenarioError, match="not connected"):
        Topology(
            switches=[SwitchSpec(0, 2), SwitchSpec(1, 2)],
            links=[],
            attachments=[AttachmentSpec(100, 0, 0), AttachmentSpec(101, 1, 0)],
        )


def test_empty_topology_rejected():
    with pytest.raises(ScenarioError) as err:
        Topology([], [], [])
    assert str(err.value) == "topology has no switches"


def test_port_double_use_rejected():
    with pytest.raises(ScenarioError, match="used twice"):
        Topology(
            switches=[SwitchSpec(0, 2), SwitchSpec(1, 2)],
            links=[LinkSpec(0, 0, 1, 0)],
            attachments=[AttachmentSpec(100, 0, 0)],
        )


# -- arbitration ---------------------------------------------------------------

def test_highest_priority_wins():
    state = ArbiterState(nports=3)
    winner = arbitrate([Candidate(0, 2, 10), Candidate(1, 5, 11)], state)
    assert winner == 1


def test_round_robin_tiebreak_from_cursor():
    state = ArbiterState(nports=3, cursor=1)
    winner = arbitrate(
        [Candidate(0, 0, 10), Candidate(1, 0, 11), Candidate(2, 0, 12)], state
    )
    assert winner == 1
    assert state.cursor == 2


def test_saturated_round_robin_is_exactly_fair():
    # 3 always-ready equal-priority inputs, 300 grants: the cursor advances
    # past each winner, so the schedule is a strict rotation: 100 each
    state = ArbiterState(nports=3)
    counts = {0: 0, 1: 0, 2: 0}
    candidates = [Candidate(i, 0, i) for i in range(3)]
    for _ in range(300):
        counts[arbitrate(candidates, state)] += 1
    assert counts == {0: 100, 1: 100, 2: 100}


def test_lock_owner_filters_candidates():
    state = ArbiterState(nports=2, lock_owner=11)
    assert arbitrate([Candidate(0, 7, 10)], state) is None  # stall, not a grant
    assert arbitrate([Candidate(0, 7, 10), Candidate(1, 0, 11)], state) == 1


def test_no_candidates_after_lock_filter_keeps_cursor():
    state = ArbiterState(nports=4, cursor=2, lock_owner=99)
    assert arbitrate([Candidate(0, 1, 1)], state) is None
    assert state.cursor == 2


def test_lock_capture_and_release_transitions():
    from nocsim.fabric import lock_capture, lock_release
    from nocsim.errors import LockProtocolError as LPE

    state = ArbiterState(nports=2)
    lock_capture(state, 7)
    assert state.lock_owner == 7
    with pytest.raises(LPE):
        lock_release(state, 8)
    lock_release(state, 7)
    assert state.lock_owner is None


# -- switch streaming -----------------------------------------------------------

from nocsim.errors import FramingError, LockProtocolError
from nocsim.fabric import ChannelStream, Switch, TransportMode
from nocsim.link import deserialize, serialize
from nocsim.packet import LockMarker, Packet, PacketDest, PacketKind
from nocsim.trace import Trace
from nocsim.transaction import Opcode


def _mini_switch(nports=3, mode=TransportMode.WORMHOLE):
    table = RoutingTable({0: {100: 2}})
    sw = Switch(0, nports, table, PacketKind.REQUEST, mode, Trace())
    outs = ChannelStream("out", LinkParams(), 16)
    sw.attach_output(2, outs)
    ins = []
    for port in (0, 1):
        ch = ChannelStream(f"in{port}", LinkParams(), 16)
        sw.attach_input(port, ch)
        ins.append(ch)
    return sw, ins, outs


def _packet(src, payload=b"", marker=LockMarker.NONE, op=Opcode.STORE):
    return Packet(
        dest=PacketDest(100, 0), src=src, tag=0, kind=PacketKind.REQUEST,
        op=op, lock_marker=marker, payload=payload, payload_len=len(payload),
    )


def test_lock_release_with_mismatched_owner_faults():
    sw, (cin, _), _ = _mini_switch()
    release = _packet(5, bytes(4), LockMarker.LOCK_RELEASE, Opcode.STORE_LOCKED_RELEASE)
    for i, flit in enumerate(serialize(release, cin.params)):
        cin.send(i, flit)
    with pytest.raises(LockProtocolError, match="lock protocol violation"):
        for cycle in range(10):
            sw.step(cycle)


def test_wormhole_grants_never_interleave_packets():
    sw, (in_a, in_b), outs = _mini_switch()
    for i, flit in enumerate(serialize(_packet(1, bytes(12)), in_a.params)):
        in_a.send(i, flit)
    for i, flit in enumerate(serialize(_packet(2, bytes(12)), in_b.params)):
        in_b.send(i, flit)
    for cycle in range(40):
        sw.step(cycle)
    # drain the output link into a sink; its framing guard faults on any
    # interleaving, and two whole packets must come out
    outs.deliver(10_000)
    first = outs.pop_complete_packet()
    second = outs.pop_complete_packet()
    assert first is not None and second is not None
    assert {first.src, second.src} == {1, 2}  # both sources arrived whole


@pytest.mark.parametrize("mode", list(TransportMode))
@pytest.mark.parametrize("owner", [None, 5, 6])
def test_lone_head_grant_matches_arbitrate(monkeypatch, mode, owner):
    # A port with a single ready head grants it without building candidates;
    # winner, cursor and lock stall must be what arbitrate gives for it.
    import nocsim.fabric

    def no_arbitration(candidates, state):
        raise AssertionError("arbitrate called for a lone head")

    monkeypatch.setattr(nocsim.fabric, "arbitrate", no_arbitration)
    nports = 4
    for in_port in range(3):
        for cursor in range(nports):
            table = RoutingTable({0: {100: 3}})
            sw = Switch(0, nports, table, PacketKind.REQUEST, mode, Trace())
            sw.attach_output(3, ChannelStream("out", LinkParams(), 16))
            ins = [ChannelStream(f"in{p}", LinkParams(), 16) for p in range(3)]
            for p, ch in enumerate(ins):
                sw.attach_input(p, ch)
            out = sw.out_by_port[3]
            out.arbiter.cursor = cursor
            out.arbiter.lock_owner = owner
            pkt = _packet(5, bytes(12))
            flits = serialize(pkt, ins[in_port].params)
            for i, flit in enumerate(flits):
                ins[in_port].send(i, flit)
            ref = ArbiterState(nports, cursor, owner)
            expected = arbitrate([Candidate(in_port, pkt.priority, pkt.src)], ref)
            cycle = 0
            while not (out.grants_by_input or out.lock_stall_cycles):  # the first scan
                assert cycle < 50
                sw.step(cycle)
                cycle += 1
            if expected is None:
                assert out.lock_stall_cycles == 1 and out.active_pkt is None
                assert out.grants_by_input == {} and ins[in_port].waiting == 3
            else:
                assert out.lock_stall_cycles == 0 and out.active_ch is ins[in_port]
                assert out.grants_by_input == {in_port: 1} and ins[in_port].waiting is None
            assert (out.arbiter.cursor, out.arbiter.lock_owner) == (ref.cursor, ref.lock_owner)


def test_interleaved_foreign_flit_faults():
    ch = ChannelStream("x", LinkParams(), 16)
    head, body, tail = serialize(_packet(1, bytes(8)), ch.params)
    ch.send(0, head)
    ch.send(1, body)
    foreign_head, _, _ = serialize(_packet(2, bytes(8)), ch.params)
    ch.send(2, foreign_head)
    with pytest.raises(FramingError) as err:
        ch.deliver(100)
    assert str(err.value) == "framing violation on x: head flit interrupts a packet"


@pytest.mark.parametrize("lead", [[], ["head", "tail"]])
def test_stray_continuation_flit_faults(lead):
    # a body flit with no open packet to continue, on an empty buffer or
    # right after a whole packet
    ch = ChannelStream("x", LinkParams(), 16)
    head, body, tail = serialize(_packet(1, bytes(8)), ch.params)
    flits = {"head": head, "tail": tail}
    for i, name in enumerate(lead):
        ch.send(i, flits[name])
    ch.send(len(lead), body)
    with pytest.raises(FramingError) as err:
        ch.deliver(100)
    assert str(err.value) == "framing violation on x: stray continuation flit"


# -- credit flow ------------------------------------------------------------------
# A send takes a credit; a flit holds it in flight and in the receive buffer,
# and gives it back when its bytes have been forwarded or its packet consumed.

CONSUME_AT_ZERO = "credit accounting: consume at zero"
BEYOND_DEPTH = "credit accounting: return beyond buffer depth"


def _lone_flit():
    return serialize(_packet(1, op=Opcode.LOAD), LinkParams())[0]  # a lone HEAD_TAIL


def _conserved(ch):
    return ch.credits + len(ch.in_flight) + len(ch.rx) == ch.depth


def test_credit_counter_basics():
    ch = ChannelStream("x", LinkParams(), 2)
    assert ch.can_send(0)
    ch.send(0, _lone_flit())
    ch.send(1, _lone_flit())
    assert not ch.can_send(2) and ch.min_seen == 0
    ch.deliver(10)
    assert ch.credits == 0 and len(ch.rx) == 2  # buffered flits hold theirs
    assert ch.pop_complete_packet() is not None
    assert ch.can_send(2) and ch.credits == 1 and _conserved(ch)


def test_credit_faults_on_misuse():
    ch = ChannelStream("x", LinkParams(), 1)
    ch.send(0, _lone_flit())
    with pytest.raises(CreditError) as err:
        ch.send(1, _lone_flit())
    assert str(err.value) == CONSUME_AT_ZERO
    ch.deliver(10)
    ch.credits = 1  # an accounting bug: the buffered flit's credit is back early
    with pytest.raises(CreditError) as err:
        ch.pop_complete_packet()
    assert str(err.value) == BEYOND_DEPTH


@pytest.mark.parametrize("mode", list(TransportMode))
def test_switch_forward_returning_credit_beyond_depth_faults(mode):
    sw, (cin, _), _ = _mini_switch(mode=mode)
    for i, flit in enumerate(serialize(_packet(1, bytes(8)), cin.params)):
        cin.send(i, flit)
    sw.step(10)  # all three flits buffered; the head is forwarded
    assert len(cin.rx) == 2 and _conserved(cin)
    cin.credits = cin.depth  # an accounting bug, as above
    with pytest.raises(CreditError) as err:
        sw.step(11)
    assert str(err.value) == BEYOND_DEPTH


def _check_against_model(depth, ops):
    # a model counter alongside the channel over a send/consume mix; one
    # delivery and one consumed packet give back one credit
    ch = ChannelStream("x", LinkParams(), depth)
    model = depth
    for cycle, send in enumerate(ops):
        if send and model > 0:
            ch.send(cycle, _lone_flit())
            model -= 1
        elif not send and model < depth:
            ch.deliver(cycle + ch.delay)
            assert ch.pop_complete_packet() is not None
            model += 1
        assert ch.can_send(cycle + 1) == (model > 0)
        assert 0 <= ch.credits == model <= depth
        assert _conserved(ch)
    assert ch.min_seen >= 0


def test_credit_random_schedule_stays_in_bounds():
    rng = random.Random(7)
    for depth in (1, 2, 5, 16):
        _check_against_model(depth, [rng.random() < 0.5 for _ in range(10_000)])


@settings(max_examples=100, derandomize=True)
@given(
    depth=st.integers(1, 8),
    ops=st.lists(st.booleans(), max_size=200),
)
def test_credit_property_model(depth, ops):
    _check_against_model(depth, ops)


def test_a_fresh_channel_costs_a_few_hundred_bytes():
    # an engine builds one channel per link direction and plane, and a batch
    # of engines lives at once, so a channel's empty buffer must stay small
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        channels = [ChannelStream("c", LinkParams(), 16) for _ in range(1000)]
        per_channel = (tracemalloc.get_traced_memory()[0] - before) / len(channels)
    finally:
        tracemalloc.stop()
    assert per_channel < 400


# -- re-slicing -------------------------------------------------------------------

from nocsim.niu import TargetConfig, TargetNiu


@pytest.mark.parametrize("mode", list(TransportMode))
@pytest.mark.parametrize("in_width,out_width", [(4, 8), (8, 4), (3, 5), (16, 1), (5, 5)])
@pytest.mark.parametrize("size", [0, 1, 7, 20, 32])
def test_switch_reslices_for_the_output_link(mode, in_width, out_width, size):
    # a store crosses one switch from a link of one width onto a link of
    # another; the output carries exactly the framing serialize would give
    # the packet for that link, and the target NIU stores the bytes sent
    in_params, out_params = LinkParams(in_width), LinkParams(out_width)
    sw = Switch(0, 2, RoutingTable({0: {100: 1}}), PacketKind.REQUEST, mode, Trace())
    cin = ChannelStream("in", in_params, 64)
    out = ChannelStream("out", out_params, 64)
    sw.attach_input(0, cin)
    sw.attach_output(1, out)
    tgt = TargetNiu(TargetConfig(100, 0, 64), Trace())
    tgt.rx = out
    tgt.tx = ChannelStream("rsp", out_params, 64)
    payload = bytes(range(1, size + 1))
    op = Opcode.STORE if size else Opcode.LOAD
    pkt = Packet(dest=PacketDest(100, 8), src=1, tag=0, kind=PacketKind.REQUEST,
                 op=op, payload=payload, payload_len=size or 4)
    for i, flit in enumerate(serialize(pkt, in_params)):
        cin.send(i, flit)
    for cycle in range(60):
        sw.step(cycle)
    sent = [flit for _, flit in out.in_flight]
    assert [(f.is_head, f.is_tail, f.start, f.end) for f in sent] == [
        (f.is_head, f.is_tail, f.start, f.end) for f in serialize(pkt, out_params)
    ]
    assert deserialize(sent) == pkt
    assert cin.credits == cin.depth  # every inbound flit released
    handled = tgt.step(10_000)
    assert handled == [pkt]
    assert bytes(tgt.memory[8 : 8 + size]) == payload
