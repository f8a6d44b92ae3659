"""NIU units: decode, tag policies, chopping, byte lanes, monitors, packing."""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracles import interleavings, run_exclusive_reference

import nocsim.niu
from nocsim.errors import OrphanResponseError, RaggedBeatError, ScenarioError
from nocsim.engine import run
from nocsim.niu import (
    FAMILY_VARIANT,
    AddressMap,
    Endianness,
    ExclusiveMonitorSet,
    InitiatorConfig,
    InitiatorNiu,
    PendingEntry,
    PendingTable,
    SocketFamily,
    TagPolicy,
    TagPolicyKind,
    TargetConfig,
    TargetNiu,
    assign_tag,
    chop_spans,
    endianness_convert,
    stream_tag,
)
from nocsim.fabric import ChannelStream, TransportMode
from nocsim.link import LinkParams, serialize
from nocsim.packet import Packet, PacketDest, PacketKind, USER_BIT_EXCLUSIVE
from nocsim.scenario import atomic_loop_scenario, load_scenario, random_scenario
from nocsim.trace import Trace, TraceEvent
from nocsim.transaction import (
    Channel,
    Opcode,
    SocketOrderKey,
    Status,
    TransactionRequest,
    validate_request,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
LOCKED_RELEASE = Opcode.STORE_LOCKED_RELEASE
TWO_REGIONS = AddressMap([(0x0000, 0x1000, 0), (0x1000, 0x1000, 1)])


# -- address decode ----------------------------------------------------------

def test_decode_basic():
    assert TWO_REGIONS.decode(0x1004) == (1, 0x004)


def test_decode_boundary_inclusive_below():
    assert TWO_REGIONS.decode(0x0FFF) == (0, 0xFFF)


def test_decode_miss_past_end():
    assert TWO_REGIONS.decode(0x2000) is None


def test_decode_miss_in_gap():
    gappy = AddressMap([(0x0000, 0x100, 0), (0x1000, 0x100, 1)])
    assert gappy.decode(0x500) is None


def test_overlapping_regions_rejected():
    with pytest.raises(ScenarioError, match="overlap"):
        AddressMap([(0x0000, 0x1001, 0), (0x1000, 0x1000, 1)])


# -- tag assignment -------------------------------------------------------------

def _pending(capacity=16) -> PendingTable:
    return PendingTable(capacity)


def _entry(seq, tag, target=0) -> PendingEntry:
    return PendingEntry(
        seq=seq,
        request=None,
        issue_cycle=0,
        target_id=target,
        tag=tag,
        frags_expected=1,
    )


def test_single_outstanding_tag_zero_then_stall():
    policy = TagPolicy(TagPolicyKind.SINGLE_OUTSTANDING)
    pending = _pending(policy.max_outstanding())  # as InitiatorNiu sizes it
    key = SocketOrderKey.single()
    assert assign_tag(policy, key, pending, 0) == 0
    pending.insert(0, _entry(0, 0))
    assert assign_tag(policy, key, pending, 0) is None


def test_per_stream_dedicated_thread_tags():
    # exhaustive: distinct threads never share a tag
    policy = TagPolicy(TagPolicyKind.PER_STREAM, streams=8)
    seen = {}
    for tid in range(8):
        tag = assign_tag(policy, SocketOrderKey.thread(tid), _pending(), 0)
        assert tag not in seen.values()
        seen[tid] = tag
    assert seen[1] == stream_tag(SocketOrderKey.thread(1)) == 1


def test_per_stream_txn_channels_get_distinct_tags():
    policy = TagPolicy(TagPolicyKind.PER_STREAM, streams=16)
    tags = {
        assign_tag(policy, SocketOrderKey.txn(t, c), _pending(), 0)
        for t in range(8)
        for c in (Channel.READ, Channel.WRITE)
    }
    assert len(tags) == 16


def test_per_stream_same_target_pipelines_else_stalls():
    policy = TagPolicy(TagPolicyKind.PER_STREAM, streams=4)
    key = SocketOrderKey.thread(2)
    pending = _pending()
    pending.insert(2, _entry(0, 2, target=7))
    # same target: the stream's tag is handed out again
    assert assign_tag(policy, key, pending, 7) == 2
    # different target: stall until the stream drains
    assert assign_tag(policy, key, pending, 8) is None


def test_pooled_lowest_free_tag():
    policy = TagPolicy(TagPolicyKind.POOLED, capacity=4)
    pending = _pending(4)
    for tag in (0, 1, 3):
        pending.insert(tag, _entry(tag, tag))
    assert assign_tag(policy, SocketOrderKey.single(), pending, 0) == 2
    pending.insert(2, _entry(2, 2))
    assert assign_tag(policy, SocketOrderKey.single(), pending, 0) is None


# -- burst chopping ---------------------------------------------------------------

def test_chop_32_bytes_max_16():
    # oracle: ceil(32/16) = 2 packets at offsets 0 and 16
    assert chop_spans(32, 4, 16) == [(0, 16), (16, 16)]


def test_chop_respects_beat_boundaries():
    # 8-byte beats, 12-byte packets: only one whole beat fits per packet
    assert chop_spans(16, 8, 12) == [(0, 8), (8, 8)]


def test_chop_zero_length():
    assert chop_spans(0, 4, 32) == [(0, 0)]


def test_chop_beat_larger_than_payload_rejected():
    with pytest.raises(ScenarioError, match="beat size"):
        chop_spans(64, 64, 32)


@settings(max_examples=200, derandomize=True)
@given(
    beats=st.integers(1, 32),
    beat_size=st.sampled_from([1, 2, 4, 8]),
    max_payload=st.sampled_from([8, 16, 32, 64]),
)
def test_chop_reassembly_covers_burst(beats, beat_size, max_payload):
    if beat_size > max_payload:
        return
    total = beats * beat_size
    spans = chop_spans(total, beat_size, max_payload)
    # contiguity and exact cover, no overlap
    cursor = 0
    for off, length in spans:
        assert off == cursor
        assert 0 < length <= max_payload
        assert length % beat_size == 0 or off + length == total
        cursor = off + length
    assert cursor == total


# -- endianness -----------------------------------------------------------------

def test_lane_reversal():
    out = endianness_convert(bytes([1, 2, 3, 4]), 4, Endianness.LITTLE, Endianness.BIG)
    assert out == bytes([4, 3, 2, 1])


def test_same_order_identity():
    data = bytes(range(8))
    assert endianness_convert(data, 4, Endianness.LITTLE, Endianness.LITTLE) == data


def test_involution():
    data = bytes(range(16))
    once = endianness_convert(data, 4, Endianness.BIG, Endianness.LITTLE)
    twice = endianness_convert(once, 4, Endianness.LITTLE, Endianness.BIG)
    assert twice == data


def test_ragged_beat_fault():
    with pytest.raises(RaggedBeatError):
        endianness_convert(bytes(7), 4, Endianness.LITTLE, Endianness.BIG)


@settings(max_examples=200, derandomize=True)
@given(
    beat=st.sampled_from([1, 2, 4, 8]),
    beats=st.integers(0, 16),
    data=st.data(),
)
def test_endianness_involution_property(beat, beats, data):
    payload = data.draw(st.binary(min_size=beat * beats, max_size=beat * beats))
    once = endianness_convert(payload, beat, Endianness.LITTLE, Endianness.BIG)
    assert endianness_convert(once, beat, Endianness.BIG, Endianness.LITTLE) == payload
    assert len(once) == len(payload)


# -- exclusive monitors -------------------------------------------------------------

def test_store_by_other_disarms():
    mon = ExclusiveMonitorSet(granule=8)
    mon.arm(0, 0x100)
    cleared = mon.observe_store(1, 0x100, 4, exclusive=False)
    assert cleared == [0]
    assert not mon.is_armed(0, 0x100)


def test_store_to_other_granule_preserves():
    mon = ExclusiveMonitorSet(granule=8)
    mon.arm(0, 0x100)
    assert mon.observe_store(1, 0x200, 4, exclusive=False) == []
    assert mon.is_armed(0, 0x100)


def test_own_plain_store_keeps_own_monitor():
    mon = ExclusiveMonitorSet(granule=8)
    mon.arm(0, 0x100)
    assert mon.observe_store(0, 0x100, 4, exclusive=False) == []
    assert mon.is_armed(0, 0x100)


def test_exclusive_win_disarms_everyone_on_granule():
    mon = ExclusiveMonitorSet(granule=8)
    mon.arm(0, 0x100)
    mon.arm(1, 0x104)  # same granule
    assert mon.is_armed(0, 0x100) and mon.is_armed(1, 0x100)
    cleared = mon.observe_store(0, 0x100, 4, exclusive=True)
    assert cleared == [0, 1]


def test_wide_store_covers_multiple_granules():
    mon = ExclusiveMonitorSet(granule=8)
    mon.arm(0, 0x100)
    mon.arm(1, 0x108)
    cleared = mon.observe_store(2, 0x100, 16, exclusive=False)
    assert cleared == [0, 1]


def test_two_master_interleavings_never_lose_updates():
    # brute-force oracle: for every interleaving of two ldex/stex pairs the
    # final counter equals the number of successful stores; with both pairs
    # interleaved there is never more than one winner per load generation
    seq_a = [(0, "ldex"), (0, "stex")]
    seq_b = [(1, "ldex"), (1, "stex")]
    outcomes = set()
    for ops in interleavings(seq_a, seq_b):
        counter, successes = run_exclusive_reference(ops)
        assert counter == successes
        outcomes.add(successes)
    assert outcomes == {1, 2}  # contention can fail one store, never both


# -- initiator ingress/egress -------------------------------------------------------

def _initiator(policy=None, max_payload=16, family=SocketFamily.FULLY_ORDERED,
               endianness=Endianness.LITTLE) -> InitiatorNiu:
    config = InitiatorConfig(
        niu_id=0,
        family=family,
        tag_policy=policy or TagPolicy(TagPolicyKind.POOLED, capacity=4),
        max_payload=max_payload,
        endianness=endianness,
    )
    return InitiatorNiu(config, TWO_REGIONS)


def _load(addr=0x100, beats=4, beat=4, **kw):
    return TransactionRequest(
        opcode=Opcode.LOAD, address=addr, burst_len=beats,
        beat_size=beat, order_key=SocketOrderKey.single(), **kw,
    )


def test_ingress_load_single_packet():
    niu = _initiator()
    entry = niu.try_accept(_load(), cycle=0)
    assert entry is not None and entry.frags_expected == 1
    assert len(niu.inject_queue) == 1
    pkt = niu.inject_queue[0]
    assert pkt.payload_len == 16 and pkt.payload == b""
    assert pkt.dest == PacketDest(0, 0x100)
    assert pkt.kind is PacketKind.REQUEST


def test_ingress_store_chops_share_tag():
    niu = _initiator(max_payload=16)
    data = bytes(range(32))
    request = TransactionRequest(
        opcode=Opcode.STORE, address=0x1000, burst_len=8,
        beat_size=4, order_key=SocketOrderKey.single(), data=data,
    )
    entry = niu.try_accept(request, cycle=0)
    assert entry.frags_expected == 2
    pkts = list(niu.inject_queue)
    assert len(pkts) == 2
    assert pkts[0].tag == pkts[1].tag == entry.tag
    assert [p.dest.offset for p in pkts] == [0x000, 0x010]
    assert pkts[0].frag_last is False and pkts[1].frag_last is True
    # byte-level reassembly oracle: chops concatenate back to the original
    assert pkts[0].payload + pkts[1].payload == data


def test_ingress_load_exclusive_sets_user_bit():
    niu = _initiator()
    request = TransactionRequest(
        opcode=Opcode.LOAD_EXCLUSIVE, address=0x108, burst_len=1,
        beat_size=4, order_key=SocketOrderKey.single(),
    )
    niu.try_accept(request, cycle=0)
    assert niu.inject_queue[0].user_bits & USER_BIT_EXCLUSIVE


def test_ingress_decode_miss_local_error():
    niu = _initiator()
    entry = niu.try_accept(_load(addr=0x2000), cycle=0)
    assert entry is not None
    assert not niu.inject_queue  # nothing enters the fabric
    emitted = niu.emit_buffer
    assert len(emitted) == 1
    _, response = emitted[0]
    assert response.status is Status.ERROR_DECODE
    assert len(response.data) == 16


def test_ingress_tag_stall():
    niu = _initiator(policy=TagPolicy(TagPolicyKind.SINGLE_OUTSTANDING))
    assert niu.try_accept(_load(), cycle=0) is not None
    assert niu.try_accept(_load(addr=0x200), cycle=1) is None  # stall, retry later


# The initiator NIU does not re-check what a built scenario checked once: each
# request is valid, on its NIU's order-key variant and, under the per-stream
# policy, on a stream with a tag; a lock release follows its READEX at the same
# address; and an exclusive or locking burst fits one packet. Seen here at the
# NIU, over every kind of program the scenarios in use build.
OFFERING = {
    **{f"corpus{seed}_{mode.name.lower()}": (lambda seed=seed, mode=mode:
                                             random_scenario(seed).with_mode(mode))
       for seed in range(10) for mode in TransportMode},
    **{f"atomic_{kind}": (lambda kind=kind: atomic_loop_scenario(kind))
       for kind in ("exclusive", "lock")},
    **{path.name: (lambda path=path: load_scenario(path))
       for path in sorted(SCENARIO_DIR.glob("*.yaml"))},
}


@pytest.mark.parametrize("name", sorted(OFFERING))
def test_offered_requests_meet_the_load_time_checks(monkeypatch, name):
    accepted: dict[InitiatorNiu, list] = {}
    real = InitiatorNiu.try_accept

    def checking(niu, req, cycle):
        config = niu.config
        assert validate_request(req) == []
        assert req.order_key.variant is FAMILY_VARIANT[config.family]
        if config.tag_policy.kind is TagPolicyKind.PER_STREAM:
            assert stream_tag(req.order_key) < config.tag_policy.streams
        if req.opcode.is_exclusive or req.opcode in (Opcode.READEX, LOCKED_RELEASE):
            assert req.byte_length <= config.max_payload
        entry = real(niu, req, cycle)
        if entry is not None:
            accepted.setdefault(niu, []).append((req, entry.target_id >= 0))
        return entry

    monkeypatch.setattr(InitiatorNiu, "try_accept", checking)
    run(OFFERING[name]())
    assert accepted
    for issued in accepted.values():
        held = None  # the address of the READEX whose lock is held
        for req, decoded in issued:
            if req.opcode is Opcode.READEX:
                assert held is None
                if decoded:  # a decode miss takes no lock
                    held = req.address
            elif req.opcode is LOCKED_RELEASE:
                assert held == req.address
                held = None


# The initiator NIU reads whether it is idle from its pending table and its
# emit buffer alone, and its pooled tag search has no way to fail: a request
# packet still to be sent, or a response the release gate holds, exists only
# while a pending entry does, and a pool with room in its table has a free
# tag. Seen here over the same scenarios.
@pytest.mark.parametrize("name", sorted(OFFERING))
def test_pending_table_decides_idle_and_pooled_tags(monkeypatch, name):
    idle_calls = []
    real_idle, real_assign = InitiatorNiu.idle, nocsim.niu.assign_tag

    def idle(niu):
        five = (niu.pending.count == 0 and not niu.inject_queue and niu.flits is None
                and not niu.emit_buffer and not niu.gate._done)
        assert real_idle(niu) == five == (niu.pending.count == 0 and not niu.emit_buffer)
        idle_calls.append(niu)
        return five

    def assign_tag(policy, key, pending, target_id):
        tag = real_assign(policy, key, pending, target_id)
        if policy.kind is TagPolicyKind.POOLED and pending.count < pending.capacity:
            assert tag is not None and tag not in pending.entries
        return tag

    monkeypatch.setattr(InitiatorNiu, "idle", idle)
    monkeypatch.setattr(nocsim.niu, "assign_tag", assign_tag)
    result = run(OFFERING[name]())
    assert idle_calls or result.timed_out  # a master still working asks no NIU


def _response_packet(niu, entry, frag_index=0, frag_last=True, status=Status.OKAY,
                     payload=b""):
    return Packet(
        dest=PacketDest(niu.niu_id, 0), src=niu.niu_id, tag=entry.tag,
        kind=PacketKind.RESPONSE, op=status, payload=payload,
        payload_len=len(payload), frag_index=frag_index, frag_last=frag_last,
    )


def test_egress_single_fragment_completes_and_frees():
    niu = _initiator()
    entry = niu.try_accept(_load(beats=1), cycle=0)
    done = niu.egress_unpack(_response_packet(niu, entry, payload=bytes(4)))
    assert done is not None
    _, response = done
    assert response.status is Status.OKAY and len(response.data) == 4
    assert niu.pending.count == 0  # tag freed


def test_egress_partial_fragments_incomplete():
    niu = _initiator(max_payload=16)
    data = bytes(range(32))
    request = TransactionRequest(
        opcode=Opcode.STORE, address=0x000, burst_len=8,
        beat_size=4, order_key=SocketOrderKey.single(), data=data,
    )
    entry = niu.try_accept(request, cycle=0)
    assert niu.egress_unpack(_response_packet(niu, entry, 0, False)) is None
    assert niu.pending.count == 1  # still live
    done = niu.egress_unpack(_response_packet(niu, entry, 1, True))
    assert done is not None
    assert niu.pending.count == 0


def test_egress_orphan_response_faults():
    niu = _initiator()
    fake = PendingEntry(0, _load(), 0, 0, tag=9, frags_expected=1)
    with pytest.raises(OrphanResponseError, match="orphan"):
        niu.egress_unpack(_response_packet(niu, fake))


def test_egress_chopped_load_reassembles_in_order():
    niu = _initiator(max_payload=16)
    entry = niu.try_accept(_load(addr=0x000, beats=8, beat=4), cycle=0)
    assert entry.frags_expected == 2
    first = bytes(range(16))
    second = bytes(range(16, 32))
    assert niu.egress_unpack(_response_packet(niu, entry, 0, False, payload=first)) is None
    _, response = niu.egress_unpack(_response_packet(niu, entry, 1, True, payload=second))
    assert response.data == first + second


def test_egress_big_endian_socket_sees_converted_data():
    niu = _initiator(endianness=Endianness.BIG)
    entry = niu.try_accept(_load(beats=1), cycle=0)
    _, response = niu.egress_unpack(
        _response_packet(niu, entry, payload=bytes([1, 2, 3, 4]))
    )
    assert response.data == bytes([4, 3, 2, 1])



@pytest.mark.parametrize("beats", [1, 3, 4, 5, 8, 9])
def test_ingress_packets_follow_chop_spans(beats):
    # a burst that fits one packet takes a shortcut past chop_spans; either
    # way the packets are the spans chop_spans gives
    niu = _initiator(max_payload=16)
    data = bytes(range(beats * 4))
    request = TransactionRequest(
        opcode=Opcode.STORE, address=0x100, burst_len=beats,
        beat_size=4, order_key=SocketOrderKey.single(), data=data,
    )
    entry = niu.try_accept(request, cycle=0)
    spans = chop_spans(beats * 4, 4, 16)
    assert entry.frags_expected == len(spans)
    assert [(p.dest.offset - 0x100, p.payload_len, p.frag_index, p.frag_last, p.payload)
            for p in niu.inject_queue] == [
        (off, n, i, i == len(spans) - 1, data[off : off + n]) for i, (off, n) in enumerate(spans)
    ]


def test_inject_sends_the_serialized_flits_in_order():
    niu = _initiator(max_payload=16)
    niu.tx = ChannelStream("req", LinkParams(4), 64)
    data = bytes(range(32))
    niu.try_accept(TransactionRequest(
        opcode=Opcode.STORE, address=0x100, burst_len=8, beat_size=4,
        order_key=SocketOrderKey.single(), data=data,
    ), cycle=0)
    first, second = niu.inject_queue
    returned = [niu.step_inject(cycle) for cycle in range(12)]
    sent = [flit for _, flit in niu.tx.in_flight]
    assert sent == serialize(first, niu.tx.params) + serialize(second, niu.tx.params)
    # the packet is returned when its head goes out, and only then
    assert [i for i, pkt in enumerate(returned) if pkt is not None] == [0, 5]
    assert returned[0] is first and returned[5] is second
    assert niu.flits is None and not niu.inject_queue


def _chopped_load(n_frags):
    """An initiator with one load pending that comes back in n_frags fragments."""
    niu = _initiator(max_payload=16)
    entry = niu.try_accept(_load(beats=4 * n_frags), cycle=0)
    assert entry.frags_expected == n_frags
    return niu, entry


STATUS_RUNS = [
    (Status.OKAY,), (Status.EXFAIL,), (Status.ERROR_SLAVE,),
    (Status.OKAY, Status.OKAY), (Status.OKAY, Status.ERROR_SLAVE),
    (Status.ERROR_SLAVE, Status.OKAY), (Status.ERROR_DECODE, Status.ERROR_SLAVE),
    (Status.OKAY, Status.OKAY, Status.EXFAIL), (Status.OKAY, Status.ERROR_SLAVE, Status.EXFAIL),
]


@pytest.mark.parametrize("statuses", STATUS_RUNS)
@pytest.mark.parametrize("reverse", [False, True])
def test_egress_status_is_first_non_okay_fragment_on_both_paths(statuses, reverse):
    # one fragment takes the single-fragment path, several are filed by index;
    # both give the first non-OKAY status by index and the payloads in order
    niu, entry = _chopped_load(len(statuses))
    payloads = [bytes([i]) * 16 for i in range(len(statuses))]
    order = list(range(len(statuses)))[::-1 if reverse else 1]
    results = [
        niu.egress_unpack(_response_packet(
            niu, entry, i, i == len(statuses) - 1, statuses[i], payloads[i]
        ))
        for i in order
    ]
    assert results[:-1] == [None] * (len(statuses) - 1)
    done_entry, response = results[-1]
    assert done_entry is entry and niu.pending.count == 0
    assert response.status is next((s for s in statuses if s is not Status.OKAY), Status.OKAY)
    assert response.data == b"".join(payloads)


def _orphan_message(niu, packet):
    with pytest.raises(OrphanResponseError) as caught:
        niu.egress_unpack(packet)
    return str(caught.value)


@pytest.mark.parametrize("n_frags", [1, 2])
def test_egress_orphan_and_duplicate_messages_on_both_paths(n_frags):
    niu, entry = _chopped_load(n_frags)
    # a tag with no live entry
    stray = _response_packet(niu, entry, payload=bytes(16))
    stray.tag = 3
    assert _orphan_message(niu, stray) == "orphan response at NIU 0: tag 3 not live"
    # a fragment index already filed
    entry.frags[0] = (Status.OKAY, bytes(16))
    again = _response_packet(niu, entry, 0, n_frags == 1, payload=bytes(16))
    assert _orphan_message(niu, again) == f"duplicate response fragment 0 for tag {entry.tag}"
    # a response after the entry completed
    entry.frags.clear()
    for i in range(n_frags):
        done = niu.egress_unpack(_response_packet(niu, entry, i, i == n_frags - 1,
                                                  payload=bytes(16)))
    assert done is not None and niu.pending.count == 0
    late = _response_packet(niu, entry, n_frags - 1, True, payload=bytes(16))
    assert _orphan_message(niu, late) == f"orphan response at NIU 0: tag {entry.tag} not live"


# -- target handling -----------------------------------------------------------------

def _target(memory=4096, granule=8) -> TargetNiu:
    return TargetNiu(
        TargetConfig(niu_id=100, region_base=0, region_size=4096,
                     memory_size=memory, monitor_granule=granule),
        Trace(),
    )


def _request_packet(opcode, offset, payload=b"", payload_len=None, src=0, tag=0):
    user = USER_BIT_EXCLUSIVE if opcode.is_exclusive else 0
    return Packet(
        dest=PacketDest(100, offset), src=src, tag=tag, kind=PacketKind.REQUEST,
        op=opcode, user_bits=user, payload=payload,
        payload_len=len(payload) if payload_len is None else payload_len,
    )


def test_target_load_reads_memory():
    tgt = _target()
    tgt.memory[64:68] = b"\xaa\xbb\xcc\xdd"
    resp = tgt.handle_request(_request_packet(Opcode.LOAD, 64, payload_len=4))
    assert resp.op is Status.OKAY
    assert resp.payload == b"\xaa\xbb\xcc\xdd"
    assert resp.kind is PacketKind.RESPONSE
    assert (resp.src, resp.tag) == (0, 0)


def test_target_store_exclusive_armed_wins():
    tgt = _target()
    tgt.handle_request(_request_packet(Opcode.LOAD_EXCLUSIVE, 64, payload_len=4, src=1))
    resp = tgt.handle_request(
        _request_packet(Opcode.STORE_EXCLUSIVE, 64, payload=b"\x01\x00\x00\x00", src=1)
    )
    assert resp.op is Status.EXOKAY
    assert resp.user_bits & USER_BIT_EXCLUSIVE
    assert tgt.memory[64:68] == b"\x01\x00\x00\x00"


def test_target_store_exclusive_disarmed_fails_without_write():
    tgt = _target()
    resp = tgt.handle_request(
        _request_packet(Opcode.STORE_EXCLUSIVE, 64, payload=b"\x01\x00\x00\x00", src=1)
    )
    assert resp.op is Status.EXFAIL
    assert tgt.memory[64:68] == bytes(4)  # unchanged


def test_target_intervening_store_causes_exfail():
    tgt = _target()
    tgt.handle_request(_request_packet(Opcode.LOAD_EXCLUSIVE, 64, payload_len=4, src=1))
    tgt.handle_request(_request_packet(Opcode.STORE, 64, payload=b"\x09\x00\x00\x00", src=2))
    resp = tgt.handle_request(
        _request_packet(Opcode.STORE_EXCLUSIVE, 64, payload=b"\x01\x00\x00\x00", src=1)
    )
    assert resp.op is Status.EXFAIL
    assert tgt.memory[64:68] == b"\x09\x00\x00\x00"


def test_target_out_of_bounds_error_slave():
    tgt = _target(memory=128)
    resp = tgt.handle_request(_request_packet(Opcode.LOAD, 120, payload_len=16))
    assert resp.op is Status.ERROR_SLAVE
    assert resp.payload == bytes(16)  # zero filled to the requested length
    store = tgt.handle_request(_request_packet(Opcode.STORE, 126, payload=bytes(8)))
    assert store.op is Status.ERROR_SLAVE


def test_target_memory_that_cannot_be_allocated_is_a_scenario_error():
    # a checked config backs at most its region, which a small host may still
    # fail to allocate; 2**62 bytes, set past the config's own check, is more
    # than any address space holds, so the allocation fails at once without
    # touching memory
    config = TargetConfig(niu_id=100, region_base=0, region_size=4096)
    object.__setattr__(config, "memory_size", 2**62)
    with pytest.raises(ScenarioError, match="cannot allocate 4611686018427387904 bytes of "
                                            "memory for target NIU 100"):
        TargetNiu(config, Trace())


def test_target_boundary_is_the_end_of_its_memory():
    # memory backs only part of the region: the last bytes inside it work,
    # and a burst ending one byte past it is refused without growing it
    tgt = _target(memory=128)
    store = tgt.handle_request(_request_packet(Opcode.STORE, 124, payload=b"\x01\x02\x03\x04"))
    assert store.op is Status.OKAY
    load = tgt.handle_request(_request_packet(Opcode.LOAD, 120, payload_len=8))
    assert load.op is Status.OKAY and load.payload == bytes(4) + b"\x01\x02\x03\x04"
    for past in (_request_packet(Opcode.LOAD, 121, payload_len=8),
                 _request_packet(Opcode.STORE, 121, payload=bytes(8))):
        assert tgt.handle_request(past).op is Status.ERROR_SLAVE
    assert len(tgt.memory) == 128


def test_store_emits_monitor_events_only_for_armed_monitors():
    tgt = _target()
    events = tgt.trace.events
    # no monitor armed: the store clears nothing and emits nothing
    tgt.handle_request(_request_packet(Opcode.STORE, 64, payload=bytes(4), src=2), cycle=5)
    assert events == [] and tgt.monitors.monitors == {}
    assert ExclusiveMonitorSet().observe_store(0, 64, 4, exclusive=True) == []
    tgt.handle_request(_request_packet(Opcode.LOAD_EXCLUSIVE, 68, payload_len=4, src=1), cycle=6)
    assert events == [TraceEvent(6, "niu100", "MONITOR_ARMED", 1, "", 1, "LOAD_EXCLUSIVE", 64)]
    # another master's monitor armed on the granule: the store clears it
    tgt.handle_request(_request_packet(Opcode.STORE, 64, payload=bytes(4), src=2), cycle=7)
    assert events[1:] == [TraceEvent(7, "niu100", "MONITOR_CLEARED", 1, "", 2, "STORE", 64)]
    assert not tgt.monitors.is_armed(1, 64)
