"""Field order of the records that hot paths build positionally.

The NIUs build ``Packet`` positionally and ``PacketDest`` with
``tuple.__new__``; the switch builds ``Candidate`` the same way, as
``generate_random_steps`` builds each ``TransactionRequest``; the loop
masters build theirs positionally, and the trace recorder stores each event
as a plain tuple in ``TraceEvent``'s field order. Nothing
checks the order of positional values at run time, and two fields of one
type (``priority`` and ``user_bits``, ``frag_index`` and ``payload_len``,
``burst_len`` and ``beat_size``) can trade places silently. Each test
here compares what a hot path built with the same record built by keyword,
field by field and type by type (``True == 1``, so equality alone would
miss a bool trading places with an int).
"""

import random
from dataclasses import fields

import pytest
from oracles import reference_random_steps

import nocsim.fabric
from nocsim.fabric import ChannelStream, Candidate, RoutingTable, Switch, TransportMode
from nocsim.link import LinkParams, serialize
from nocsim.niu import (
    AddressMap,
    Endianness,
    InitiatorConfig,
    InitiatorNiu,
    PendingEntry,
    SocketFamily,
    TagPolicy,
    TagPolicyKind,
    TargetConfig,
    TargetNiu,
)
from nocsim.packet import LockMarker, Packet, PacketDest, PacketKind, USER_BIT_EXCLUSIVE
from nocsim.trace import TRACE_LEVELS, Trace, TraceEvent
from nocsim.transaction import (
    Channel, Opcode, OrderVariant, SocketOrderKey, Status, TransactionRequest,
    TransactionResponse,
)
from nocsim.workload import ExclusiveLoopMaster, LockLoopMaster, generate_random_steps

INITIATOR, TARGET, REGION_BASE, THREAD = 3, 7, 0x1000, 2
PRIORITY = 5


def _typed(record):
    """(name, type, value) of every compared field, in declaration order."""
    if isinstance(record, tuple):  # a NamedTuple
        return [(name, type(v), v) for name, v in zip(record._fields, record)]
    out = []
    for f in fields(record):
        if f.compare:
            v = getattr(record, f.name)
            out.append((f.name, type(v), _typed(v) if f.name == "dest" else v))
    return out


def _assert_same(built, expected):
    assert type(built) is type(expected)
    assert _typed(built) == _typed(expected)
    assert built == expected


# -- request packets: InitiatorNiu.try_accept -------------------------------------

def _initiator():
    cfg = InitiatorConfig(
        niu_id=INITIATOR, family=SocketFamily.THREADED,
        tag_policy=TagPolicy(TagPolicyKind.PER_STREAM, streams=4),
        max_payload=8, endianness=Endianness.BIG, priority=PRIORITY,
    )
    return InitiatorNiu(cfg, AddressMap([(REGION_BASE, 0x1000, TARGET)]))


def _request(opcode, offset, beats, data=b""):
    return TransactionRequest(
        opcode=opcode, address=REGION_BASE + offset, burst_len=beats,
        beat_size=4, order_key=SocketOrderKey.thread(THREAD), data=data,
    )


def _swap_lanes(data):
    """Big-endian socket bytes in fabric (little-endian) order, 4-byte beats."""
    return b"".join(data[i : i + 4][::-1] for i in range(0, len(data), 4))


STORE_DATA = bytes(range(1, 25))  # 24 bytes: three 8-byte fragments
REQUEST_CASES = {
    # name: [(request, user_bits, lock marker, payload per fragment)]
    "chopped_store": [(
        _request(Opcode.STORE, 0x40, 6, STORE_DATA), 0, LockMarker.NONE,
        [_swap_lanes(STORE_DATA)[i : i + 8] for i in (0, 8, 16)],
    )],
    "chopped_load": [(_request(Opcode.LOAD, 0x40, 4), 0, LockMarker.NONE, [b"", b""])],
    "exclusive": [
        (_request(Opcode.LOAD_EXCLUSIVE, 0x48, 1), USER_BIT_EXCLUSIVE, LockMarker.NONE, [b""]),
        (_request(Opcode.STORE_EXCLUSIVE, 0x48, 1, b"\x01\x02\x03\x04"), USER_BIT_EXCLUSIVE,
         LockMarker.NONE, [b"\x04\x03\x02\x01"]),
    ],
    "readex_then_locked_release": [
        (_request(Opcode.READEX, 0x50, 1), 0, LockMarker.LOCK_ACQUIRE, [b""]),
        (_request(Opcode.STORE_LOCKED_RELEASE, 0x50, 2, bytes(range(9, 17))), 0,
         LockMarker.LOCK_RELEASE, [_swap_lanes(bytes(range(9, 17)))]),
    ],
}


@pytest.mark.parametrize("case", sorted(REQUEST_CASES))
def test_ingress_packets_equal_keyword_built(case):
    niu = _initiator()
    for req, user_bits, marker, payloads in REQUEST_CASES[case]:
        entry = niu.try_accept(req, cycle=0)
        assert entry is not None and entry.tag == THREAD
        span = 4 * req.burst_len // len(payloads)
        expected = [
            Packet(
                dest=PacketDest(target_id=TARGET, offset=req.address - REGION_BASE + i * span),
                src=INITIATOR, tag=THREAD, kind=PacketKind.REQUEST, op=req.opcode,
                priority=PRIORITY, user_bits=user_bits, lock_marker=marker, payload=payload,
                payload_len=span, frag_index=i, frag_last=i == len(payloads) - 1,
            )
            for i, payload in enumerate(payloads)
        ]
        built = list(niu.inject_queue)
        niu.inject_queue.clear()
        assert len(built) == len(expected)
        for pkt, want in zip(built, expected):
            _assert_same(pkt, want)


# -- response packets: TargetNiu.handle_request --------------------------------------

def _request_packet(opcode, offset, payload=b"", payload_len=4):
    return Packet(
        dest=PacketDest(target_id=TARGET, offset=offset), src=INITIATOR, tag=THREAD,
        kind=PacketKind.REQUEST, op=opcode, priority=PRIORITY,
        user_bits=USER_BIT_EXCLUSIVE if opcode.is_exclusive else 0, payload=payload,
        payload_len=payload_len, frag_index=1, frag_last=False,
    )


def _target():
    tgt = TargetNiu(TargetConfig(niu_id=TARGET, region_base=REGION_BASE, region_size=0x100),
                    Trace())
    tgt.memory[0x20:0x24] = b"\xaa\xbb\xcc\xdd"
    return tgt


RESPONSE_CASES = {
    # name: (request packet, status, user_bits, response payload)
    "load": (_request_packet(Opcode.LOAD, 0x20), Status.OKAY, 0, b"\xaa\xbb\xcc\xdd"),
    "store": (_request_packet(Opcode.STORE, 0x20, b"\x01\x02\x03\x04"), Status.OKAY, 0, b""),
    "exfail": (_request_packet(Opcode.STORE_EXCLUSIVE, 0x20, b"\x01\x02\x03\x04"),
               Status.EXFAIL, USER_BIT_EXCLUSIVE, b""),
    "error_slave_load": (_request_packet(Opcode.LOAD, 0xFE), Status.ERROR_SLAVE, 0, bytes(4)),
    "error_slave_store": (_request_packet(Opcode.STORE, 0xFE, b"\x01\x02\x03\x04"),
                          Status.ERROR_SLAVE, 0, b""),
}


@pytest.mark.parametrize("case", sorted(RESPONSE_CASES))
def test_response_packets_equal_keyword_built(case):
    pkt, status, user_bits, payload = RESPONSE_CASES[case]
    expected = Packet(
        dest=PacketDest(target_id=INITIATOR, offset=0), src=INITIATOR, tag=THREAD,
        kind=PacketKind.RESPONSE, op=status, priority=PRIORITY, user_bits=user_bits,
        lock_marker=LockMarker.NONE, payload=payload, payload_len=len(payload),
        frag_index=1, frag_last=False,
    )
    _assert_same(_target().handle_request(pkt, cycle=9), expected)


# -- trace events: Trace.event and packet_marker -------------------------------------

@pytest.mark.parametrize("level", sorted(TRACE_LEVELS))
def test_trace_events_equal_keyword_built(level):
    rec = Trace(level=level)
    rec.event(11, "niu3", "REQ_ISSUED", master=3, key="thread:2", tag=2, op="LOAD",
              address=0x40)
    rec.event(12, "niu4", "STALL")
    rec.event(13, "niu5", "STALL", address=0x48, op="STORE", tag=6, key="single", master=4)
    rec.packet_marker(14, "sw1p2", "PKT_DELIVERED", _request_packet(Opcode.STORE, 0x20))
    expected = [
        TraceEvent(cycle=11, site="niu3", kind="REQ_ISSUED", master=3, key="thread:2",
                   tag=2, op="LOAD", address=0x40),
        TraceEvent(cycle=12, site="niu4", kind="STALL", master=-1, key="", tag=-1, op="",
                   address=-1),
        TraceEvent(cycle=13, site="niu5", kind="STALL", master=4, key="single", tag=6,
                   op="STORE", address=0x48),
        TraceEvent(cycle=14, site="sw1p2", kind="PKT_DELIVERED", master=INITIATOR, key="",
                   tag=THREAD, op="STORE", address=0x20),
    ]
    assert TraceEvent._fields == (
        "cycle", "site", "kind", "master", "key", "tag", "op", "address"
    )
    assert len(rec.events) == len(expected)
    for ev, want in zip(rec.events, expected):
        assert type(ev) is tuple  # an exact tuple, which the collector untracks
        _assert_same(TraceEvent._make(ev), want)
    assert list(rec) == expected and all(type(ev) is TraceEvent for ev in rec)
    assert rec.to_csv().splitlines()[1:] == [
        "11,niu3,REQ_ISSUED,3,thread:2,2,LOAD,64",
        "12,niu4,STALL,,,,,",
        "13,niu5,STALL,4,single,6,STORE,72",
        "14,sw1p2,PKT_DELIVERED,3,,2,STORE,32",
    ]


# -- arbitration candidates: Switch._try_grant -----------------------------------------

@pytest.mark.parametrize("mode", list(TransportMode))
def test_grant_candidates_equal_keyword_built(monkeypatch, mode):
    seen = []
    real = nocsim.fabric.arbitrate

    def recording(candidates, state):
        seen.append(list(candidates))
        return real(candidates, state)

    monkeypatch.setattr(nocsim.fabric, "arbitrate", recording)
    sw = Switch(0, 4, RoutingTable({0: {TARGET: 3}}), PacketKind.REQUEST, mode, Trace())
    sw.attach_output(3, ChannelStream("out", LinkParams(), 16))
    heads = {0: (6, 9), 1: (1, 11), 2: (4, 13)}  # input port: (priority, src)
    for port, (priority, src) in heads.items():
        ch = ChannelStream(f"in{port}", LinkParams(), 16)
        sw.attach_input(port, ch)
        pkt = Packet(dest=PacketDest(TARGET, 0), src=src, tag=0, kind=PacketKind.REQUEST,
                     op=Opcode.LOAD, priority=priority, payload_len=4)
        for i, flit in enumerate(serialize(pkt, ch.params)):
            ch.send(i, flit)
    cycle = 0
    while not seen:
        assert cycle < 50
        sw.step(cycle)
        cycle += 1
    expected = [
        Candidate(input_port=port, priority=priority, src=src)
        for port, (priority, src) in heads.items()
    ]
    assert len(seen[0]) == len(expected)
    for cand, want in zip(seen[0], expected):
        _assert_same(cand, want)
    assert sw.out_by_port[3].grants_by_input == {0: 1}  # priority 6 wins


# -- expanded random programs: generate_random_steps ------------------------------------

def _order_key(stream):
    """The keyword-built key of a reference stream tuple (see tests/oracles.py)."""
    if stream[0] == "thread":
        return SocketOrderKey(variant=OrderVariant.THREAD, thread_id=stream[1])
    if stream[0] == "txn":
        return SocketOrderKey(variant=OrderVariant.TXN_ID, txn_id=stream[1],
                              channel=Channel[stream[2]])
    return SocketOrderKey(variant=OrderVariant.SINGLE)


@pytest.mark.parametrize("family", list(SocketFamily), ids=lambda f: f.name)
def test_expanded_requests_equal_keyword_built(family):
    program = dict(
        transactions=200, op_mix={Opcode.LOAD: 1.0, Opcode.STORE: 1.0, Opcode.STORE_POSTED: 0.5},
        address_ranges=[(0x40, 256), (0x1000, 96)], burst_lens=[1, 2, 4], beat_sizes=[1, 2, 8],
        threads=3, txn_ids=5,
    )
    built = generate_random_steps(family, random.Random(5), **program)
    drawn = reference_random_steps(family.name, random.Random(5), **program)
    assert len(built) == len(drawn) == 200
    for (request, wait), (op, address, burst, beat, stream, data, _) in zip(built, drawn):
        expected = TransactionRequest(
            opcode=Opcode[op], address=address, burst_len=burst,
            beat_size=beat, order_key=_order_key(stream), data=data,
        )
        _assert_same(request, expected)
        assert wait is False


# -- loop requests: _AtomicLoopMaster._request ---------------------------------------------

@pytest.mark.parametrize("master_cls", [ExclusiveLoopMaster, LockLoopMaster])
def test_loop_requests_equal_keyword_built(master_cls):
    master = master_cls(0x40, 1)
    load, _ = master.offer()
    master.accepted()
    master.deliver(PendingEntry(0, load, 0, TARGET, 0, 1), TransactionResponse(
        Status.OKAY, (41).to_bytes(4, "little")))
    store, _ = master.offer()
    for built, opcode, data in ((load, master.load_op, b""),
                                (store, master.store_op, (42).to_bytes(4, "little"))):
        _assert_same(built, TransactionRequest(
            opcode=opcode, address=0x40, burst_len=1, beat_size=4,
            order_key=SocketOrderKey.single(), data=data,
        ))
