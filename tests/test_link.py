"""Physical layer: flit framing round trips and violations."""

import pytest
from hypothesis import given, settings, strategies as st

from nocsim.errors import FramingError
from nocsim.link import LinkParams, deserialize, flit_count, serialize
from nocsim.packet import LockMarker, Packet, PacketDest, PacketKind
from nocsim.transaction import Opcode, Status


def _packet(payload=b"", payload_len=None, **kw):
    base = dict(
        dest=PacketDest(100, 0x40),
        src=3,
        tag=2,
        kind=PacketKind.REQUEST,
        op=Opcode.STORE,
        priority=1,
        user_bits=0,
        lock_marker=LockMarker.NONE,
        payload=payload,
        payload_len=len(payload) if payload_len is None else payload_len,
    )
    base.update(kw)
    return Packet(**base)


# (is_head, is_tail) of each framing position
HEAD, BODY, TAIL, HEAD_TAIL = (True, False), (False, False), (False, True), (True, True)


def _shape(flits):
    return [(f.is_head, f.is_tail) for f in flits]


def test_empty_payload_single_flit():
    flits = serialize(_packet(op=Opcode.LOAD, payload_len=16), LinkParams(8))
    assert _shape(flits) == [(True, True)]


def test_twenty_bytes_width_eight():
    flits = serialize(_packet(payload=bytes(range(20))), LinkParams(8))
    assert _shape(flits) == [HEAD, BODY, BODY, TAIL]
    assert [len(f.data) for f in flits[1:]] == [8, 8, 4]
    assert flit_count(20, 8) == 4


def test_exact_multiple_ends_with_tail():
    flits = serialize(_packet(payload=bytes(16)), LinkParams(8))
    assert _shape(flits) == [HEAD, BODY, TAIL]


def test_round_trip_simple():
    pkt = _packet(payload=bytes(range(20)))
    assert deserialize(serialize(pkt, LinkParams(8))) == pkt


def test_framing_head_after_head():
    pkt = _packet(payload=bytes(8))
    head = serialize(pkt, LinkParams(4))[0]
    with pytest.raises(FramingError):
        deserialize([head, head])


def test_framing_missing_tail():
    flits = serialize(_packet(payload=bytes(12)), LinkParams(4))
    with pytest.raises(FramingError):
        deserialize(flits[:-1])


def test_framing_extra_after_head_tail():
    single = serialize(_packet(op=Opcode.LOAD, payload=b"", payload_len=4), LinkParams(4))
    with pytest.raises(FramingError):
        deserialize(single + single)


def test_framing_body_start():
    _, body, _ = serialize(_packet(payload=bytes(8)), LinkParams(4))
    with pytest.raises(FramingError):
        deserialize([body])


def test_framing_continuation_of_another_packet_or_range():
    head, body, tail = serialize(_packet(payload=bytes(8)), LinkParams(4))
    _, _, foreign_tail = serialize(_packet(payload=bytes(8)), LinkParams(4))
    with pytest.raises(FramingError, match="does not continue"):
        deserialize([head, body, foreign_tail])
    with pytest.raises(FramingError, match="does not continue"):
        deserialize([head, tail])  # bytes 0..4 missing


def test_framing_empty():
    with pytest.raises(FramingError):
        deserialize([])


def _framing_cases():
    head, body, tail = serialize(_packet(payload=bytes(8)), LinkParams(4))
    other_head, _ = serialize(_packet(payload=bytes(4)), LinkParams(4))
    (lone,) = serialize(_packet(op=Opcode.LOAD, payload_len=4), LinkParams(4))
    _, _, foreign_tail = serialize(_packet(payload=bytes(8)), LinkParams(4))
    return {
        "empty flit sequence": [],
        "sequence starts with BODY": [body, tail],
        "sequence starts with TAIL": [tail],
        "unexpected HEAD mid-packet": [head, other_head, tail],
        "unexpected HEAD_TAIL mid-packet": [head, lone, tail],
        "sequence ends on BODY": [head, body],
        "TAIL before end of sequence": [head, body, tail, tail],
        "flits after HEAD_TAIL": [lone, lone],
        "HEAD without TAIL": [head],
        "flit does not continue the packet": [head, body, foreign_tail],
    }


@pytest.mark.parametrize("message", list(_framing_cases()))
def test_framing_messages_are_exact(message):
    with pytest.raises(FramingError) as err:
        deserialize(_framing_cases()[message])
    assert str(err.value) == f"framing violation: {message}"


packets = st.builds(
    _packet,
    payload=st.binary(min_size=0, max_size=96),
    dest=st.builds(PacketDest, st.integers(0, 300), st.integers(0, 1 << 20)),
    src=st.integers(0, 300),
    tag=st.integers(0, 15),
    kind=st.sampled_from(list(PacketKind)),
    op=st.sampled_from(list(Opcode) + list(Status)),
    priority=st.integers(0, 7),
    user_bits=st.integers(0, 3),
    lock_marker=st.sampled_from(list(LockMarker)),
    frag_index=st.integers(0, 3),
    frag_last=st.booleans(),
)


@settings(max_examples=300, derandomize=True)
@given(pkt=packets, width=st.sampled_from([1, 2, 4, 8, 16]))
def test_round_trip_property(pkt, width):
    params = LinkParams(flit_payload_width=width)
    flits = serialize(pkt, params)
    assert len(flits) == flit_count(len(pkt.payload), width)
    assert deserialize(flits) == pkt
    # framing shape: single combined flit, or head .. tail with bodies between
    if len(pkt.payload) == 0:
        assert _shape(flits) == [HEAD_TAIL]
    else:
        assert _shape(flits) == [HEAD] + [BODY] * (len(flits) - 2) + [TAIL]
