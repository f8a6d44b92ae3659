"""Transaction layer: opcodes, validation, ordering classification."""

import random

import pytest

from nocsim.niu import SocketFamily
from nocsim.transaction import (
    Channel,
    Opcode,
    OrderVariant,
    SocketOrderKey,
    Status,
    TransactionRequest,
    needs_response,
    validate_request,
)
from nocsim.workload import generate_random_steps


def test_needs_response():
    assert needs_response(Opcode.STORE_POSTED) is False
    assert needs_response(Opcode.LOAD) is True
    assert needs_response(Opcode.STORE_EXCLUSIVE) is True
    # the posted write is the only fire-and-forget opcode
    assert [op for op in Opcode if not needs_response(op)] == [Opcode.STORE_POSTED]


# opcode: (is_store, is_load, is_exclusive, label)
OPCODE_FACTS = {
    Opcode.LOAD: (False, True, False, "LOAD"),
    Opcode.STORE: (True, False, False, "STORE"),
    Opcode.STORE_POSTED: (True, False, False, "STORE_POSTED"),
    Opcode.READEX: (False, True, False, "READEX"),
    Opcode.STORE_LOCKED_RELEASE: (True, False, False, "STORE_LOCKED_RELEASE"),
    Opcode.LOAD_EXCLUSIVE: (False, True, True, "LOAD_EXCLUSIVE"),
    Opcode.STORE_EXCLUSIVE: (True, False, True, "STORE_EXCLUSIVE"),
}


def test_opcode_facts_are_pinned():
    assert set(OPCODE_FACTS) == set(Opcode)
    for op, facts in OPCODE_FACTS.items():
        assert (op.is_store, op.is_load, op.is_exclusive, op.label) == facts, op


def test_status_labels_are_pinned():
    assert [status.label for status in Status] == [
        "OKAY", "EXOKAY", "EXFAIL", "ERROR_DECODE", "ERROR_SLAVE"
    ]


def _req(**kw):
    base = dict(
        master_id=0,
        opcode=Opcode.LOAD,
        address=0x100,
        burst_len=4,
        beat_size=4,
        order_key=SocketOrderKey.single(),
        data=b"",
    )
    base.update(kw)
    return TransactionRequest(**base)


class TestValidateRequest:
    def test_clean_load(self):
        assert validate_request(_req()) == []

    def test_store_data_length_mismatch(self):
        bad = _req(opcode=Opcode.STORE, burst_len=2, beat_size=4, data=bytes(7))
        assert any("data length mismatch" in v for v in validate_request(bad))

    def test_misaligned_address(self):
        bad = _req(address=0x102, beat_size=8)
        assert any("aligned" in v for v in validate_request(bad))

    def test_load_with_data(self):
        bad = _req(data=b"\x01")
        assert any("no data" in v for v in validate_request(bad))

    def test_non_pow2_beat(self):
        bad = _req(beat_size=3, address=0x99)
        assert any("power of two" in v for v in validate_request(bad))

    def test_address_out_of_space(self):
        bad = _req(address=1 << 33)
        assert any("address space" in v for v in validate_request(bad))


class TestOrderClass:
    """Two transactions keep issue order exactly when their keys' streams are
    equal; the release gate keys on ``stream``."""

    def test_single_same_stream(self):
        assert SocketOrderKey.single().stream == SocketOrderKey.single().stream

    def test_threads_independent(self):
        assert SocketOrderKey.thread(0).stream != SocketOrderKey.thread(1).stream

    def test_txn_channels_independent(self):
        a = SocketOrderKey.txn(3, Channel.READ)
        b = SocketOrderKey.txn(3, Channel.WRITE)
        assert a.stream != b.stream

    def test_same_txn_same_channel(self):
        a = SocketOrderKey.txn(5, Channel.WRITE)
        b = SocketOrderKey.txn(5, Channel.WRITE)
        assert a.stream == b.stream


def _key_grid():
    """Keys over variants x thread ids x txn ids x channels, built directly
    (each a key of its own) and through the shared constructors."""
    ids = (0, 1, 2, 10, 21)
    keys = [
        SocketOrderKey(variant, thread_id, txn_id, channel)
        for variant in OrderVariant
        for thread_id in ids
        for txn_id in ids
        for channel in Channel
    ]
    keys.append(SocketOrderKey.single())
    keys += [SocketOrderKey.thread(t) for t in ids]
    keys += [SocketOrderKey.txn(t, channel) for t in ids for channel in Channel]
    return keys


# the fields that name a stream within each variant; the others are ignored
STREAM_FIELDS = {
    OrderVariant.SINGLE: (),
    OrderVariant.THREAD: ("thread_id",),
    OrderVariant.TXN_ID: ("txn_id", "channel"),
}


def test_stream_text_differs_exactly_when_stream_fields_do():
    keys = _key_grid()
    for a in keys:
        for b in keys:
            differ = a.variant is not b.variant or any(
                getattr(a, name) != getattr(b, name) for name in STREAM_FIELDS[a.variant]
            )
            assert (a.stream != b.stream) is differ, (a, b)


def test_stream_text_is_the_trace_form():
    assert SocketOrderKey(OrderVariant.SINGLE, 3, 4, Channel.WRITE).stream == "single"
    assert SocketOrderKey.thread(7).stream == "thread:7"
    assert SocketOrderKey.txn(5, Channel.WRITE).stream == "txnid:5:WRITE"
    assert SocketOrderKey(OrderVariant.TXN_ID, txn_id=2).stream == "txnid:2:READ"


def test_constructors_share_one_key_per_stream():
    assert SocketOrderKey.single() is SocketOrderKey.single()
    assert SocketOrderKey.thread(3) is SocketOrderKey.thread(3)
    assert SocketOrderKey.txn(1, Channel.READ) is SocketOrderKey.txn(1, Channel.READ)
    assert SocketOrderKey.txn(1, Channel.READ) is not SocketOrderKey.txn(1, Channel.WRITE)
    # a key built directly is its own object, equal to the shared one
    direct = SocketOrderKey(OrderVariant.THREAD, thread_id=3)
    assert direct is not SocketOrderKey.thread(3)
    assert direct == SocketOrderKey.thread(3)
    assert hash(direct) == hash(SocketOrderKey.thread(3))


@pytest.mark.parametrize("family", list(SocketFamily))
def test_random_steps_share_one_key_per_stream(family):
    steps = generate_random_steps(
        master_id=0, family=family, rng=random.Random(7), transactions=200,
        op_mix={Opcode.LOAD: 1.0, Opcode.STORE: 1.0, Opcode.STORE_POSTED: 1.0},
        address_ranges=[(0, 4096)], burst_lens=[1, 2, 4], beat_sizes=[4],
        threads=3, txn_ids=4,
    )
    objects: dict[str, set[int]] = {}
    for request, _ in steps:
        objects.setdefault(request.order_key.stream, set()).add(id(request.order_key))
    assert len(objects) > 1 or family is SocketFamily.FULLY_ORDERED
    assert all(len(ids) == 1 for ids in objects.values())
