"""Response release ordering against a brute-force interleaving oracle."""

import itertools
import random

from hypothesis import given, settings, strategies as st

from oracles import emission_reference

from nocsim.niu import ReleaseGate, response_release_order
from nocsim.transaction import Channel, SocketOrderKey


def _emit(issued, completions):
    return response_release_order(issued, completions)


def test_single_stream_holds_younger():
    # A then B issued on one fully-ordered stream; B completes first
    issued = [(0, SocketOrderKey.single()), (1, SocketOrderKey.single())]
    assert _emit(issued, [1, 0]) == [0, 1]


def test_independent_threads_emit_on_completion():
    issued = [(0, SocketOrderKey.thread(0)), (1, SocketOrderKey.thread(1))]
    assert _emit(issued, [1, 0]) == [1, 0]


def test_same_txn_id_holds_younger():
    key = SocketOrderKey.txn(5, Channel.READ)
    issued = [(0, key), (1, key)]
    assert _emit(issued, [1, 0]) == [0, 1]


def test_mixed_channels_are_independent():
    issued = [
        (0, SocketOrderKey.txn(5, Channel.READ)),
        (1, SocketOrderKey.txn(5, Channel.WRITE)),
    ]
    assert _emit(issued, [1, 0]) == [1, 0]


def _exhaustive_check(issued):
    """Every completion order: compare against the reference and check the
    per-stream ordering property."""
    seqs = [seq for seq, _ in issued]
    stream_of = {seq: key.stream for seq, key in issued}
    reorder_seen = False
    for completions in itertools.permutations(seqs):
        emitted = _emit(issued, list(completions))
        reference = emission_reference(
            [(seq, key.stream) for seq, key in issued], list(completions)
        )
        assert emitted == reference
        assert sorted(emitted) == sorted(seqs)  # everything emits exactly once
        # within each stream, emission order equals issue order
        for stream in {s for s in stream_of.values()}:
            in_stream = [s for s in emitted if stream_of[s] == stream]
            issued_in_stream = [s for s, k in issued if k.stream == stream]
            assert in_stream == issued_in_stream
        if emitted != list(completions):
            pass
        if emitted != sorted(emitted, key=seqs.index):
            reorder_seen = True
    return reorder_seen


def test_exhaustive_single_stream():
    issued = [(i, SocketOrderKey.single()) for i in range(4)]
    # fully ordered: emission is always exactly issue order
    for completions in itertools.permutations(range(4)):
        assert _emit(issued, list(completions)) == [0, 1, 2, 3]


def test_exhaustive_two_threads():
    issued = [
        (0, SocketOrderKey.thread(0)),
        (1, SocketOrderKey.thread(1)),
        (2, SocketOrderKey.thread(0)),
        (3, SocketOrderKey.thread(1)),
    ]
    assert _exhaustive_check(issued)  # cross-thread reordering must occur


def test_exhaustive_txn_ids():
    issued = [
        (0, SocketOrderKey.txn(1, Channel.READ)),
        (1, SocketOrderKey.txn(1, Channel.READ)),
        (2, SocketOrderKey.txn(2, Channel.READ)),
        (3, SocketOrderKey.txn(1, Channel.WRITE)),
    ]
    assert _exhaustive_check(issued)


def test_gate_incremental_matches_batch():
    rng = random.Random(5)
    keys = [SocketOrderKey.thread(rng.randrange(3)) for _ in range(12)]
    issued = list(enumerate(keys))
    completions = list(range(12))
    rng.shuffle(completions)
    gate = ReleaseGate()
    for seq, key in issued:
        gate.register(seq, key)
    incremental = []
    for seq in completions:
        incremental.extend(s for s, _ in gate.complete(seq, keys[seq], None))
    assert incremental == _emit(issued, completions)


@settings(max_examples=300, derandomize=True)
@given(data=st.data())
def test_release_order_property(data):
    n = data.draw(st.integers(1, 8))
    family = data.draw(st.sampled_from(["single", "thread", "txn"]))
    keys = []
    for _ in range(n):
        if family == "single":
            keys.append(SocketOrderKey.single())
        elif family == "thread":
            keys.append(SocketOrderKey.thread(data.draw(st.integers(0, 2))))
        else:
            keys.append(
                SocketOrderKey.txn(
                    data.draw(st.integers(0, 2)),
                    data.draw(st.sampled_from(list(Channel))),
                )
            )
    issued = list(enumerate(keys))
    completions = data.draw(st.permutations(range(n)))
    emitted = _emit(issued, list(completions))
    assert sorted(emitted) == list(range(n))
    for stream in {k.stream for k in keys}:
        issued_in_stream = [s for s, k in issued if k.stream == stream]
        emitted_in_stream = [s for s in emitted if keys[s].stream == stream]
        assert issued_in_stream == emitted_in_stream
