"""Master workload models.

A master holds its program and nothing else. Every kind has four methods:
``offer()`` peeks at the next (request, wait_for_response) step, or None
once the program is exhausted, and changes nothing; ``accepted()`` says the
NIU took that step; ``deliver(entry, response)`` hands over a response that
reached the socket; ``done()`` says the program is exhausted. The offer may
change only after ``accepted`` or ``deliver``.

The engine offers the steps strictly in program order, one attempt per
cycle; a tag stall simply means the same step is offered again later. It
keeps the scheduling facts itself (``engine._MasterSlot``): which response
a master waits for, during which it is offered nothing, and whether its
stall was traced. Loop masters react to response data, which is how the
retry semantics of exclusive accesses and the read-modify-write of locked
sequences are exercised.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate
from typing import Optional

from .niu import PendingEntry, SocketFamily
from .transaction import (
    Channel,
    Opcode,
    SocketOrderKey,
    Status,
    TransactionRequest,
    TransactionResponse,
)

COUNTER_BYTES = 4  # atomic loop counters are 4-byte little-endian words


class ScriptedMaster:
    """Plays back a fixed list of (request, wait) steps, checked before it is built."""

    def __init__(self, steps: list[tuple[TransactionRequest, bool]]):
        self.steps = steps
        self.index = 0

    def offer(self) -> Optional[tuple[TransactionRequest, bool]]:
        """The next step, or None once every step was accepted."""
        if self.index < len(self.steps):
            return self.steps[self.index]
        return None

    def accepted(self) -> None:
        self.index += 1

    def deliver(self, entry: PendingEntry, response: TransactionResponse) -> None:
        pass

    def done(self) -> bool:
        return self.index >= len(self.steps)


def generate_random_steps(
    master_id: int,
    family: SocketFamily,
    rng: random.Random,
    transactions: int,
    op_mix,  # (opcode, weight) pairs, or a mapping
    address_ranges: tuple[tuple[int, int], ...],
    burst_lens: tuple[int, ...],
    beat_sizes: tuple[int, ...],
    threads: int = 2,
    txn_ids: int = 4,
    max_bytes: int = 64,
) -> list[tuple[TransactionRequest, bool]]:
    """Deterministically expand a random-program spec into scripted steps.

    Facts fixed per program are worked out once, outside the per-step draws.
    The spec must come from a built ``Scenario``, which refuses every
    program that could draw an invalid step.

    Draws call only ``rng.random()`` and ``rng.getrandbits()``, as
    ``choices``, ``choice``, ``randrange`` and ``randbytes`` do in CPython
    3.11, with the same arguments and in the same order: the opcode bisects
    ``random() * total`` into the cumulative weights, a pick below n is
    ``_randbelow``'s loop inline (``getrandbits(n.bit_length())`` until below
    n, so n = 1 draws too), store data is ``getrandbits(8 * n)`` little
    endian. So the steps are the ones those wrappers drew, without a Python
    frame per draw; each request is built with ``tuple.__new__``, in field
    order, without its generated ``__new__`` (tests/test_field_order.py pins
    the fields).
    """
    op_mix = dict(op_mix)
    opcodes = sorted(op_mix, key=lambda o: o.name)
    cum_weights = list(accumulate(op_mix[o] for o in opcodes))
    total, last = cum_weights[-1] + 0.0, len(opcodes) - 1
    random, getrandbits, new = rng.random, rng.getrandbits, tuple.__new__

    # per beat size: the beat, and the bursts that fit it under max_bytes; if
    # none does, one beat, picked by getrandbits(0), which draws nothing
    beats = []
    for beat in beat_sizes:
        bursts = [b for b in burst_lens if b * beat <= max_bytes]
        beats.append((beat, bursts or [1], len(bursts) or 1, len(bursts).bit_length()))
    n_beats, k_beats = len(beats), len(beats).bit_length()
    n_ranges, k_ranges = len(address_ranges), len(address_ranges).bit_length()
    # Stream keys come from the shared constructors, one object per stream,
    # and are kept by stream index as first drawn: threads and txn_ids have
    # no upper bound under pooled tags, so no list of every stream is built.
    threaded = family is SocketFamily.THREADED
    streams = 0 if family is SocketFamily.FULLY_ORDERED else threads if threaded else txn_ids
    k_streams = streams.bit_length()
    read_keys: dict[int, SocketOrderKey] = {}
    write_keys = read_keys if threaded else {}
    single, load = SocketOrderKey.single(), Opcode.LOAD

    steps = []
    for _ in range(transactions):
        opcode = opcodes[bisect_right(cum_weights, random() * total, 0, last)]
        while (r := getrandbits(k_beats)) >= n_beats:
            pass
        beat, bursts, n, k = beats[r]
        while (r := getrandbits(k)) >= n:
            pass
        burst = bursts[r]
        nbytes = burst * beat
        while (r := getrandbits(k_ranges)) >= n_ranges:
            pass
        base, size = address_ranges[r]
        slots = (size - nbytes) // beat + 1
        k = slots.bit_length()
        while (r := getrandbits(k)) >= slots:
            pass
        address, key = base + r * beat, single
        if streams:
            while (i := getrandbits(k_streams)) >= streams:
                pass
            keys = read_keys if opcode is load else write_keys
            key = keys.get(i)
            if key is None:
                key = keys[i] = SocketOrderKey.thread(i) if threaded else SocketOrderKey.txn(
                    i, Channel.READ if opcode is load else Channel.WRITE)
        data = getrandbits(8 * nbytes).to_bytes(nbytes, "little") if opcode.is_store else b""
        request = new(TransactionRequest, (master_id, opcode, address, burst, beat, key, data))
        steps.append((request, False))
    return steps


class _AtomicLoopMaster:
    """Shared machinery for the two read-modify-write loop flavors.

    An iteration loads the counter with ``load_op`` and stores it plus one
    with ``store_op``. The store completes it if its status is ``store_ok``
    (any status when that is None), and else the iteration starts again.
    Every request waits for its response.
    """

    load_op: Opcode
    store_op: Opcode
    store_ok: Optional[Status]

    def __init__(self, master_id: int, counter_address: int, iterations: int):
        self.master_id = master_id
        self.counter_address = counter_address
        self.iterations = iterations
        self.completed_iterations = 0
        self.loaded_value: Optional[int] = None

    def _request(self, opcode: Opcode, value: Optional[int] = None) -> TransactionRequest:
        data = b""
        if value is not None:
            data = value.to_bytes(COUNTER_BYTES, "little")
        return TransactionRequest(self.master_id, opcode, self.counter_address, 1,
                                  COUNTER_BYTES, SocketOrderKey.single(), data)

    def offer(self) -> Optional[tuple[TransactionRequest, bool]]:
        """The load, or the store once the load's value is back; None when done."""
        if self.completed_iterations >= self.iterations:
            return None
        if self.loaded_value is None:
            return self._request(self.load_op), True
        return self._request(self.store_op, self.loaded_value + 1), True

    def accepted(self) -> None:
        pass

    def deliver(self, entry: PendingEntry, response: TransactionResponse) -> None:
        opcode = entry.request.opcode
        if opcode is self.load_op:
            self.loaded_value = int.from_bytes(response.data, "little")
        elif opcode is self.store_op:
            if self.store_ok is None or response.status is self.store_ok:
                self.completed_iterations += 1
            self.loaded_value = None

    def done(self) -> bool:
        return self.completed_iterations >= self.iterations


class ExclusiveLoopMaster(_AtomicLoopMaster):
    """Increment a shared counter with load-exclusive / store-exclusive retries."""

    load_op, store_op, store_ok = Opcode.LOAD_EXCLUSIVE, Opcode.STORE_EXCLUSIVE, Status.EXOKAY


class LockLoopMaster(_AtomicLoopMaster):
    """Increment a shared counter under a READEX .. locked-release sequence."""

    load_op, store_op, store_ok = Opcode.READEX, Opcode.STORE_LOCKED_RELEASE, None


Master = ScriptedMaster | ExclusiveLoopMaster | LockLoopMaster
