"""Master workload models.

A master owns a stream of transactions and presents them to its NIU
strictly in program order, one attempt per cycle; a tag stall simply means
the same transaction is offered again next cycle. Loop masters react to
response data, which is how the retry semantics of exclusive accesses and
the read-modify-write of locked sequences are exercised.
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


class Master:
    """Common issue machinery; subclasses supply the transaction stream."""

    def __init__(self, master_id: int):
        self.master_id = master_id
        self.waiting_seq: Optional[int] = None
        self.stall_flagged = False

    # subclass interface ------------------------------------------------------

    def next_request(self) -> Optional[tuple[TransactionRequest, bool]]:
        """The transaction to offer now (request, wait_for_response), or None.

        The answer may change only after ``consume`` or ``on_response``; the
        engine stops asking a master that said None until a response comes.
        """
        raise NotImplementedError

    def consume(self) -> None:
        """Called when the offered transaction was accepted by the NIU."""
        raise NotImplementedError

    def on_response(self, request: TransactionRequest, response: TransactionResponse) -> None:
        pass

    def done(self) -> bool:
        raise NotImplementedError

    # engine-facing -------------------------------------------------------------

    def offer(self) -> Optional[tuple[TransactionRequest, bool]]:
        """The transaction the engine should try to issue this cycle."""
        if self.waiting_seq is not None:
            return None
        return self.next_request()

    def accepted(self, entry: PendingEntry, wait: bool) -> None:
        self.stall_flagged = False
        if wait:
            self.waiting_seq = entry.seq
        self.consume()

    def deliver(self, entry: PendingEntry, response: TransactionResponse) -> None:
        if self.waiting_seq == entry.seq:
            self.waiting_seq = None
        self.on_response(entry.request, response)


class ScriptedMaster(Master):
    """Plays back a fixed list of (request, wait) steps, checked before it is built."""

    def __init__(self, master_id: int, steps: list[tuple[TransactionRequest, bool]]):
        super().__init__(master_id)
        self.steps = steps
        self.index = 0

    def next_request(self):
        if self.index >= len(self.steps):
            return None
        return self.steps[self.index]

    def consume(self) -> None:
        self.index += 1

    def done(self) -> bool:
        return self.index >= len(self.steps) and self.waiting_seq is None


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


class _AtomicLoopMaster(Master):
    """Shared machinery for the two read-modify-write loop flavors.

    An iteration loads the counter with ``load_op`` and stores it plus one
    with ``store_op``. The store completes it if its status is ``store_ok``
    (any status when that is None), and else counts as a failure.
    """

    load_op: Opcode
    store_op: Opcode
    store_ok: Optional[Status]

    def __init__(self, master_id: int, counter_address: int, iterations: int):
        super().__init__(master_id)
        self.counter_address = counter_address
        self.iterations = iterations
        self.completed_iterations = 0
        self.loaded_value: Optional[int] = None
        self.failures = 0

    def _request(self, opcode: Opcode, value: Optional[int] = None) -> TransactionRequest:
        data = b""
        if value is not None:
            data = value.to_bytes(COUNTER_BYTES, "little")
        return TransactionRequest(self.master_id, opcode, self.counter_address, 1,
                                  COUNTER_BYTES, SocketOrderKey.single(), data)

    def next_request(self):
        if self.completed_iterations >= self.iterations:
            return None
        if self.loaded_value is None:
            return self._request(self.load_op), True
        return self._request(self.store_op, self.loaded_value + 1), True

    def on_response(self, request, response) -> None:
        if request.opcode is self.load_op:
            self.loaded_value = int.from_bytes(response.data, "little")
        elif request.opcode is self.store_op:
            if self.store_ok is None or response.status is self.store_ok:
                self.completed_iterations += 1
            else:
                self.failures += 1
            self.loaded_value = None

    def done(self) -> bool:
        return self.completed_iterations >= self.iterations and self.waiting_seq is None

    def consume(self) -> None:
        pass


class ExclusiveLoopMaster(_AtomicLoopMaster):
    """Increment a shared counter with load-exclusive / store-exclusive retries."""

    load_op, store_op, store_ok = Opcode.LOAD_EXCLUSIVE, Opcode.STORE_EXCLUSIVE, Status.EXOKAY


class LockLoopMaster(_AtomicLoopMaster):
    """Increment a shared counter under a READEX .. locked-release sequence."""

    load_op, store_op, store_ok = Opcode.READEX, Opcode.STORE_LOCKED_RELEASE, None
