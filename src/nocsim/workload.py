"""Master workload models.

A master owns a stream of transactions and presents them to its NIU
strictly in program order, one attempt per cycle; a tag stall simply means
the same transaction is offered again next cycle. Loop masters react to
response data, which is how the retry semantics of exclusive accesses and
the read-modify-write of locked sequences are exercised.
"""

from __future__ import annotations

import random
from itertools import accumulate
from typing import Optional

from .errors import ScenarioError
from .niu import InitiatorNiu, PendingEntry, SocketFamily
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

    def __init__(self, master_id: int, niu: InitiatorNiu):
        self.master_id = master_id
        self.niu = niu
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

    def __init__(self, master_id: int, niu: InitiatorNiu,
                 steps: list[tuple[TransactionRequest, bool]]):
        super().__init__(master_id, niu)
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
    op_mix: dict[Opcode, float],
    address_ranges: list[tuple[int, int]],
    burst_lens: list[int],
    beat_sizes: list[int],
    threads: int = 2,
    txn_ids: int = 4,
    max_bytes: int = 64,
) -> list[tuple[TransactionRequest, bool]]:
    """Deterministically expand a random-program spec into scripted steps.

    Facts fixed per program are worked out once, outside the per-step draws.
    """
    allowed = {Opcode.LOAD, Opcode.STORE, Opcode.STORE_POSTED}
    if set(op_mix) - allowed:
        raise ScenarioError(
            "random programs may only mix LOAD, STORE, and STORE_POSTED"
        )
    opcodes = sorted(op_mix, key=lambda o: o.name)
    cum_weights = list(accumulate(op_mix[o] for o in opcodes))
    choices, choice, randrange, randbytes = rng.choices, rng.choice, rng.randrange, rng.randbytes
    fitting = {beat: [b for b in burst_lens if b * beat <= max_bytes] for beat in beat_sizes}
    if family is SocketFamily.FULLY_ORDERED:
        single = SocketOrderKey.single()

        def order_key(opcode: Opcode) -> SocketOrderKey:
            return single
    elif family is SocketFamily.THREADED:
        thread = SocketOrderKey.thread

        def order_key(opcode: Opcode) -> SocketOrderKey:
            return thread(randrange(threads))
    else:
        txn, load, read, write = SocketOrderKey.txn, Opcode.LOAD, Channel.READ, Channel.WRITE

        def order_key(opcode: Opcode) -> SocketOrderKey:
            return txn(randrange(txn_ids), read if opcode is load else write)

    steps = []
    for _ in range(transactions):
        opcode = choices(opcodes, cum_weights=cum_weights)[0]
        beat = choice(beat_sizes)
        candidates = fitting[beat]
        burst = choice(candidates) if candidates else 1
        nbytes = burst * beat
        base, size = choice(address_ranges)
        if size < nbytes:
            raise ScenarioError(f"address range of size {size} too small for {nbytes}-byte burst")
        slots = (size - nbytes) // beat + 1
        address = base + randrange(slots) * beat
        key = order_key(opcode)
        data = randbytes(nbytes) if opcode.is_store else b""
        steps.append(
            (TransactionRequest(master_id, opcode, address, burst, beat, key, data), False)
        )
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

    def __init__(self, master_id: int, niu: InitiatorNiu, counter_address: int, iterations: int):
        super().__init__(master_id, niu)
        self.counter_address = counter_address
        self.iterations = iterations
        self.completed_iterations = 0
        self.loaded_value: Optional[int] = None
        self.failures = 0

    def _request(self, opcode: Opcode, value: Optional[int] = None) -> TransactionRequest:
        data = b""
        if value is not None:
            data = value.to_bytes(COUNTER_BYTES, "little")
        return TransactionRequest(
            master_id=self.master_id,
            opcode=opcode,
            address=self.counter_address,
            burst_len=1,
            beat_size=COUNTER_BYTES,
            order_key=SocketOrderKey.single(),
            data=data,
            exclusive_flag=opcode.is_exclusive,
        )

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
