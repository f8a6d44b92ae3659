"""Socket-neutral transaction vocabulary.

Every socket family an IP block may speak (fully-ordered bus, threaded,
ID-based with split read/write channels) reduces to the request/response
primitives defined here. The rest of the simulator never looks at
socket-specific signals, only at these values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto
from functools import lru_cache
from typing import NamedTuple

# Simulated address space width. A single constant so desk-scale scenarios
# stay readable; nothing else in the package assumes a particular width.
ADDRESS_BITS = 32
ADDRESS_LIMIT = 1 << ADDRESS_BITS


class Opcode(Enum):
    """Transaction kinds available to masters.

    Each member's facts are plain attributes, set once below: ``is_store``,
    ``is_load``, ``is_exclusive`` and ``label`` (the name traces print).
    Reading one costs no ``Enum.__hash__`` call and no descriptor call.
    """

    LOAD = auto()
    STORE = auto()
    STORE_POSTED = auto()
    READEX = auto()
    STORE_LOCKED_RELEASE = auto()
    LOAD_EXCLUSIVE = auto()
    STORE_EXCLUSIVE = auto()


for _op in Opcode:
    _op.is_store = _op in (
        Opcode.STORE, Opcode.STORE_POSTED, Opcode.STORE_LOCKED_RELEASE, Opcode.STORE_EXCLUSIVE
    )
    _op.is_load = not _op.is_store
    _op.is_exclusive = _op in (Opcode.LOAD_EXCLUSIVE, Opcode.STORE_EXCLUSIVE)


def needs_response(opcode: Opcode) -> bool:
    """Posted writes are the only fire-and-forget transactions."""
    return opcode is not Opcode.STORE_POSTED


class Status(Enum):
    """Response status taxonomy; ``label`` is the name traces print."""

    OKAY = auto()
    EXOKAY = auto()
    EXFAIL = auto()
    ERROR_DECODE = auto()
    ERROR_SLAVE = auto()


for _member in (*Opcode, *Status):
    _member.label = _member.name


class Channel(Enum):
    """Read/write channel split of ID-based sockets."""

    READ = auto()
    WRITE = auto()


class OrderVariant(Enum):
    SINGLE = auto()
    THREAD = auto()
    TXN_ID = auto()


@dataclass(frozen=True, slots=True)
class SocketOrderKey:
    """Ordering sub-key a socket attaches to each transaction.

    SINGLE is used by fully-ordered sockets (one stream per master),
    THREAD by threaded sockets (one stream per thread id), TXN_ID by
    ID-based sockets (one stream per (transaction id, channel) pair).

    ``stream``, set at construction, names the stream: it differs between
    two keys exactly when their variants do, or the fields their variant
    names a stream by (none, ``thread_id``, or ``txn_id`` and ``channel``).
    Traces print it and the release gate keys on it. The constructors
    return one shared key per stream.
    """

    variant: OrderVariant
    thread_id: int = 0
    txn_id: int = 0
    channel: Channel = Channel.READ
    stream: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.variant is OrderVariant.SINGLE:
            stream = "single"
        elif self.variant is OrderVariant.THREAD:
            stream = f"thread:{self.thread_id}"
        else:
            stream = f"txnid:{self.txn_id}:{self.channel.name}"
        object.__setattr__(self, "stream", stream)

    @classmethod
    @lru_cache(maxsize=None, typed=True)
    def single(cls) -> "SocketOrderKey":
        return cls(OrderVariant.SINGLE)

    @classmethod
    @lru_cache(maxsize=None, typed=True)
    def thread(cls, thread_id: int) -> "SocketOrderKey":
        return cls(OrderVariant.THREAD, thread_id=thread_id)

    @classmethod
    @lru_cache(maxsize=None, typed=True)
    def txn(cls, txn_id: int, channel: Channel) -> "SocketOrderKey":
        return cls(OrderVariant.TXN_ID, txn_id=txn_id, channel=channel)


class TransactionRequest(NamedTuple):
    """A master-issued request, before any packetization; immutable.

    data is the full store payload in socket byte order; loads carry an
    empty payload and describe their size via burst_len and beat_size.
    The NIU it is offered to supplies the source.
    """

    opcode: Opcode
    address: int
    burst_len: int
    beat_size: int
    order_key: SocketOrderKey
    data: bytes = b""

    @property
    def byte_length(self) -> int:
        return self.burst_len * self.beat_size


@dataclass(slots=True)
class TransactionResponse:
    """What the socket sees for a response-bearing request; the NIU supplies the source."""

    status: Status
    data: bytes = b""


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def validate_request(req: TransactionRequest) -> list[str]:
    """Return the list of invariant violations (empty means the request is ok).

    Violations are data for the caller to act on, not exceptions: a scenario
    reports them for each script step when it is built.
    """
    violations: list[str] = []
    if req.burst_len < 1:
        violations.append("burst length must be at least 1")
    if not _is_pow2(req.beat_size):
        violations.append("beat size must be a power of two")
    if req.opcode.is_store:
        if len(req.data) != req.byte_length:
            violations.append(
                f"data length mismatch: {len(req.data)} != {req.byte_length}"
            )
    elif req.data:
        violations.append("loads must carry no data")
    if _is_pow2(req.beat_size) and req.address % req.beat_size != 0:
        violations.append("address not aligned to beat size")
    if not 0 <= req.address < ADDRESS_LIMIT:
        violations.append("address outside simulated address space")
    return violations
