"""Uniform transport-layer packet.

Whatever socket a master speaks, its NIU reduces every transaction to
packets carrying a destination, a source, a tag, and a small set of service
bits. The switch fabric carries a packet by reference and reads four of its
fields: it routes on the destination NIU, arbitrates on priority and source,
and honours the lock marker. It is otherwise unaware of what the packet
means.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto
from typing import NamedTuple, Optional, Union

from .transaction import Opcode, Status

# user_bits bit 0 marks exclusive-access requests and their responses.
USER_BIT_EXCLUSIVE = 1 << 0


class PacketKind(Enum):
    REQUEST = auto()
    RESPONSE = auto()


class LockMarker(Enum):
    NONE = auto()
    LOCK_ACQUIRE = auto()
    LOCK_RELEASE = auto()


class PacketDest(NamedTuple):
    """Routing address: owning NIU plus byte offset inside it.

    The NIUs build it with ``tuple.__new__``, in field order;
    tests/test_field_order.py pins that order.
    """

    target_id: int
    offset: int


@dataclass(slots=True)
class Packet:
    """One transport-layer packet.

    For requests `op` is an Opcode and `payload_len` is the number of bytes
    addressed at the target (loads carry no payload but still state how many
    bytes they want back). For responses `op` is a Status. `frag_index` and
    `frag_last` tie burst chops back together at the initiator; the fabric
    never reads them. `sliced` is the physical layer's cache of the packet's
    latest slicing into flits, as (link width, flits); see link.serialize.

    The NIUs build it positionally, in field order; tests/test_field_order.py
    pins that order.
    """

    dest: PacketDest
    src: int
    tag: int
    kind: PacketKind
    op: Union[Opcode, Status]
    priority: int = 0
    user_bits: int = 0
    lock_marker: LockMarker = LockMarker.NONE
    payload: bytes = b""
    payload_len: int = 0
    frag_index: int = 0
    frag_last: bool = True
    sliced: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
