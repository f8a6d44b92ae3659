"""Physical layer: flit framing and link parameters.

A packet crossing a link is sliced into flits sized for that link. Flits are
per-link artifacts; a switch forwarding a packet onto a narrower or wider
link re-slices it, which is why the framing below carries the full header on
the head flit and plain byte ranges on the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto

from .errors import FramingError, ScenarioError
from .packet import Packet


class FlitKind(Enum):
    HEAD = auto()
    BODY = auto()
    TAIL = auto()
    HEAD_TAIL = auto()  # single-flit packet


@dataclass(frozen=True, slots=True)
class Flit:
    kind: FlitKind
    header: tuple | None = None  # packet header fields, head flits only
    data: bytes = b""

    @property
    def is_head(self) -> bool:
        return self.kind is FlitKind.HEAD or self.kind is FlitKind.HEAD_TAIL

    @property
    def is_tail(self) -> bool:
        return self.kind is FlitKind.TAIL or self.kind is FlitKind.HEAD_TAIL


@dataclass(frozen=True, slots=True)
class LinkParams:
    """Per-link physical parameters; all values are at least 1.

    rate_ratio models a clock-domain mismatch abstractly: the link accepts a
    new flit only every rate_ratio cycles.
    """

    flit_payload_width: int = 4
    latency: int = 1
    rate_ratio: int = 1

    def validate(self) -> None:
        if self.flit_payload_width < 1 or self.latency < 1 or self.rate_ratio < 1:
            raise ScenarioError(f"link parameters must all be >= 1: {self}")


def flit_count(payload_bytes: int, width: int) -> int:
    """Flits needed for a packet: one header flit plus the payload slices."""
    return 1 + -(-payload_bytes // width)


def serialize(packet: Packet, params: LinkParams) -> list[Flit]:
    """Slice a packet into flits for one link.

    Empty payloads produce a single HEAD_TAIL flit; otherwise the head is
    followed by body slices of flit_payload_width bytes and a tail carrying
    the final slice.
    """
    header = packet.header_tuple()
    payload = packet.payload
    if not payload:
        return [Flit(FlitKind.HEAD_TAIL, header=header)]
    width = params.flit_payload_width
    flits = [Flit(FlitKind.HEAD, header=header)]
    for start in range(0, len(payload), width):
        chunk = payload[start : start + width]
        kind = FlitKind.TAIL if start + width >= len(payload) else FlitKind.BODY
        flits.append(Flit(kind, data=chunk))
    return flits


def deserialize(flits: list[Flit]) -> Packet:
    """Rebuild the packet from one well-formed flit sequence.

    Raises FramingError for anything that is not exactly HEAD BODY* TAIL or
    a lone HEAD_TAIL.
    """
    if not flits:
        raise FramingError("framing violation: empty flit sequence")
    first = flits[0]
    if first.header is None or not first.is_head:
        raise FramingError(f"framing violation: sequence starts with {first.kind.name}")
    if first.kind is FlitKind.HEAD_TAIL:
        if len(flits) != 1:
            raise FramingError("framing violation: flits after HEAD_TAIL")
        return packet_from_header(first.header, b"")
    payload = bytearray()
    if len(flits) < 2:
        raise FramingError("framing violation: HEAD without TAIL")
    for i, flit in enumerate(flits[1:], start=1):
        if flit.kind is FlitKind.BODY:
            if i == len(flits) - 1:
                raise FramingError("framing violation: sequence ends on BODY")
        elif flit.kind is FlitKind.TAIL:
            if i != len(flits) - 1:
                raise FramingError("framing violation: TAIL before end of sequence")
        else:
            raise FramingError(f"framing violation: unexpected {flit.kind.name} mid-packet")
        payload.extend(flit.data)
    return packet_from_header(first.header, bytes(payload))


def packet_from_header(header: tuple, payload: bytes) -> Packet:
    (dest, src, tag, kind, op, priority, user_bits, lock_marker, payload_len,
     frag_index, frag_last) = header
    return Packet(
        dest=dest,
        src=src,
        tag=tag,
        kind=kind,
        op=op,
        priority=priority,
        user_bits=user_bits,
        lock_marker=lock_marker,
        payload=payload,
        payload_len=payload_len,
        frag_index=frag_index,
        frag_last=frag_last,
    )
