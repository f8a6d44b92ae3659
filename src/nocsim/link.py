"""Physical layer: flit framing and link parameters.

A packet crossing a link is sliced into flits sized for that link. There is
one flit form, used by ``serialize`` and by the fabric alike: a flit holds
its head and tail bits, a reference to its packet and the byte range
``[start, end)`` of the packet's payload that it stands for. A head flit
stands for the header and has an empty range. No flit copies payload bytes. Flits are per-link
artifacts, but a packet is not sliced again for a link of the width it was
last sliced for: ``serialize`` keeps that slicing on the packet, so a switch
forwarding onto a link as wide as the one before sends the flits it
received. ``deserialize`` rebuilds a packet from the slices its flits name.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import FramingError, ScenarioError
from .packet import Packet


class Flit:
    """One flit: whether it heads and/or ends its packet, the packet, and the
    payload bytes [start, end) it carries. A single-flit packet's one flit is
    both head and tail."""

    __slots__ = ("is_head", "is_tail", "packet", "start", "end")

    def __init__(self, is_head: bool, is_tail: bool, packet: Packet, start: int = 0, end: int = 0):
        self.is_head = is_head
        self.is_tail = is_tail
        self.packet = packet
        self.start = start
        self.end = end

    @property
    def data(self) -> bytes:
        return self.packet.payload[self.start : self.end]


@dataclass(frozen=True, slots=True)
class LinkParams:
    """Per-link physical parameters; all values are at least 1.

    rate_ratio models a clock-domain mismatch abstractly: the link accepts a
    new flit only every rate_ratio cycles.
    """

    flit_payload_width: int = 4
    latency: int = 1
    rate_ratio: int = 1

    def __post_init__(self) -> None:
        if self.flit_payload_width < 1 or self.latency < 1 or self.rate_ratio < 1:
            raise ScenarioError(f"link parameters must all be >= 1: {self}")


def flit_count(payload_bytes: int, width: int) -> int:
    """Flits needed for a packet: one header flit plus the payload slices."""
    return 1 + -(-payload_bytes // width)


def serialize(packet: Packet, params: LinkParams) -> list[Flit]:
    """Slice a packet into flits for one link.

    Empty payloads produce a single HEAD_TAIL flit; otherwise the head is
    followed by body slices of flit_payload_width bytes and a tail carrying
    the final slice. The list is kept on the packet (``Packet.sliced``) and
    returned again while the width stays the same, so callers must not
    change it.
    """
    width = params.flit_payload_width
    sliced = packet.sliced
    if sliced is not None and sliced[0] == width:
        return sliced[1]
    size = len(packet.payload)
    if not size:
        flits = [Flit(True, True, packet)]
    else:
        flits = [Flit(True, False, packet)]
        for start in range(0, size - width, width):
            flits.append(Flit(False, False, packet, start, start + width))
        flits.append(Flit(False, True, packet, (size - 1) // width * width, size))
    packet.sliced = (width, flits)
    return flits


def deserialize(flits: list[Flit]) -> Packet:
    """Rebuild the packet from one well-formed flit sequence.

    The header comes from the head flit, the payload from the slices the
    other flits name. Raises FramingError for anything that is not exactly
    HEAD BODY* TAIL or a lone HEAD_TAIL, and for a continuation flit that
    belongs to another packet or does not start where the last one ended.
    """
    if not flits:
        raise FramingError("framing violation: empty flit sequence")
    first = flits[0]
    if not first.is_head:
        kind = "TAIL" if first.is_tail else "BODY"
        raise FramingError(f"framing violation: sequence starts with {kind}")
    packet = first.packet
    if first.is_tail:
        if len(flits) != 1:
            raise FramingError("framing violation: flits after HEAD_TAIL")
        return replace(packet, payload=b"")
    if len(flits) < 2:
        raise FramingError("framing violation: HEAD without TAIL")
    last = len(flits) - 1
    parts = []
    end = 0
    for i, flit in enumerate(flits[1:], start=1):
        if flit.is_head:
            kind = "HEAD_TAIL" if flit.is_tail else "HEAD"
            raise FramingError(f"framing violation: unexpected {kind} mid-packet")
        if flit.is_tail:
            if i != last:
                raise FramingError("framing violation: TAIL before end of sequence")
        elif i == last:
            raise FramingError("framing violation: sequence ends on BODY")
        if flit.packet is not packet or flit.start != end:
            raise FramingError("framing violation: flit does not continue the packet")
        end = flit.end
        parts.append(flit.data)
    return replace(packet, payload=b"".join(parts))
