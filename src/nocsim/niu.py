"""Network Interface Units.

An initiator NIU converts socket transactions into request packets (address
decode, tag assignment, burst chopping, byte-lane conversion) and converts
response packets back, holding them as needed so the socket sees responses
in the order its family requires. A target NIU owns a byte-addressable
memory and the exclusive monitors for masters that use load-exclusive /
store-exclusive synchronization.

Both kinds face the transport through one packet port (``PacketPort``):
packets queued whole, sent one flit per cycle, and taken in whole. Only the
port touches flits; the socket half of each NIU sees packets alone.

Feature state deliberately lives in exactly two places: per-NIU lookup
tables (pending transactions, monitors) and packet bits (the exclusive
marker, the lock markers). Nothing else in the fabric changes when a socket
family gains a feature.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum, auto
from typing import Optional

from .errors import OrphanResponseError, RaggedBeatError, ScenarioError
from .fabric import ChannelStream
from .link import Flit, serialize
from .packet import LockMarker, Packet, PacketDest, PacketKind, USER_BIT_EXCLUSIVE
from .trace import MONITOR_ARMED, MONITOR_CLEARED, PKT_DELIVERED, Trace
from .transaction import (
    ADDRESS_BITS,
    ADDRESS_LIMIT,
    Channel,
    Opcode,
    OrderVariant,
    SocketOrderKey,
    Status,
    TransactionRequest,
    TransactionResponse,
    needs_response,
)

# Enum members read per transaction, bound once: an attribute read on an
# Enum class goes through its metaclass (about 100 ns).
READEX, LOCKED_RELEASE, POSTED = Opcode.READEX, Opcode.STORE_LOCKED_RELEASE, Opcode.STORE_POSTED
OKAY, REQUEST, RESPONSE, NO_LOCK = Status.OKAY, PacketKind.REQUEST, PacketKind.RESPONSE, LockMarker.NONE
new_tuple = tuple.__new__  # builds a PacketDest without its generated Python __new__

# Tag field width; bounds every tag policy.
TAG_BITS = 4
MAX_TAGS = 1 << TAG_BITS


class SocketFamily(Enum):
    FULLY_ORDERED = auto()
    THREADED = auto()
    ID_BASED = auto()


FAMILY_VARIANT = {
    SocketFamily.FULLY_ORDERED: OrderVariant.SINGLE,
    SocketFamily.THREADED: OrderVariant.THREAD,
    SocketFamily.ID_BASED: OrderVariant.TXN_ID,
}


class Endianness(Enum):
    LITTLE = auto()
    BIG = auto()


# The fabric carries payloads in a fixed canonical byte order; initiator
# NIUs convert on the way in and out.
FABRIC_ENDIANNESS = Endianness.LITTLE


# ---------------------------------------------------------------------------
# Address decode
# ---------------------------------------------------------------------------

class AddressMap:
    """Non-overlapping [base, base+size) regions, each owned by one target."""

    def __init__(self, regions: list[tuple[int, int, int]]):
        """regions: list of (base, size, target_niu_id)."""
        regions = sorted(regions)
        for (b0, s0, t0), (b1, s1, t1) in zip(regions, regions[1:]):
            if b0 + s0 > b1:
                raise ScenarioError(
                    f"address regions overlap: NIU {t0} [{b0:#x},{b0+s0:#x}) and "
                    f"NIU {t1} [{b1:#x},{b1+s1:#x})"
                )
        self.regions = regions
        self._bases = [r[0] for r in regions]

    def decode(self, address: int) -> Optional[tuple[int, int]]:
        """Return (target_niu_id, offset) or None on a decode miss."""
        i = bisect_right(self._bases, address) - 1
        if i < 0:
            return None
        base, size, target = self.regions[i]
        if address < base + size:
            return target, address - base
        return None


# ---------------------------------------------------------------------------
# Tag assignment
# ---------------------------------------------------------------------------

class TagPolicyKind(Enum):
    SINGLE_OUTSTANDING = auto()
    PER_STREAM = auto()
    POOLED = auto()


SINGLE_OUTSTANDING, PER_STREAM = TagPolicyKind.SINGLE_OUTSTANDING, TagPolicyKind.PER_STREAM


@dataclass(frozen=True, slots=True)
class TagPolicy:
    """How an initiator NIU maps ordering streams onto packet tags.

    SINGLE_OUTSTANDING allows one transaction in flight, ever. PER_STREAM
    dedicates one tag per ordering stream; a stream may pipeline several
    transactions on its tag only while they all address one target, because
    one target behind one static route returns responses in order. POOLED
    hands out the lowest free tag from a pool, relying on the release gate
    for socket ordering.
    """

    kind: TagPolicyKind
    streams: int = 1
    capacity: int = 1

    def max_outstanding(self) -> int:
        if self.kind is TagPolicyKind.SINGLE_OUTSTANDING:
            return 1
        if self.kind is TagPolicyKind.POOLED:
            return self.capacity
        return MAX_TAGS


def stream_tag(key: SocketOrderKey) -> int:
    """Dedicated tag index of a key's stream under the per-stream policy."""
    if key.variant is OrderVariant.SINGLE:
        return 0
    if key.variant is OrderVariant.THREAD:
        return key.thread_id
    return key.txn_id * 2 + (0 if key.channel is Channel.READ else 1)


@dataclass(slots=True)
class PendingEntry:
    """One accepted transaction waiting for its response fragments."""

    seq: int
    request: TransactionRequest
    issue_cycle: int
    target_id: int
    tag: int
    frags_expected: int
    frags: dict[int, tuple[Status, bytes]] = field(default_factory=dict)


class PendingTable:
    """Live transactions of one initiator, keyed by tag.

    Tags normally identify a single live entry; under the per-stream policy
    several same-stream, same-target transactions may share the stream's
    tag, in which case responses match entries in FIFO order (one target,
    one route, so fragments come back oldest-first).
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.entries: defaultdict[int, list[PendingEntry]] = defaultdict(list)  # oldest first
        self.count = 0

    def insert(self, tag: int, entry: PendingEntry) -> None:
        if self.count >= self.capacity:
            raise ScenarioError("pending table overflow")
        self.entries[tag].append(entry)
        self.count += 1

    def head(self, tag: int) -> Optional[PendingEntry]:
        q = self.entries.get(tag)
        return q[0] if q else None

    def pop(self, tag: int) -> PendingEntry:
        q = self.entries[tag]
        entry = q.pop(0)
        if not q:
            del self.entries[tag]
        self.count -= 1
        return entry

    def all_entries(self) -> list[PendingEntry]:
        out = []
        for tag in sorted(self.entries):
            out.extend(self.entries[tag])
        return out


def assign_tag(
    policy: TagPolicy,
    key: SocketOrderKey,
    pending: PendingTable,
    target_id: int,
) -> Optional[int]:
    """Pick a tag for a new transaction, or None to stall this cycle.

    A stall is ordinary flow control; the NIU retries on a later cycle. The
    table holds at most ``policy.max_outstanding()`` entries, so room in it
    decides a single tag, and a pool, one entry per tag, has a free one.
    """
    if pending.count >= pending.capacity:
        return None
    kind = policy.kind
    if kind is SINGLE_OUTSTANDING:
        return 0
    if kind is PER_STREAM:
        tag = stream_tag(key)  # below policy.streams: Scenario counts the streams
        q = pending.entries.get(tag)
        if not q:
            return tag
        if all(e.target_id == target_id for e in q):
            return tag
        return None
    for tag in range(policy.capacity):
        if tag not in pending.entries:
            return tag


# ---------------------------------------------------------------------------
# Burst chopping and byte lanes
# ---------------------------------------------------------------------------

def chop_spans(total_bytes: int, beat_size: int, max_payload: int) -> list[tuple[int, int]]:
    """Split a burst into packet-sized (offset, length) spans.

    Chops fall on beat boundaries so byte-lane conversion never splits a
    beat across packets.
    """
    if beat_size > max_payload:
        raise ScenarioError(f"beat size {beat_size} exceeds max payload {max_payload}")
    step = (max_payload // beat_size) * beat_size
    if total_bytes == 0:
        return [(0, 0)]
    return [(off, min(step, total_bytes - off)) for off in range(0, total_bytes, step)]


def endianness_convert(
    data: bytes,
    beat_size: int,
    from_endianness: Endianness,
    to_endianness: Endianness,
) -> bytes:
    """Per-beat byte-lane reversal between differing byte orders.

    Identity when the orders match; its own inverse in all cases.
    """
    if len(data) % beat_size != 0:
        raise RaggedBeatError(
            f"ragged beat: {len(data)} bytes not divisible by beat size {beat_size}"
        )
    if from_endianness is to_endianness or beat_size == 1:
        return data
    out = bytearray(len(data))
    for start in range(0, len(data), beat_size):
        out[start : start + beat_size] = data[start : start + beat_size][::-1]
    return bytes(out)


# ---------------------------------------------------------------------------
# Exclusive monitors (target side)
# ---------------------------------------------------------------------------

class ExclusiveMonitorSet:
    """Per-master reservation state at one target.

    A load-exclusive arms (master -> address granule). Any successful store
    to that granule disarms every other master's reservation there; a
    master's own successful store-exclusive also consumes its own. A failed
    store-exclusive changes nothing.
    """

    def __init__(self, granule: int = 8):
        self.granule = granule  # a power of two (checked by TargetConfig)
        self.monitors: dict[int, int] = {}

    def _base(self, offset: int) -> int:
        return offset & ~(self.granule - 1)

    def arm(self, master_id: int, offset: int) -> None:
        self.monitors[master_id] = self._base(offset)

    def is_armed(self, master_id: int, offset: int) -> bool:
        return self.monitors.get(master_id) == self._base(offset)

    def observe_store(
        self, master_id: int, offset: int, nbytes: int, exclusive: bool
    ) -> list[int]:
        """Apply a successful store; returns the masters whose monitors cleared."""
        if not self.monitors:
            return []
        first = self._base(offset)
        last = self._base(offset + max(nbytes, 1) - 1)
        cleared = sorted(
            m
            for m, base in self.monitors.items()
            if first <= base <= last and (m != master_id or exclusive)
        )
        for m in cleared:
            del self.monitors[m]
        return cleared


# ---------------------------------------------------------------------------
# Response release ordering
# ---------------------------------------------------------------------------

class ReleaseGate:
    """Holds completed responses until older same-stream responses go out.

    Responses within one ordering stream leave in issue order; responses of
    independent streams leave as they complete.
    """

    def __init__(self):
        self._streams: defaultdict[str, list[int]] = defaultdict(list)  # by SocketOrderKey.stream
        self._done: dict[int, object] = {}

    def register(self, seq: int, key: SocketOrderKey) -> None:
        self._streams[key.stream].append(seq)

    def complete(self, seq: int, key: SocketOrderKey, payload) -> list[tuple[int, object]]:
        """Mark seq complete; return every (seq, payload) now free to emit."""
        self._done[seq] = payload
        out = []
        q = self._streams[key.stream]
        while q and q[0] in self._done:
            s = q.pop(0)
            out.append((s, self._done.pop(s)))
        return out


def response_release_order(
    issued: list[tuple[int, SocketOrderKey]],
    completion_order: list[int],
) -> list[int]:
    """Emission order for a set of transactions given their completion order.

    `issued` lists (seq, order key) in socket issue order; `completion_order`
    lists the same seqs in the order their responses became ready.
    """
    key_of = dict(issued)
    gate = ReleaseGate()
    for seq, key in issued:
        gate.register(seq, key)
    emitted: list[int] = []
    for seq in completion_order:
        emitted.extend(s for s, _ in gate.complete(seq, key_of[seq], None))
    return emitted


# ---------------------------------------------------------------------------
# Packet port: the transport side of both NIU kinds
# ---------------------------------------------------------------------------

class PacketPort:
    """The transport side of an NIU: packets out one flit per cycle, packets in whole.

    The socket side queues whole packets on ``inject_queue``; ``step_inject``
    slices the oldest into flits for ``tx`` and sends at most one per cycle.
    Packets arriving on ``rx`` are taken whole with ``pop_complete_packet``.
    No other NIU code touches flits (tests/test_layering.py).
    """

    def __init__(self, niu_id: int):
        self.niu_id = niu_id
        self.site = f"niu{niu_id}"  # the NIU's name in the trace
        self.inject_queue: list[Packet] = []  # oldest first
        self.flits: Optional[list[Flit]] = None  # of the packet being sent; None between
        self.next_flit = 0  # index into flits of the next to send
        # wired by the engine
        self.tx: Optional[ChannelStream] = None  # packets out
        self.rx: Optional[ChannelStream] = None  # packets in
        # first cycle in which the NIU can act; rx sends lower it
        self.wake_cycle = 0

    def step_inject(self, cycle: int) -> Optional[Packet]:
        """Send at most one flit; returns the packet when its head goes out."""
        flits = self.flits
        if flits is None:
            if not self.inject_queue:
                return None
            self.flits = flits = serialize(self.inject_queue.pop(0), self.tx.params)
            self.next_flit = 0
        if not self.tx.can_send(cycle):
            return None
        i = self.next_flit
        flit = flits[i]
        self.tx.send(cycle, flit)
        if i + 1 == len(flits):
            self.flits = None
        else:
            self.next_flit = i + 1
        if flit.is_head:
            return flit.packet
        return None


# ---------------------------------------------------------------------------
# Initiator NIU
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class InitiatorConfig:
    niu_id: int
    family: SocketFamily
    tag_policy: TagPolicy
    max_payload: int = 32
    endianness: Endianness = Endianness.LITTLE
    priority: int = 0

    def __post_init__(self) -> None:
        who = f"initiator NIU {self.niu_id}"
        policy = self.tag_policy
        if policy.kind is TagPolicyKind.PER_STREAM and not 1 <= policy.streams <= MAX_TAGS:
            raise ScenarioError(
                f"{who} per-stream tag policy has {policy.streams} streams, not 1..{MAX_TAGS}"
            )
        if policy.kind is TagPolicyKind.POOLED and not 1 <= policy.capacity <= MAX_TAGS:
            raise ScenarioError(
                f"{who} pooled tag policy has {policy.capacity} tags, not 1..{MAX_TAGS}"
            )
        if self.max_payload < 1:
            raise ScenarioError(f"{who} max payload {self.max_payload} is not positive")
        if not 0 <= self.priority <= 7:
            raise ScenarioError(f"{who} priority {self.priority} is not in 0..7")


class InitiatorNiu(PacketPort):
    """Socket-side adapter for one master; requests out, responses in."""

    def __init__(self, config: InitiatorConfig, address_map: AddressMap):
        super().__init__(config.niu_id)
        self.config = config
        self.address_map = address_map
        self.pending = PendingTable(config.tag_policy.max_outstanding())
        self.gate = ReleaseGate()
        self.next_seq = 0
        self.emit_buffer: list[tuple[PendingEntry, TransactionResponse]] = []

    # -- socket side ----------------------------------------------------------

    def try_accept(self, req: TransactionRequest, cycle: int) -> Optional[PendingEntry]:
        """Ingress path: returns the pending entry, or None on a tag stall.

        The request is not checked again: a built ``Scenario`` refused every
        program that could offer an invalid one, one on another family's
        order key, an unpaired lock release, or an exclusive or locking burst
        wider than one packet. A decode miss consumes the request and
        produces a local error response without injecting anything into the
        fabric.
        """
        decoded = self.address_map.decode(req.address)
        if decoded is None:
            return self._local_error(req, cycle, Status.ERROR_DECODE)
        target_id, offset = decoded
        key, pending = req.order_key, self.pending
        tag = assign_tag(self.config.tag_policy, key, pending, target_id)
        if tag is None:
            return None

        opcode = req.opcode
        nbytes = req.burst_len * req.beat_size
        max_payload = self.config.max_payload
        if nbytes <= max_payload:
            spans = [(0, nbytes)]  # what chop_spans gives for a burst that fits
        else:
            spans = chop_spans(nbytes, req.beat_size, max_payload)
        entry = PendingEntry(self.next_seq, req, cycle, target_id, tag, len(spans))
        self.next_seq += 1
        pending.insert(tag, entry)
        if opcode is not POSTED:
            self.gate.register(entry.seq, key)

        data = b""
        if opcode.is_store:
            data = endianness_convert(
                req.data, req.beat_size, self.config.endianness, FABRIC_ENDIANNESS
            )
        user_bits = USER_BIT_EXCLUSIVE if opcode.is_exclusive else 0
        lock_marker = NO_LOCK
        if opcode is READEX:
            lock_marker = LockMarker.LOCK_ACQUIRE
        elif opcode is LOCKED_RELEASE:
            lock_marker = LockMarker.LOCK_RELEASE

        last = len(spans) - 1
        for i, (span_off, span_len) in enumerate(spans):
            self.inject_queue.append(Packet(
                new_tuple(PacketDest, (target_id, offset + span_off)), self.niu_id, tag,
                REQUEST, opcode, self.config.priority, user_bits, lock_marker,
                data[span_off : span_off + span_len], span_len, i, i == last,
            ))
        return entry

    def _local_error(self, req: TransactionRequest, cycle: int, status: Status) -> PendingEntry:
        # no target, no tag, no fragments
        entry = PendingEntry(self.next_seq, req, cycle, -1, -1, 0)
        self.next_seq += 1
        if needs_response(req.opcode):
            self.gate.register(entry.seq, req.order_key)
            data = bytes(req.byte_length) if req.opcode.is_load else b""
            response = TransactionResponse(status, data)
            released = self.gate.complete(entry.seq, req.order_key, (entry, response))
            if released:
                self.emit_buffer.extend(payload for _, payload in released)
                self.wake_cycle = min(self.wake_cycle, cycle)
        return entry

    # -- fabric side ------------------------------------------------------------

    def egress_unpack(self, packet: Packet) -> Optional[tuple[PendingEntry, TransactionResponse]]:
        """Fold one response packet into its pending entry.

        Returns the reconstructed transaction response once the last fragment
        arrives; None while fragments are still outstanding. Its status is
        the first non-OKAY fragment status by index. The lone fragment of a
        single-fragment entry is the response as it stands and is not filed.
        """
        tag, index = packet.tag, packet.frag_index
        entry = self.pending.head(tag)
        if entry is None:
            raise OrphanResponseError(f"orphan response at NIU {self.niu_id}: tag {tag} not live")
        frags = entry.frags
        if index in frags:
            raise OrphanResponseError(f"duplicate response fragment {index} for tag {tag}")
        if entry.frags_expected == 1 and index == 0:
            status, raw = packet.op, packet.payload
        else:
            frags[index] = (packet.op, packet.payload)
            if len(frags) != entry.frags_expected:
                return None
            parts = [frags[i] for i in range(entry.frags_expected)]
            status = next((s for s, _ in parts if s is not OKAY), OKAY)
            raw = b"".join(payload for _, payload in parts)
        self.pending.pop(tag)
        req = entry.request
        data = b""
        if req.opcode.is_load:
            data = endianness_convert(
                raw, req.beat_size, FABRIC_ENDIANNESS, self.config.endianness
            )
        return entry, TransactionResponse(status, data)

    def step_egress(self, cycle: int) -> list[tuple[PendingEntry, TransactionResponse, bool]]:
        """Drain response packets; return (entry, response, socket_visible) emissions."""
        rx = self.rx
        rx.deliver(cycle)
        emissions: list[tuple[PendingEntry, TransactionResponse, bool]] = []
        while rx.tails:
            done = self.egress_unpack(rx.pop_complete_packet())
            if done is None:
                continue
            entry, response = done
            if entry.request.opcode is POSTED:
                emissions.append((entry, response, False))
            else:
                for _, (e, r) in self.gate.complete(entry.seq, entry.request.order_key, done):
                    emissions.append((e, r, True))
        if self.emit_buffer:
            emissions.extend((e, r, True) for e, r in self.emit_buffer)
            self.emit_buffer.clear()
        self.wake_cycle = rx.next_arrival()
        return emissions

    def idle(self) -> bool:
        # a request packet still to be sent belongs to a pending entry, and
        # the release gate holds a response only behind an older pending one
        return self.pending.count == 0 and not self.emit_buffer


# ---------------------------------------------------------------------------
# Target NIU
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class TargetConfig:
    niu_id: int
    region_base: int
    region_size: int
    memory_size: Optional[int] = None  # None backs the whole region
    monitor_granule: int = 8

    def __post_init__(self) -> None:
        if self.memory_size is None:
            object.__setattr__(self, "memory_size", self.region_size)
        who = f"target NIU {self.niu_id}"
        if self.region_size < 1:
            raise ScenarioError(f"{who} region size {self.region_size} is not positive")
        granule = self.monitor_granule
        if granule < 1 or granule & (granule - 1):
            raise ScenarioError(f"{who} monitor granule {granule} is not a power of two")
        if self.memory_size < 0:
            raise ScenarioError(f"{who} memory size {self.memory_size} is negative")
        if self.memory_size > sys.maxsize:
            raise ScenarioError(f"{who} memory size exceeds {sys.maxsize} bytes")
        # offsets stay below region_size, so bytes past it are never addressed
        if self.memory_size > self.region_size:
            raise ScenarioError(f"{who} memory size {self.memory_size} exceeds its region "
                                f"size {self.region_size}")
        end = self.region_base + self.region_size
        if self.region_base < 0 or end > ADDRESS_LIMIT:
            raise ScenarioError(f"{who} region [{self.region_base:#x},{end:#x}) leaves the "
                                f"{ADDRESS_BITS}-bit address space")


class TargetNiu(PacketPort):
    """Memory-backed slave with exclusive monitors; requests in, responses out.

    It records its own events in the run's ``trace`` at site ``niu<id>``:
    monitor activity always, and at packet level and up each request it
    handled. It reads the trace's attributes at event time, so a wrapper
    put on the trace before the run sees every event.
    """

    def __init__(self, config: TargetConfig, trace: Trace):
        super().__init__(config.niu_id)
        self.config = config
        self.trace = trace
        try:
            self.memory = bytearray(config.memory_size)
        except MemoryError:
            raise ScenarioError(
                f"cannot allocate {config.memory_size} bytes of memory for target NIU {self.niu_id}"
            ) from None
        self.monitors = ExclusiveMonitorSet(config.monitor_granule)

    def handle_request(self, pkt: Packet, cycle: int = 0) -> Packet:
        """Execute one request packet against memory and the monitors."""
        off = pkt.dest.offset
        length = pkt.payload_len
        opcode = pkt.op
        status = OKAY
        user_bits = 0
        data = b""
        monitors = self.monitors
        if off < 0 or off + length > len(self.memory):
            status = Status.ERROR_SLAVE
            if opcode.is_load:
                data = bytes(length)
        elif opcode.is_load:  # LOAD, READEX, LOAD_EXCLUSIVE
            data = bytes(self.memory[off : off + length])
            if opcode.is_exclusive:
                monitors.arm(pkt.src, off)
                self._emit_monitor(cycle, MONITOR_ARMED, pkt.src, pkt.src, opcode, off)
                status = Status.EXOKAY
                user_bits = USER_BIT_EXCLUSIVE
        elif opcode.is_exclusive:  # STORE_EXCLUSIVE
            user_bits = USER_BIT_EXCLUSIVE
            if monitors.is_armed(pkt.src, off):
                self.memory[off : off + length] = pkt.payload
                for m in monitors.observe_store(pkt.src, off, length, exclusive=True):
                    self._emit_monitor(cycle, MONITOR_CLEARED, m, pkt.src, opcode, off)
                status = Status.EXOKAY
            else:
                status = Status.EXFAIL
        else:  # STORE, STORE_POSTED, STORE_LOCKED_RELEASE
            self.memory[off : off + length] = pkt.payload
            for m in monitors.observe_store(pkt.src, off, length, exclusive=False):
                self._emit_monitor(cycle, MONITOR_CLEARED, m, pkt.src, opcode, off)

        return Packet(
            new_tuple(PacketDest, (pkt.src, 0)), pkt.src, pkt.tag, RESPONSE, status, pkt.priority,
            user_bits, NO_LOCK, data, len(data), pkt.frag_index, pkt.frag_last,
        )

    def _emit_monitor(self, cycle, kind, owner, actor, opcode, offset) -> None:
        self.trace.event(cycle, self.site, kind, master=owner, tag=actor, op=opcode.label,
                         address=self.monitors._base(offset))

    def step(self, cycle: int) -> list[Packet]:
        """Consume arrived request packets, then push at most one response flit.

        Returns the request packets handled this cycle.
        """
        rx = self.rx
        rx.deliver(cycle)
        handled = []
        while rx.tails:
            packet = rx.pop_complete_packet()
            handled.append(packet)
            self.inject_queue.append(self.handle_request(packet, cycle))
        trace = self.trace
        if trace.record_packets:
            for packet in handled:
                trace.packet_marker(cycle, self.site, PKT_DELIVERED, packet)
        if self.flits is not None or self.inject_queue:
            self.step_inject(cycle)
        wake = rx.next_arrival()
        if self.flits is not None or self.inject_queue:
            wake = min(wake, max(cycle + 1, self.tx.next_send))
        self.wake_cycle = wake
        return handled
