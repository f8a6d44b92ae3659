"""Transport layer: switches, static routing, arbitration, flow control.

The fabric moves flits between NIUs and knows nothing about transactions.
Routing looks only at the packet destination, arbitration only at priority
and source, flow control only at buffer space. The single exception the
design allows is lock-marked packets: an output port captured by a lock
acquire admits only its owner's packets until the matching release passes.
A packet reaches the fabric by reference inside its flits (see link.py);
a switch reads just these four fields of it and passes the rest on unread.

A channel is one flit FIFO with one credit per slot, as in hardware: a flit
holds a credit from its send, in flight and then in the receive buffer at
the FIFO's front, until the switch has forwarded all of its bytes, so
``credits + len(buf) == depth``. Payload bytes are counted, not copied: the
channel records how many bytes of its newest delivered packet have arrived,
and a switch sends the packet's flits for its output link's width (sliced
once per width, see link.serialize) as the bytes they stand for arrive, so
wormhole and store-and-forward timing stay flit-exact without a byte being
moved.

Requests and responses travel on physically separate channel planes so a
backed-up request path can never block responses (and vice versa), which
removes request/response protocol deadlock by construction. Each plane of
a switch is its own Switch, which sleeps and wakes on its own.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import dataclass, field
from enum import Enum, auto
from operator import itemgetter
from typing import NamedTuple, Optional

from .errors import CreditError, FramingError, LockProtocolError, ScenarioError
from .link import Flit, LinkParams, serialize
from .packet import LockMarker, Packet, PacketKind


class TransportMode(Enum):
    STORE_AND_FORWARD = auto()
    WORMHOLE = auto()


# bound once: an attribute read on an Enum class goes through its metaclass
STORE_AND_FORWARD = TransportMode.STORE_AND_FORWARD
REQUEST, RESPONSE = PacketKind.REQUEST, PacketKind.RESPONSE
LOCK_ACQUIRE, LOCK_RELEASE = LockMarker.LOCK_ACQUIRE, LockMarker.LOCK_RELEASE
new_tuple = tuple.__new__  # builds a Candidate without its generated Python __new__
port_of = itemgetter(0)  # the port of a switch's (port, input or output) pair


# ---------------------------------------------------------------------------
# Topology description
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class SwitchSpec:
    switch_id: int
    ports: int


@dataclass(frozen=True, slots=True)
class LinkSpec:
    """Bidirectional switch-to-switch connection."""

    a_switch: int
    a_port: int
    b_switch: int
    b_port: int
    params: LinkParams = LinkParams()
    buffer_depth: int = 16


@dataclass(frozen=True, slots=True)
class AttachmentSpec:
    """NIU hanging off one switch port; physically a link like any other."""

    niu_id: int
    switch_id: int
    port: int
    params: LinkParams = LinkParams()
    buffer_depth: int = 16


@dataclass(frozen=True, slots=True)
class Topology:
    """Switches, links and NIU attachments, checked when built, and the routing
    table derived from them, or copied from an explicit ``routing`` (switch ->
    NIU -> port, kept as pairs), and checked once; callers must not change it.
    """

    switches: tuple[SwitchSpec, ...]
    links: tuple[LinkSpec, ...]
    attachments: tuple[AttachmentSpec, ...]
    routing: Optional[tuple] = None  # None derives shortest paths
    table: RoutingTable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("switches", "links", "attachments"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        self.validate()
        object.__setattr__(self, "table", build_routing(self))
        if self.routing is not None:
            pairs = tuple((sw, tuple(routes.items())) for sw, routes in self.table.ports.items())
            object.__setattr__(self, "routing", pairs)

    def switch_ids(self) -> list[int]:
        return sorted(s.switch_id for s in self.switches)

    def adjacency(self) -> dict[int, list[tuple[int, int, int]]]:
        """Each switch's neighbors as (other_switch, my_port, other_port), sorted."""
        adjacent: dict[int, list] = {s.switch_id: [] for s in self.switches}
        for ln in self.links:
            adjacent.setdefault(ln.a_switch, []).append((ln.b_switch, ln.a_port, ln.b_port))
            adjacent.setdefault(ln.b_switch, []).append((ln.a_switch, ln.b_port, ln.a_port))
        for out in adjacent.values():
            out.sort()
        return adjacent

    def validate(self) -> None:
        ports = {s.switch_id: s.ports for s in self.switches}  # switch id -> port count
        if len(ports) != len(self.switches):
            ids = [s.switch_id for s in self.switches]
            twice = next(sid for i, sid in enumerate(ids) if sid in ids[:i])
            raise ScenarioError(f"duplicate switch id {twice}")
        used: set[tuple[int, int]] = set()

        def take(what: str, sw: int, port: int) -> None:
            if sw not in ports:
                raise ScenarioError(f"{what} references unknown switch {sw}")
            if not 0 <= port < ports[sw]:
                raise ScenarioError(f"switch {sw} has no port {port}")
            if (sw, port) in used:
                raise ScenarioError(f"switch {sw} port {port} used twice")
            used.add((sw, port))

        for ln in self.links:
            take("link", ln.a_switch, ln.a_port)
            take("link", ln.b_switch, ln.b_port)
        niu_ids = [a.niu_id for a in self.attachments]
        if len(niu_ids) != len(set(niu_ids)):
            twice = next(nid for i, nid in enumerate(niu_ids) if nid in niu_ids[:i])
            raise ScenarioError(f"NIU {twice} attaches to more than one switch port")
        for at in self.attachments:
            take("attachment", at.switch_id, at.port)
        if not self.switches:
            raise ScenarioError("topology has no switches")
        adjacent = self.adjacency()
        seen = {self.switches[0].switch_id}
        frontier = deque(seen)
        while frontier:
            for other, _, _ in adjacent[frontier.popleft()]:
                if other not in seen:
                    seen.add(other)
                    frontier.append(other)
        missing = set(adjacent) - seen
        if missing:
            raise ScenarioError(f"topology is not connected; unreachable switches {sorted(missing)}")


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------

class RoutingTable:
    """Static per-switch map from target NIU id to output port."""

    def __init__(self, ports: dict[int, dict[int, int]]):
        self.ports = ports

    def lookup(self, switch_id: int, target_id: int) -> int:
        try:
            return self.ports[switch_id][target_id]
        except KeyError:
            raise ScenarioError(
                f"unroutable packet: switch {switch_id} has no route to NIU {target_id}"
            ) from None


def route(table: RoutingTable, switch_id: int, target_id: int) -> int:
    """Pure route lookup; depends on nothing but the destination."""
    return table.lookup(switch_id, target_id)


def build_routing(topology: Topology) -> RoutingTable:
    """Derive shortest-path routes per target, or copy the explicit table.

    Either way the result is checked for completeness and loop freedom at
    load time so the fabric never faces an unroutable packet at runtime, in
    time linear in the table plus, per target, the links. The topology's
    shape must already be checked (``Topology.validate``).
    """
    if topology.routing is None:
        adjacent = topology.adjacency()
        ports: dict[int, dict[int, int]] = {s: {} for s in topology.switch_ids()}
        for at in sorted(topology.attachments, key=lambda a: a.niu_id):
            ports[at.switch_id][at.niu_id] = at.port
            # breadth-first from the attach switch; first-found parent wins,
            # neighbor order is sorted so derivation is deterministic
            seen = {at.switch_id}
            frontier = deque(seen)
            while frontier:
                for other, _my_port, other_port in adjacent[frontier.popleft()]:
                    if other not in seen:
                        seen.add(other)
                        ports[other][at.niu_id] = other_port
                        frontier.append(other)
        table = RoutingTable(ports)
    else:
        table = RoutingTable({sw: dict(routes) for sw, routes in dict(topology.routing).items()})
    validate_routing(topology, table)
    return table


def validate_routing(topology: Topology, table: RoutingTable) -> None:
    """Walk every (switch, target) pair; reject loops, gaps, bad ports, and
    entries for a switch or NIU the topology lacks. A walk stops at a switch
    an earlier walk showed to reach the target: each entry is followed once.
    """
    switch_ids = topology.switch_ids()
    known, niu_ids = set(switch_ids), {at.niu_id for at in topology.attachments}
    for sw, routes in table.ports.items():
        if sw not in known:
            raise ScenarioError(f"routing names switch {sw}, which the topology does not have")
        for target in routes:
            if target not in niu_ids:
                raise ScenarioError(f"routing at switch {sw} names unattached NIU {target}")
    port_owner: dict[tuple[int, int], tuple[str, int]] = {}
    for ln in topology.links:
        port_owner[(ln.a_switch, ln.a_port)] = ("switch", ln.b_switch)
        port_owner[(ln.b_switch, ln.b_port)] = ("switch", ln.a_switch)
    for at in topology.attachments:
        port_owner[(at.switch_id, at.port)] = ("niu", at.niu_id)
    for at in topology.attachments:
        target = at.niu_id
        reaches: set[int] = set()  # switches whose route toward target is checked
        for cur in switch_ids:
            visited = set()
            while cur not in reaches:
                if cur in visited:
                    raise ScenarioError(
                        f"routing loop for target NIU {target} at switch {cur}"
                    )
                visited.add(cur)
                routes = table.ports.get(cur)
                if routes is None or target not in routes:
                    raise ScenarioError(
                        f"unroutable packet: switch {cur} has no route to NIU {target}"
                    )
                port = routes[target]
                owner = port_owner.get((cur, port))
                if owner is None:
                    raise ScenarioError(
                        f"route for NIU {target} at switch {cur} uses unconnected port {port}"
                    )
                kind, other = owner
                if kind == "niu":
                    if other != target:
                        raise ScenarioError(
                            f"route for NIU {target} at switch {cur} ends at NIU {other}"
                        )
                    break
                cur = other
            reaches |= visited


# ---------------------------------------------------------------------------
# Flow control
# ---------------------------------------------------------------------------

NEVER = 1 << 62  # wake cycle of a component that nothing can wake but a send


class ChannelStream:
    """One directed flit pipe: credits, latency/rate pipeline, flit buffer.

    ``credits`` starts at the receiver's buffer ``depth``; ``min_seen`` is
    the fewest it has fallen to. ``buf`` is one FIFO of ``(arrival, flit)``
    pairs, oldest first, one for every flit that holds a credit, so
    ``credits + len(buf)`` is always ``depth``. Its first ``arrived`` flits
    are delivered, the receive side's buffer; the rest are in flight.
    ``tails`` counts the tail flits delivered, so the oldest packet in the
    buffer is whole iff ``tails > 0``; ``received`` is the payload bytes of
    the newest packet delivered so far, and ``open`` is set between a
    packet's head and its tail, for the framing checks. A switch reading the
    channel sets ``waiting`` to the output port that the head at the front
    of ``buf`` is routed to while it waits for a grant. ``rx`` and
    ``in_flight`` are copies of the two parts, for tests and inspection.

    ``sink`` is the switch plane or NIU that reads the channel. The engine
    steps it only from its ``wake_cycle`` on, and a send lowers that cycle to
    the flit's arrival. A send into an empty pipe also puts the channel on the
    ``arrivals`` list of its reading Switch (``sink_switch``; None when an NIU
    reads it), so a switch step visits only inputs with flits in flight. The
    engine clears both when it is dropped. Credits are taken and returned
    inline on the hot path; misuse raises CreditError, which fires only on
    internal accounting bugs, never on legitimate backpressure.
    """

    __slots__ = (
        "name", "params", "credits", "depth", "min_seen", "buf", "arrived",
        "next_send", "flits_sent", "tails", "received", "open", "waiting",
        "sink", "sink_switch", "delay",
    )

    def __init__(self, name: str, params: LinkParams, depth: int):
        self.name = name
        self.params = params
        self.credits = self.depth = self.min_seen = depth
        self.buf: list[tuple[int, Flit]] = []
        self.arrived = 0
        self.next_send = 0
        self.flits_sent = 0
        self.tails = 0
        self.received = 0
        self.open = False
        self.waiting: Optional[int] = None
        self.sink = None
        self.sink_switch: Optional[Switch] = None
        self.delay = 1 + params.latency  # send to arrival, in cycles

    @property
    def rx(self) -> list[Flit]:
        """The delivered flits, oldest first."""
        return [flit for _, flit in self.buf[:self.arrived]]

    @property
    def in_flight(self) -> list[tuple[int, Flit]]:
        """The (arrival, flit) pairs not yet delivered, oldest first."""
        return self.buf[self.arrived:]

    def can_send(self, cycle: int) -> bool:
        return cycle >= self.next_send and self.credits > 0

    def send(self, cycle: int, flit: Flit) -> None:
        credits = self.credits - 1
        if credits < 0:
            raise CreditError("credit accounting: consume at zero")
        self.credits = credits
        if credits < self.min_seen:
            self.min_seen = credits
        arrival = cycle + self.delay
        buf = self.buf
        if self.arrived == len(buf) and self.sink_switch is not None:
            self.sink_switch.arrivals.append(self)
        buf.append((arrival, flit))
        self.next_send = cycle + self.params.rate_ratio
        self.flits_sent += 1
        sink = self.sink
        if sink is not None and arrival < sink.wake_cycle:
            sink.wake_cycle = arrival

    def next_arrival(self) -> int:
        """Arrival cycle of the oldest flit in flight, or NEVER."""
        buf = self.buf
        return buf[self.arrived][0] if self.arrived < len(buf) else NEVER

    def deliver(self, cycle: int) -> None:
        """Deliver the flits whose arrival cycle has come, checking their framing."""
        buf = self.buf
        i = self.arrived
        while i < len(buf) and buf[i][0] <= cycle:
            flit = buf[i][1]
            if flit.is_head:
                if self.open:
                    raise FramingError(
                        f"framing violation on {self.name}: head flit interrupts a packet"
                    )
                self.received = 0
            elif self.open:
                self.received = flit.end
            else:
                raise FramingError(
                    f"framing violation on {self.name}: stray continuation flit"
                )
            if flit.is_tail:
                self.tails += 1
                self.open = False
            else:
                self.open = True
            i += 1
        self.arrived = i

    def release(self, count: int) -> None:
        """Drop the ``count`` oldest delivered flits, returning their credits."""
        credits = self.credits + count
        if credits > self.depth:
            raise CreditError("credit accounting: return beyond buffer depth")
        self.credits = credits
        self.arrived -= count
        del self.buf[:count]

    def pop_packet(self) -> Packet:
        """Pop the oldest packet's flits, through its tail, freeing their credits."""
        buf = self.buf
        count = 0
        while not buf[count][1].is_tail:
            count += 1
        self.tails -= 1
        packet = buf[count][1].packet
        self.release(count + 1)
        return packet

    def pop_complete_packet(self) -> Packet:
        """Consume the oldest packet, which is whole (``tails > 0``), as an NIU
        receive side does. The packet leaves the fabric here, so its slicing
        into flits is dropped with it.
        """
        packet = self.pop_packet()
        packet.sliced = None
        return packet


# ---------------------------------------------------------------------------
# Arbitration
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class ArbiterState:
    """Round-robin cursor plus optional lock capture for one output port."""

    nports: int
    cursor: int = 0
    lock_owner: Optional[int] = None


class Candidate(NamedTuple):
    """A ready head bidding for an output port.

    ``Switch._try_grant`` builds it with ``tuple.__new__``, in field order;
    tests/test_field_order.py pins that order.
    """

    input_port: int
    priority: int
    src: int


def arbitrate(candidates: list[Candidate], state: ArbiterState) -> Optional[int]:
    """Pick the winning input port for one output port this cycle.

    A lock owner, when set, filters out every other source first. Among
    eligible candidates the highest priority wins; ties go round-robin
    starting at the cursor, and the cursor advances past the winner. Returns
    None when the lock leaves no eligible candidate (a stall, not a fault).
    """
    if state.lock_owner is not None:
        eligible = [c for c in candidates if c.src == state.lock_owner]
    else:
        eligible = candidates
    if not eligible:
        return None
    top = max(c.priority for c in eligible)
    contenders = {c.input_port for c in eligible if c.priority == top}
    winner = -1
    for i in range(state.nports):
        p = (state.cursor + i) % state.nports
        if p in contenders:
            winner = p
            break
    state.cursor = (winner + 1) % state.nports
    return winner


def lock_capture(state: ArbiterState, src: int) -> None:
    """A lock-acquire packet captures this output port for its source."""
    state.lock_owner = src


def lock_release(state: ArbiterState, src: int, where: str = "") -> None:
    """The matching lock-release frees the port; ownership must line up."""
    if state.lock_owner != src:
        raise LockProtocolError(
            f"lock protocol violation{where}: release by {src}, "
            f"owner {state.lock_owner}"
        )
    state.lock_owner = None


class OutPort:
    """Per-output-port state of a switch plane: arbiter, lock, active stream.

    ``ready`` counts the heads routed here that may compete for a grant:
    each sits at the front of an input's flit buffer, is not granted yet,
    and is whole if the transport mode is store-and-forward; its input's
    ``waiting`` names this port. An idle port runs its grant scan only while
    the count is non-zero; at exactly one it grants that head directly,
    which is what ``arbitrate`` decides for a single candidate.

    The active stream is the packet granted from input ``active_ch``, its
    flits for this port's link width, and the index of the next to send.
    ``site`` names the port in trace events and stats.
    """

    __slots__ = (
        "channel", "site", "arbiter", "active_ch", "active_pkt", "flits", "next_flit",
        "ready", "grants_by_input", "lock_stall_cycles", "credit_stall_cycles",
    )

    def __init__(self, channel: ChannelStream, nports: int, site: str):
        self.channel = channel
        self.site = site
        self.arbiter = ArbiterState(nports)
        self.active_ch: Optional[ChannelStream] = None  # input being streamed
        self.active_pkt: Optional[Packet] = None
        self.flits: list[Flit] = []
        self.next_flit = 0
        self.ready = 0
        self.grants_by_input: dict[int, int] = {}
        self.lock_stall_cycles = 0
        self.credit_stall_cycles = 0


# ---------------------------------------------------------------------------
# Switch
# ---------------------------------------------------------------------------

class Switch:
    """One channel plane of one fabric switch: the ports that carry ``kind``.

    A switch of the topology is two of these, one per PacketKind, that share
    no channel; the engine steps each in the cycles it can act in. Inputs
    and outputs are ChannelStream objects by port; a port with no connection
    simply has no channel. The run's transport ``mode`` and ``trace`` are
    given once, when the plane is built. The plane records its events
    through ``trace.packet_marker(cycle, site, kind, packet)``: lock events
    always, and a packet's delivery at each output port only when the
    trace's ``record_hops`` is set. It reads both attributes at event time,
    so a wrapper put on the trace before the run sees every event. Only
    request packets carry a lock marker, so only a request plane captures
    and releases ports.

    ``wake_cycle`` is the first cycle in which a step can change anything:
    the next cycle while a ready head waits for a grant (see OutPort), else
    the earliest of the arrivals on its inputs and the cycles in which its
    streaming outputs' channels accept a flit again. A send toward the
    plane lowers it. A stream cannot send in a cycle slept through, so each
    such cycle is one credit stall for it, which ``catch_up`` adds.

    Inside a step the same rule holds per port: ``arrivals`` lists the
    inputs with flits in flight (see ChannelStream), in no particular order,
    and a step delivers only on those; it scans the outputs, in port order,
    only while ``ready`` (the ready heads, summed over the outputs) or
    ``streaming`` (the outputs with an active stream) is non-empty.
    Delivery only bumps head counts, so the order of the inputs is free.

    Each input is a flit FIFO (see ChannelStream). A head is routed once,
    when it becomes ready; a stream sends the packet's flits for its
    output's width and drops the inbound flits whose bytes have all gone
    out from the FIFO's front, returning their credits.
    """

    def __init__(self, switch_id: int, nports: int, table: RoutingTable, kind: PacketKind,
                 mode: TransportMode, trace):
        self.switch_id = switch_id
        self.nports = nports
        self.kind = kind
        self.saf = mode is STORE_AND_FORWARD
        self.trace = trace
        self.routes = table.ports.get(switch_id, {})  # target NIU id -> output port
        self.in_by_port: dict[int, ChannelStream] = {}
        self.out_by_port: dict[int, OutPort] = {}
        self.inputs: list[tuple[int, ChannelStream]] = []  # in port order
        self.outputs: list[tuple[int, OutPort]] = []  # in port order
        self.arrivals: list[ChannelStream] = []
        self.ready = 0
        self.streaming: list[OutPort] = []
        self.wake_cycle = 0
        self.counted_to = -1  # stall counters are complete up to this cycle

    def attach_input(self, port: int, channel: ChannelStream) -> None:
        self.in_by_port[port] = channel
        insort(self.inputs, (port, channel), key=port_of)
        channel.sink = channel.sink_switch = self

    def attach_output(self, port: int, channel: ChannelStream) -> None:
        suffix = "" if self.kind is REQUEST else ".rsp"
        out = self.out_by_port[port] = OutPort(
            channel, self.nports, f"sw{self.switch_id}.out{port}{suffix}"
        )
        insort(self.outputs, (port, out), key=port_of)

    def catch_up(self, cycle: int) -> None:
        """Count the stalls of the streams slept through before ``cycle``."""
        skipped = cycle - 1 - self.counted_to
        if skipped > 0:
            for out in self.streaming:
                out.credit_stall_cycles += skipped
        self.counted_to = cycle - 1

    def step(self, cycle: int) -> None:
        saf = self.saf
        if cycle - 1 > self.counted_to:
            self.catch_up(cycle)
        self.counted_to = cycle
        self.wake_cycle = wake = NEVER  # sends during this step may lower it
        if self.arrivals:
            in_flight = []
            for ch in self.arrivals:
                buf = ch.buf
                arrival = buf[ch.arrived][0]
                if arrival <= cycle:
                    no_head = not ch.arrived or (saf and not ch.tails)
                    ch.deliver(cycle)
                    # buf[0] is no head when the delivery continues a stream
                    if no_head and buf[0][1].is_head and (not saf or ch.tails):
                        self._head_ready(ch)
                    if ch.arrived == len(buf):
                        continue
                    arrival = buf[ch.arrived][0]
                in_flight.append(ch)
                if arrival < wake:
                    wake = arrival
            self.arrivals = in_flight
        if self.ready or self.streaming:
            for port, out in self.outputs:
                if out.active_pkt is not None:
                    self._continue_stream(cycle, port, out)
                elif out.ready:
                    self._try_grant(cycle, port, out)
                if out.active_pkt is not None:
                    resume = out.channel.next_send
                    if resume <= cycle:
                        resume = cycle + 1
                    if resume < wake:
                        wake = resume
            if self.ready:
                wake = cycle + 1
        if wake < self.wake_cycle:
            self.wake_cycle = wake

    # -- grant ---------------------------------------------------------------

    def _head_ready(self, ch: ChannelStream) -> None:
        ch.waiting = port = self.routes[ch.buf[0][1].packet.dest.target_id]
        self.out_by_port[port].ready += 1
        self.ready += 1

    def _try_grant(self, cycle, port, out: OutPort) -> None:
        arbiter = out.arbiter
        if out.ready == 1:
            # the lone ready head wins unless a lock owner filters it out
            for winner, in_ch in self.inputs:
                if in_ch.waiting == port:
                    break
            pkt = in_ch.buf[0][1].packet
            if arbiter.lock_owner is not None and pkt.src != arbiter.lock_owner:
                out.lock_stall_cycles += 1
                return
            arbiter.cursor = (winner + 1) % arbiter.nports
        else:
            candidates = []
            for in_port, ch in self.inputs:
                if ch.waiting == port:
                    head = ch.buf[0][1].packet
                    candidates.append(new_tuple(Candidate, (in_port, head.priority, head.src)))
            winner = arbitrate(candidates, arbiter)
            if winner is None:
                out.lock_stall_cycles += 1
                return
            in_ch = self.in_by_port[winner]
            pkt = in_ch.buf[0][1].packet
        in_ch.waiting = None
        out.ready -= 1
        self.ready -= 1
        out.active_ch = in_ch
        out.active_pkt = pkt
        out.flits = serialize(pkt, out.channel.params)
        out.next_flit = 0
        self.streaming.append(out)
        out.grants_by_input[winner] = out.grants_by_input.get(winner, 0) + 1
        if pkt.lock_marker is LOCK_ACQUIRE:
            lock_capture(arbiter, pkt.src)
            self.trace.packet_marker(cycle, out.site, "LOCK_SET", pkt)
        self._continue_stream(cycle, port, out)

    # -- streaming -----------------------------------------------------------

    def _continue_stream(self, cycle, port, out: OutPort) -> None:
        """Forward the active packet's next flit for the output link.

        The head goes out at once, a body flit once all of its bytes have
        arrived, the tail once the packet is whole; in between the stream
        waits. The active packet is the oldest in the input's buffer, so it
        is whole iff the buffer holds a tail, and else it is the newest, so
        ``received`` counts its bytes.
        """
        ch = out.channel
        if cycle < ch.next_send or ch.credits <= 0:
            out.credit_stall_cycles += 1
            return
        in_ch = out.active_ch
        i = out.next_flit
        flit = out.flits[i]
        if i and not in_ch.tails and (flit.is_tail or flit.end > in_ch.received):
            return  # wormhole: the flit's bytes have not all arrived; wait for more
        out.next_flit = i + 1
        ch.send(cycle, flit)
        if flit.is_tail:
            in_ch.pop_packet()
            self._finish_stream(cycle, port, out, in_ch)
            return
        # drop the inbound flits forwarded in full; the tail stays until the end
        buf = in_ch.buf
        end = flit.end
        count = 0
        while count < in_ch.arrived and buf[count][1].end <= end:
            count += 1
        if count:
            in_ch.release(count)

    def _finish_stream(self, cycle, port, out: OutPort, in_ch: ChannelStream) -> None:
        pkt = out.active_pkt
        # the next packet's head is exposed to later ports in this same step
        if in_ch.arrived and (not self.saf or in_ch.tails):
            self._head_ready(in_ch)
        out.active_ch = None
        out.active_pkt = None
        self.streaming.remove(out)
        trace = self.trace
        if pkt.lock_marker is LOCK_RELEASE:
            lock_release(out.arbiter, pkt.src, f" at sw{self.switch_id} port {port}")
            trace.packet_marker(cycle, out.site, "LOCK_CLEARED", pkt)
        if trace.record_hops:
            trace.packet_marker(cycle, out.site, "PKT_DELIVERED", pkt)
