"""Deterministic cycle engine.

Each cycle advances through a fixed phase order, which is part of the
external contract (changing it is a breaking change):

  1. masters       - react to responses, offer one transaction to their NIU
  2. initiator NIUs - slice the next request packet into flits, send one
  3. switch planes - ingest arrivals, arbitrate, forward one flit per output
  4. target NIUs   - consume arrived requests, run them, send response flits
  5. response path - initiator NIUs reassemble responses and emit them to
                     the socket in release order

Identical (scenario, seed) pairs produce byte-identical traces: iteration
is in sorted id order everywhere, and workload randomness comes from
per-master generators seeded from the scenario seed alone.

Each phase visits only the components that can act this cycle; a skipped
visit could not have moved a flit, a packet or a transaction, and the
stall counters it would have bumped are added in bulk (see below):

  1. a master sleeps while its offer cannot change until something
     happens at its NIU: after issuing a request it waits for, after
     offering nothing (it has no work left) and after a tag stall. Phase 5
     wakes it when its NIU delivers a response (the one it waits for, if
     it waits) or its pending table shrinks;
  2. an initiator NIU is visited while it has request flits to send and
     its channel can take one;
  3. each switch is two planes, a request and a response Switch that
     share no channel, stepped in switch id order, request first. A plane
     is stepped from its own wake cycle on: the next cycle while a head
     waits for a grant, else the earliest arrival on its inputs or the
     cycle a streaming output's channel accepts a flit again. Inside a
     step it delivers only on the inputs with flits in flight and visits
     its outputs, in port order, only while it has a ready head or an
     active stream; an idle output runs its grant scan only while a head
     that may compete is routed to it, and grants a lone such head without
     arbitration, as ``arbitrate`` would;
  4. and 5. an NIU is visited from its wake cycle on: the earliest arrival
     on its receive channel, the next cycle while a target has responses
     to send, or the cycle a local error response is queued.

A send lowers the wake cycle of the switch plane or NIU that reads the
channel, so wake state is arrival cycles and head counts, and the fabric
stays unaware of transactions. The phase order, the sorted order inside
each phase, the credits a plane returns reaching the planes stepped after
it in the same cycle, and the per-cycle stall counters are unchanged. A
plane with a lock-blocked head, or with a stream whose channel's pacing
allows a send, is stepped every cycle, while the other plane of its
switch keeps its own wake cycle; the credit stalls of a stream slept
through are added at the plane's next step and at the end of the run, and
a master's tag stall cycles slept through when it wakes. The run ends when
every master is done and every initiator NIU idle, which is checked only
for masters that issued or received something.

Each runtime object gets the run facts it reads when it is built, so a
step takes only the cycle: a switch plane the transport mode and the
engine's ``recorder``, a target NIU the recorder. Each records its own
events: a plane its lock events and, at full level, its hops; a target its
monitor events and, at packet level, the requests it handled. The engine
records the socket events, stalls and packet injections. A run moves the
events to the result's own Trace, and ``Engine.__del__`` clears the
channels' back-references to their readers, so an engine, run or not, and
a result are each freed as soon as dropped, not by the cyclic collector.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import NocSimError
from .fabric import ChannelStream, Switch
from .niu import InitiatorNiu, TargetNiu
from .packet import PacketKind
from .scenario import (
    ExclusiveLoopProgram,
    LockLoopProgram,
    MasterSpec,
    Scenario,
    ScriptProgram,
)
from .trace import (
    PKT_INJECTED,
    REQ_ISSUED,
    RESP_EMITTED,
    STALL,
    MasterStats,
    Stats,
    Trace,
)
from .workload import (
    ExclusiveLoopMaster,
    LockLoopMaster,
    Master,
    ScriptedMaster,
    generate_random_steps,
)

REQUEST, RESPONSE = PacketKind.REQUEST, PacketKind.RESPONSE


@dataclass(slots=True)
class RunResult:
    """What one run made. It alone owns ``trace``, the run's events."""

    memories: dict[int, bytes]
    trace: Trace
    stats: Stats
    timed_out: bool
    stuck: list[str] = field(default_factory=list)


def derive_rng(seed: int, master_id: int) -> random.Random:
    return random.Random(seed * 1_000_003 + master_id * 7_919 + 11)


def scripted_steps_for(spec: MasterSpec, seed: int):
    """Expand a script or random program into explicit steps.

    Kept separate from the engine so reference models can replay the exact
    same workload without running the fabric. A spec is immutable, so a
    random program's steps depend on the seed alone: the latest expansion is
    kept on the spec (``MasterSpec.expansion``) with its seed and returned
    again for that seed. The variants of a scenario share its masters, so
    they share one list, and callers must not change it.
    """
    program = spec.program
    if isinstance(program, ScriptProgram):
        return program.steps
    kept = spec.expansion
    if kept is not None and kept[0] == seed:
        return kept[1]
    niu = spec.niu
    steps = generate_random_steps(
        niu.niu_id, niu.family, derive_rng(seed, niu.niu_id), program.transactions,
        program.op_mix, program.address_ranges, program.burst_lens, program.beat_sizes,
        program.threads, program.txn_ids, program.max_bytes,
    )
    object.__setattr__(spec, "expansion", (seed, steps))
    return steps


@dataclass(slots=True)
class _MasterSlot:
    """A master with its NIU and stats, and the engine's scheduling facts.

    The module docstring says when a master sleeps and wakes. A tag stall
    counts once per cycle, so the cycles slept through after one are added
    on waking; nothing frees a tag but a pending entry completing. The
    awaited entry stays pending, or queued to emit, until its response is
    emitted, so ``finished`` needs no separate test of it.
    """

    mid: int
    site: str  # the trace site of the master's NIU
    master: Master
    niu: InitiatorNiu
    stats: MasterStats
    asleep: bool = False
    awaited: int | None = None  # seq of the response the master waits for
    stall_traced: bool = False  # the current offer's STALL event is recorded
    stall_pending: int = -1  # pending entries at a tag stall; -1 if not stalled
    stall_from: int = 0  # first cycle slept through after a tag stall

    def stall(self, cycle: int) -> None:
        """Count a tag stall in ``cycle`` and sleep from the next one."""
        self.stats.tag_stall_cycles += 1
        self.asleep = True
        self.stall_pending = self.niu.pending.count
        self.stall_from = cycle + 1

    def wake(self, cycle: int) -> None:
        """Wake for ``cycle``, counting the stalled cycles slept through."""
        if self.stall_pending >= 0:
            self.stats.tag_stall_cycles += cycle - self.stall_from
            self.stall_pending = -1
        self.asleep = False

    def finished(self) -> bool:
        return self.master.done() and self.niu.idle()


class Engine:
    """Builds the runtime objects for one scenario and runs it to completion."""

    def __init__(self, scenario: Scenario):
        self.channels: dict[str, ChannelStream] = {}  # first: ``__del__`` reads it
        self.table = scenario.topology.table
        self.scenario = scenario
        self.mode = scenario.run.mode
        self.recorder = Trace(level=scenario.run.trace_level)
        self.spent = False  # run() was called

        # two planes per switch, in the order phase 3 steps them: switch id,
        # request before response
        self.switches: dict[tuple[int, PacketKind], Switch] = {
            (s.switch_id, kind): Switch(
                s.switch_id, s.ports, self.table, kind, self.mode, self.recorder
            )
            for s in sorted(scenario.topology.switches, key=lambda s: s.switch_id)
            for kind in (REQUEST, RESPONSE)
        }

        self.initiators: dict[int, InitiatorNiu] = {}
        self.targets: dict[int, TargetNiu] = {}
        self.masters: dict[int, Master] = {}
        self.master_stats: dict[int, MasterStats] = {}
        self._build_nius()
        self._build_channels()
        self._build_masters()

    def __del__(self):
        # each channel refers back to the switch plane or NIU that reads it
        for ch in self.channels.values():
            ch.sink = ch.sink_switch = None

    # -- construction ------------------------------------------------------------

    def _build_nius(self) -> None:
        for spec in self.scenario.masters:
            self.initiators[spec.niu.niu_id] = InitiatorNiu(spec.niu, self.scenario.address_map)
        for cfg in self.scenario.targets:
            self.targets[cfg.niu_id] = TargetNiu(cfg, self.recorder)

    def _channel(self, name: str, params, depth: int) -> ChannelStream:
        ch = ChannelStream(name, params, depth)
        self.channels[name] = ch
        return ch

    def _build_channels(self) -> None:
        topo = self.scenario.topology
        switches = self.switches
        planes = ((REQUEST, "req"), (RESPONSE, "rsp"))
        for ln in topo.links:
            a, ap, b, bp = ln.a_switch, ln.a_port, ln.b_switch, ln.b_port
            for plane, tagname in planes:
                fwd = self._channel(
                    f"sw{a}p{ap}-sw{b}p{bp}.{tagname}", ln.params, ln.buffer_depth
                )
                switches[a, plane].attach_output(ap, fwd)
                switches[b, plane].attach_input(bp, fwd)
                rev = self._channel(
                    f"sw{b}p{bp}-sw{a}p{ap}.{tagname}", ln.params, ln.buffer_depth
                )
                switches[b, plane].attach_output(bp, rev)
                switches[a, plane].attach_input(ap, rev)
        for at in topo.attachments:
            sw, port, nid = at.switch_id, at.port, at.niu_id
            # an initiator sends requests and receives responses; a target the reverse
            initiator = nid in self.initiators
            niu = self.initiators[nid] if initiator else self.targets[nid]
            (up, up_name), (down, down_name) = planes if initiator else planes[::-1]
            niu.tx = self._channel(f"niu{nid}-sw{sw}p{port}.{up_name}", at.params, at.buffer_depth)
            switches[sw, up].attach_input(port, niu.tx)
            niu.rx = self._channel(
                f"sw{sw}p{port}-niu{nid}.{down_name}", at.params, at.buffer_depth
            )
            niu.rx.sink = niu
            switches[sw, down].attach_output(port, niu.rx)

    def _build_masters(self) -> None:
        seed = self.scenario.run.seed
        for spec in self.scenario.masters:
            mid = spec.master_id
            program = spec.program
            if isinstance(program, ExclusiveLoopProgram):
                master: Master = ExclusiveLoopMaster(
                    mid, program.counter_address, program.iterations
                )
            elif isinstance(program, LockLoopProgram):
                master = LockLoopMaster(mid, program.counter_address, program.iterations)
            else:
                master = ScriptedMaster(scripted_steps_for(spec, seed))
            self.masters[mid] = master
            self.master_stats[mid] = MasterStats()
        self._master_order = sorted(self.masters)

    # -- run loop -----------------------------------------------------------------

    def run(self) -> RunResult:
        """Run the scenario; an engine runs once. The result alone owns the
        trace: the engine keeps its runtime state, but no event."""
        if self.spent:
            raise NocSimError("an Engine runs once; build a new one to run again")
        self.spent = True
        rec = self.recorder
        # read here, so a wrapper installed on the recorder before run() is called
        packet_marker = rec.packet_marker
        record_packets = rec.record_packets
        slots = [
            _MasterSlot(
                mid, f"niu{mid}", self.masters[mid], self.initiators[mid],
                self.master_stats[mid],
            )
            for mid in self._master_order
        ]
        switches = list(self.switches.values())
        targets = [self.targets[tid] for tid in sorted(self.targets)]
        # masters whose program or NIU still has work; shrinks only in
        # phases 1 and 5, the only places a master or its NIU can finish
        unfinished = {s.mid for s in slots if not s.finished()}
        cycle = 0
        max_cycles = self.scenario.run.max_cycles
        while cycle < max_cycles and unfinished:
            # phase 1: masters
            for slot in slots:
                if slot.asleep:
                    continue
                master = slot.master
                mid = slot.mid
                offer = master.offer()
                if offer is None:
                    slot.asleep = True  # until a response is delivered to it
                    continue
                request, wait = offer
                niu = slot.niu
                entry = niu.try_accept(request, cycle)
                if entry is None:
                    slot.stall(cycle)
                    if not slot.stall_traced:
                        slot.stall_traced = True
                        rec.event(
                            cycle, slot.site, STALL,
                            master=mid, key=request.order_key.stream,
                            op=request.opcode.label, address=request.address,
                        )
                    continue
                master.accepted()
                slot.stall_traced = False
                if wait:  # offered nothing until this response is emitted
                    slot.asleep = True
                    slot.awaited = entry.seq
                slot.stats.issued += 1
                rec.event(
                    cycle, slot.site, REQ_ISSUED,
                    master=mid, key=entry.request.order_key.stream, tag=entry.tag,
                    op=request.opcode.label, address=request.address,
                )
                if slot.finished():
                    unfinished.discard(mid)

            # phase 2: initiator NIUs inject request flits
            for slot in slots:
                niu = slot.niu
                if (niu.flits is not None or niu.inject_queue) and niu.tx.can_send(cycle):
                    packet = niu.step_inject(cycle)
                    if packet is not None and record_packets:
                        packet_marker(cycle, slot.site, PKT_INJECTED, packet)

            # phase 3: switch planes move flits
            for sw in switches:
                if sw.wake_cycle <= cycle:
                    sw.step(cycle)

            # phase 4: target NIUs execute requests and send response flits
            for tgt in targets:
                if tgt.wake_cycle <= cycle:
                    tgt.step(cycle)

            # phase 5: response path back to the sockets
            for slot in slots:
                niu = slot.niu
                if niu.wake_cycle > cycle:
                    continue
                mid = slot.mid
                ms = slot.stats
                master = slot.master
                emissions = niu.step_egress(cycle)
                for entry, response, visible in emissions:
                    if visible:
                        ms.latencies.append(cycle - entry.issue_cycle)
                        rec.event(
                            cycle, slot.site, RESP_EMITTED,
                            master=mid, key=entry.request.order_key.stream, tag=entry.tag,
                            op=response.status.label, address=entry.request.address,
                        )
                    if entry.seq == slot.awaited:
                        slot.awaited = None
                    master.deliver(entry, response)
                if slot.asleep and slot.awaited is None and (
                    emissions or niu.pending.count < slot.stall_pending
                ):
                    slot.wake(cycle + 1)
                if emissions and slot.finished():
                    unfinished.discard(mid)

            cycle += 1

        for slot in slots:
            slot.wake(cycle)
        for sw in switches:
            sw.catch_up(cycle)
        timed_out = bool(unfinished)
        stuck: list[str] = []
        if timed_out:
            stuck = _stuck_report(slots)
        stats = self._collect_stats(cycle, timed_out)
        trace, rec.events = Trace(rec.events, rec.level), []
        return RunResult(
            memories={tid: bytes(t.memory) for tid, t in sorted(self.targets.items())},
            trace=trace,
            stats=stats,
            timed_out=timed_out,
            stuck=stuck,
        )

    def _collect_stats(self, cycles: int, timed_out: bool) -> Stats:
        stats = Stats(
            cycles=cycles,
            mode=self.mode.name.lower(),
            seed=self.scenario.run.seed,
            timed_out=timed_out,
            masters=self.master_stats,
        )
        for name, ch in sorted(self.channels.items()):
            stats.channels[name] = {
                "flits": ch.flits_sent,
                "min_credits": ch.min_seen,
                "depth": ch.depth,
            }
        for sw in self.switches.values():
            for _, out in sw.outputs:
                site = out.site
                if sw.kind is REQUEST and out.grants_by_input:
                    stats.switch_grants[site] = dict(sorted(out.grants_by_input.items()))
                if out.lock_stall_cycles or out.credit_stall_cycles:
                    stats.port_stalls[site] = {
                        "lock": out.lock_stall_cycles,
                        "credit": out.credit_stall_cycles,
                    }
        return stats


def _stuck_report(slots: list[_MasterSlot]) -> list[str]:
    """Each master's pending entries, then the offer it could not issue."""
    stuck = []
    for slot in slots:
        for entry in slot.niu.pending.all_entries():
            stuck.append(
                f"master {slot.mid} tag {entry.tag} {entry.request.opcode.name}"
                f"@{entry.request.address:#x} issued at cycle {entry.issue_cycle}"
            )
        offer = slot.master.offer() if slot.awaited is None else None
        if offer is not None:
            req = offer[0]
            stuck.append(f"master {slot.mid} blocked issuing {req.opcode.name}@{req.address:#x}")
    return stuck


def run(scenario: Scenario) -> RunResult:
    """Run one scenario to completion (or its cycle budget)."""
    return Engine(scenario).run()
