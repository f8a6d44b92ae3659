"""Trace recording, projection, and post-run invariant checking.

A trace is a flat list of timestamped events, each a plain tuple in the
field order of TraceEvent, which the cyclic collector untracks the first
time it sees it: a kept trace adds nothing to later collections.
Iterating a Trace yields named TraceEvent views. The export format is one
event per line, comma separated, in the same field order, with a header
line; empty cells stand for fields that do not apply to the event.

Detail levels nest: "transaction" records socket-level events plus lock and
monitor activity, "packet" adds packet injection/delivery at NIUs, "full"
adds per-switch-port packet deliveries (needed to audit lock windows).

Monitor events overload two fields, documented here once: `master` is the
monitor's owner and `tag` is the acting master whose access caused the
event; `address` is the granule base offset within the target.
"""

from __future__ import annotations

import statistics
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .transaction import Opcode

# Event kinds.
REQ_ISSUED = "REQ_ISSUED"
PKT_INJECTED = "PKT_INJECTED"
PKT_DELIVERED = "PKT_DELIVERED"
RESP_EMITTED = "RESP_EMITTED"
LOCK_SET = "LOCK_SET"
LOCK_CLEARED = "LOCK_CLEARED"
MONITOR_ARMED = "MONITOR_ARMED"
MONITOR_CLEARED = "MONITOR_CLEARED"
STALL = "STALL"

TRACE_LEVELS = {"transaction": 0, "packet": 1, "full": 2}

CSV_HEADER = "cycle,site,kind,master,order_key,tag,op,address"


class TraceEvent(NamedTuple):
    """The names of a trace event's fields, in the column order of the CSV
    export. ``Trace`` stores each event as a plain tuple in this order;
    tests/test_field_order.py pins it.
    """

    cycle: int
    site: str
    kind: str
    master: int = -1
    key: str = ""
    tag: int = -1
    op: str = ""
    address: int = -1


class Trace:
    """Ordered event log of one run, recorded at detail level ``level``.

    The run appends to it with ``event`` and ``packet_marker``. Callers
    consult ``record_packets`` (packet level and up) and ``record_hops``
    (full level) before they record a packet event, so a level that drops an
    event costs no call and builds nothing for it. A hand-built trace is
    taken to be at "full" level, so the audit assumes it may hold packet
    events.
    """

    def __init__(self, events: Optional[list[tuple]] = None, level: str = "full"):
        self.events: list[tuple] = events if events is not None else []
        self.level = level
        rank = TRACE_LEVELS[level]  # a level RunSpec accepted
        self.record_packets = rank >= TRACE_LEVELS["packet"]
        self.record_hops = rank >= TRACE_LEVELS["full"]

    def __iter__(self):
        return map(TraceEvent._make, self.events)

    def __len__(self):
        return len(self.events)

    def event(self, cycle, site, kind, master=-1, key="", tag=-1, op="", address=-1) -> None:
        self.events.append((cycle, site, kind, master, key, tag, op, address))

    def packet_marker(self, cycle, site, kind, packet) -> None:
        """Record an event about one packet, read from its header fields."""
        self.events.append((cycle, site, kind, packet.src, "", packet.tag, packet.op.label,
                            packet.dest.offset))

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        lines.extend(
            f"{cycle},{site},{kind},{'' if master < 0 else master},{key},"
            f"{'' if tag < 0 else tag},{op},{'' if address < 0 else address}"
            for cycle, site, kind, master, key, tag, op, address in self.events
        )
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Transaction projection
# ---------------------------------------------------------------------------

# the trace name of the one opcode that gets no response (``needs_response``)
_POSTED_NAME = Opcode.STORE_POSTED.name


def transaction_projection(trace: Trace) -> dict[int, dict[str, list[tuple]]]:
    """Reduce a trace to its transaction-level content.

    Only REQ_ISSUED and RESP_EMITTED events survive; all transport and
    timing detail is discarded. Per master and per ordering stream, the
    result lists (order_key, opcode, address, status) in issue order, with
    each transaction's status joined from its response. Responses within a
    stream emit in issue order, so the join is positional; completion order
    across independent streams is a timing artifact and deliberately does
    not appear.
    """
    issues: dict[int, dict[str, list]] = {}
    resp_status: dict[int, dict[str, list[str]]] = {}
    for _, _, kind, master, key, _, op, address in trace.events:
        if kind == REQ_ISSUED:
            issues.setdefault(master, {}).setdefault(key, []).append((op, address))
        elif kind == RESP_EMITTED:
            resp_status.setdefault(master, {}).setdefault(key, []).append(op)
    projection: dict[int, dict[str, list[tuple]]] = {}
    for master in sorted(issues):
        projection[master] = {}
        for key in sorted(issues[master]):
            statuses = resp_status.get(master, {}).get(key, [])
            joined = []
            ri = 0
            for op, address in issues[master][key]:
                if op != _POSTED_NAME:
                    status = statuses[ri] if ri < len(statuses) else ""
                    ri += 1
                else:
                    status = ""
                joined.append((key, op, address, status))
            projection[master][key] = joined
    return projection


def projection_text(projection: dict[int, dict[str, list[tuple]]]) -> str:
    """Canonical byte-comparable form of a projection."""
    lines = []
    for master in sorted(projection):
        for key in sorted(projection[master]):
            for i, (k, op, address, status) in enumerate(projection[master][key]):
                lines.append(f"{master},{k},{i},{op},{address},{status}")
    return "\n".join(lines) + "\n"


def compare_projections(a, b) -> Optional[str]:
    """None when equal, else a message naming the first divergence."""
    la, lb = projection_text(a).splitlines(), projection_text(b).splitlines()
    for i, (ra, rb) in enumerate(zip(la, lb)):
        if ra != rb:
            return f"projections diverge at row {i}: {ra!r} vs {rb!r}"
    if len(la) != len(lb):
        i = min(len(la), len(lb))
        longer = la if len(la) > len(lb) else lb
        return f"projections diverge at row {i}: only one side has {longer[i]!r}"
    return None


# ---------------------------------------------------------------------------
# Post-run invariant checks
# ---------------------------------------------------------------------------

def check_invariants(trace: Trace, scenario=None, stats: Optional["Stats"] = None) -> list[str]:
    """Audit a completed run's trace; returns the list of violations found.

    Checks per-stream response ordering, response conservation, tag
    liveness, lock window mutual exclusion, and exclusive-access safety.
    Credit bounds are audited from the run's channel telemetry when stats
    are supplied (the trace itself carries no flit-level events).
    ``scenario`` is accepted for callers that pass it and is not read.

    One walk over the events checks everything, at every trace level; time
    is linear in the trace length, and only the streams, tags and granules
    reported on are sorted. Violations are listed by check: streams, tag
    liveness, locks, exclusive safety, credit bounds.

    Tag liveness: a tag's live window opens at its REQ_ISSUED and closes at
    the RESP_EMITTED that answers it; responses are matched to requests in
    issue order per (master, ordering stream). A posted store has no
    response, so its window stays open to the end of the trace. Two
    consecutive windows of one (master, tag) overlap exactly when the older
    one is still open as the newer one opens, so the walk reports, per
    sorted (master, tag), each tag issued on one stream while its newest
    window is open on another ("live twice"), then each packet event whose
    (master, tag) has no open window ("dead tag"), in trace order. Both are
    reported only for a trace that holds a packet event, and windows are
    tracked only for a trace that can hold one: not for one recorded at
    transaction level.

    Known limitation: at packet/full trace level this reports false "live
    twice" violations for masters that pool tags across streams. A posted
    store's window never closes, so a later request that reuses its tag
    overlaps it; and a response held by the release gate is emitted after
    the NIU has already freed and reused its tag. Telling these apart from
    real double use needs a trace event at tag release.
    """
    # per (master, stream): [first mismatch, issued, (master, tag) and window
    # of each tagged request awaiting its response, index of the oldest
    # unmatched event, then each event in the pairing]; a stream's non-posted
    # requests and its responses pair by position, whichever comes first. The
    # deque of awaited requests is built only when ``track`` is set, so a
    # transaction-level audit builds few objects the collector counts. A
    # paired event is read by position: [2] kind, [5] tag, [7] address.
    streams: dict[tuple[int, str], list] = {}
    track = trace.level != "transaction"  # such a trace holds no packet events
    open_windows: dict[tuple[int, int], int] = {}  # (master, tag) -> open windows
    newest: dict[tuple[int, int], list] = {}  # (master, tag) -> [stream, open]
    twice: dict[tuple[int, int], list[str]] = {}
    dead = []
    locked: dict[str, tuple[int, int]] = {}  # site -> (owner, cycle locked)
    locks = []
    # last win per (site, granule), last MONITOR_ARMED per (site, granule,
    # master), each numbered by its place among arms and wins
    monitor_events = 0
    last_win: dict[tuple[str, int], tuple[int, int]] = {}
    last_arm: dict[tuple[str, int, int], int] = {}
    exclusive: dict[tuple[str, int], list[str]] = {}
    packets = False
    for ev in trace.events:
        cycle, site, kind, master, key, tag, op, address = ev
        if kind == STALL:
            continue
        if kind == REQ_ISSUED or kind == RESP_EMITTED:
            state = streams.get((master, key))
            if state is None:
                state = streams[(master, key)] = ["", False, deque() if track else None, 4]
            if kind == REQ_ISSUED:
                state[1] = True
                if track and tag >= 0:
                    mt = (master, tag)
                    window = newest.get(mt)
                    if window is not None and window[1] and window[0] != key:
                        twice.setdefault(mt, []).append(
                            f"tag liveness violation: master {master} tag {tag} live "
                            f"twice (streams {window[0]} and {key})"
                        )
                    window = newest[mt] = [key, True]
                    open_windows[mt] = open_windows.get(mt, 0) + 1
                    if op != _POSTED_NAME:
                        state[2].append((mt, window))
                if op == _POSTED_NAME:
                    continue
            elif track and tag >= 0 and state[2]:
                mt, window = state[2].popleft()
                window[1] = False
                open_windows[mt] -= 1
            head = state[3]
            if head == len(state) or state[head][2] == kind:
                state.append(ev)
                continue
            other = state[head]
            state[3] = head + 1
            if not state[0] and (other[7] != address or other[5] != tag):
                pair = (ev, other) if kind == REQ_ISSUED else (other, ev)
                req, resp = map(TraceEvent._make, pair)
                state[0] = (
                    f"stream order violation: master {master} stream {key} "
                    f"position {head - 4}: issued {req.op}@{req.address} tag {req.tag} "
                    f"at cycle {req.cycle}, emitted {resp.op}@{resp.address} tag "
                    f"{resp.tag} at cycle {resp.cycle}"
                )
        elif kind == PKT_DELIVERED or kind == PKT_INJECTED:
            packets = True
            if not open_windows.get((master, tag)) and master >= 0 and tag >= 0:
                dead.append(
                    f"tag liveness violation: packet event at cycle {cycle} "
                    f"site {site} carries dead tag {tag} of master {master}"
                )
            if locked and kind == PKT_DELIVERED:
                held = locked.get(site)
                if held is not None and master != held[0]:
                    locks.append(
                        f"lock violation: packet of master {master} crossed "
                        f"{site} at cycle {cycle} while locked by {held[0]} "
                        f"since cycle {held[1]}"
                    )
        elif kind == LOCK_SET:
            locked[site] = (master, cycle)
        elif kind == LOCK_CLEARED:
            locked.pop(site, None)
        elif kind == MONITOR_ARMED:
            monitor_events += 1
            last_arm[(site, address, master)] = monitor_events
        elif kind == MONITOR_CLEARED and master == tag:
            # a win: the acting master owns the monitor; between two wins on
            # a granule the second winner must have armed after the first
            monitor_events += 1
            granule = (site, address)
            prev = last_win.get(granule)
            if prev is not None and last_arm.get((site, address, master), -1) < prev[0]:
                exclusive.setdefault(granule, []).append(
                    f"exclusive safety violation at {site} granule {address:#x}: "
                    f"master {master} won without re-arming after master {prev[1]}'s win"
                )
            last_win[granule] = (monitor_events, master)
    ordered = sorted(streams)
    violations = [
        f"conservation violation: response without request for master {m} stream {k}"
        for m, k in ordered if not streams[(m, k)][1]
    ]
    for m, k in ordered:
        mismatch, issued, _, head, *paired = streams[(m, k)]
        ahead = paired[head - 4:]
        if not issued:
            continue
        if mismatch:
            violations.append(mismatch)
        if ahead and ahead[0][2] == RESP_EMITTED:
            violations.append(
                f"conservation violation: {len(ahead)} extra "
                f"response(s) for master {m} stream {k}"
            )
        elif ahead:
            violations.append(
                f"conservation violation: {len(ahead)} request(s) "
                f"without response for master {m} stream {k}"
            )
    if packets and track:
        violations.extend(v for mt in sorted(twice) for v in twice[mt])
        violations.extend(dead)
    violations.extend(locks)
    violations.extend(v for granule in sorted(exclusive) for v in exclusive[granule])
    if stats is not None:
        for name, ch in sorted(stats.channels.items()):
            if not 0 <= ch["min_credits"] <= ch["depth"]:
                violations.append(
                    f"credit bounds violated on {name}: min {ch['min_credits']}"
                )
    return violations


# ---------------------------------------------------------------------------
# Stats
# ---------------------------------------------------------------------------

@dataclass
class MasterStats:
    issued: int = 0
    tag_stall_cycles: int = 0
    latencies: list[int] = field(default_factory=list)

    def summary(self) -> dict[str, float]:
        if not self.latencies:
            return {"latency_min": 0, "latency_mean": 0.0, "latency_max": 0}
        return {
            "latency_min": min(self.latencies),
            "latency_mean": round(statistics.fmean(self.latencies), 3),
            "latency_max": max(self.latencies),
        }


@dataclass
class Stats:
    cycles: int = 0
    mode: str = ""
    seed: int = 0
    workload_rng: str = "python-random-mt19937"
    timed_out: bool = False
    masters: dict[int, MasterStats] = field(default_factory=dict)
    channels: dict[str, dict] = field(default_factory=dict)
    switch_grants: dict[str, dict[int, int]] = field(default_factory=dict)
    port_stalls: dict[str, dict[str, int]] = field(default_factory=dict)

    @property
    def completed_transactions(self) -> int:
        return sum(len(ms.latencies) for ms in self.masters.values())

    def to_text(self) -> str:
        lines = [
            f"cycles = {self.cycles}",
            f"mode = {self.mode}",
            f"seed = {self.seed}",
            f"workload_rng = {self.workload_rng}",
            f"completed_transactions = {self.completed_transactions}",
            f"timed_out = {str(self.timed_out).lower()}",
        ]
        for mid in sorted(self.masters):
            ms = self.masters[mid]
            lines.append(f"master.{mid}.issued = {ms.issued}")
            lines.append(f"master.{mid}.completed = {len(ms.latencies)}")
            lines.append(f"master.{mid}.tag_stall_cycles = {ms.tag_stall_cycles}")
            for k, v in ms.summary().items():
                lines.append(f"master.{mid}.{k} = {v}")
        cycles = max(self.cycles, 1)
        for name in sorted(self.channels):
            ch = self.channels[name]
            lines.append(f"link.{name}.flits = {ch['flits']}")
            lines.append(f"link.{name}.utilization = {round(ch['flits'] / cycles, 4)}")
            lines.append(f"link.{name}.min_credits = {ch['min_credits']}")
        for site in sorted(self.switch_grants):
            for port, count in sorted(self.switch_grants[site].items()):
                lines.append(f"grants.{site}.in{port} = {count}")
        for site in sorted(self.port_stalls):
            for kind, count in sorted(self.port_stalls[site].items()):
                lines.append(f"stalls.{site}.{kind} = {count}")
        return "\n".join(lines) + "\n"
