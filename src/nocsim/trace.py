"""Trace recording, projection, and post-run invariant checking.

A trace is a flat list of timestamped events. The export format is one
event per line, comma separated, in the field order of TraceEvent, with a
header line; empty cells stand for fields that do not apply to the event.

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
    cycle: int
    site: str
    kind: str
    master: int = -1
    key: str = ""
    tag: int = -1
    op: str = ""
    address: int = -1

    def csv_line(self) -> str:
        return ",".join(
            (
                str(self.cycle),
                self.site,
                self.kind,
                "" if self.master < 0 else str(self.master),
                self.key,
                "" if self.tag < 0 else str(self.tag),
                self.op,
                "" if self.address < 0 else str(self.address),
            )
        )


class Trace:
    """Ordered event log of one run."""

    def __init__(self, events: Optional[list[TraceEvent]] = None):
        self.events: list[TraceEvent] = events if events is not None else []

    def __iter__(self):
        return iter(self.events)

    def __len__(self):
        return len(self.events)

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        lines.extend(ev.csv_line() for ev in self.events)
        return "\n".join(lines) + "\n"


class TraceRecorder:
    """Append-only event sink for one detail level.

    Callers consult ``record_packets`` (packet level and up) and
    ``record_hops`` (full level) before they record a packet event, so a
    level that drops an event costs no call and builds nothing for it.
    """

    def __init__(self, level: str = "packet"):
        if level not in TRACE_LEVELS:
            raise ValueError(f"unknown trace level {level!r}")
        rank = TRACE_LEVELS[level]
        self.record_packets = rank >= TRACE_LEVELS["packet"]
        self.record_hops = rank >= TRACE_LEVELS["full"]
        self.trace = Trace()

    def event(self, cycle, site, kind, master=-1, key="", tag=-1, op="", address=-1) -> None:
        self.trace.events.append(
            TraceEvent(cycle, site, kind, master, key, tag, op, address)
        )

    def packet_marker(self, cycle, site, kind, packet) -> None:
        """Record an event about one packet, read from its header fields."""
        self.trace.events.append(
            TraceEvent(
                cycle, site, kind, packet.src, "", packet.tag, packet.op.label,
                packet.dest.offset,
            )
        )


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
    for ev in trace.events:
        if ev.kind == REQ_ISSUED:
            issues.setdefault(ev.master, {}).setdefault(ev.key, []).append(
                (ev.op, ev.address)
            )
        elif ev.kind == RESP_EMITTED:
            resp_status.setdefault(ev.master, {}).setdefault(ev.key, []).append(ev.op)
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

    Runs in time linear in the trace length: each check walks the events
    once, and only the streams, tags and granules it reports on are sorted.
    """
    violations: list[str] = []
    violations.extend(_check_streams(trace))
    violations.extend(_check_tag_liveness(trace))
    violations.extend(_check_lock_windows(trace))
    violations.extend(_check_exclusive_safety(trace))
    if stats is not None:
        for name, ch in sorted(stats.channels.items()):
            if not 0 <= ch["min_credits"] <= ch["depth"]:
                violations.append(
                    f"credit bounds violated on {name}: min {ch['min_credits']}"
                )
    return violations


def _check_streams(trace: Trace) -> list[str]:
    violations = []
    issues: dict[tuple[int, str], list[TraceEvent]] = {}
    resps: dict[tuple[int, str], list[TraceEvent]] = {}
    for ev in trace.events:
        if ev.kind == REQ_ISSUED:
            issues.setdefault((ev.master, ev.key), []).append(ev)
        elif ev.kind == RESP_EMITTED:
            resps.setdefault((ev.master, ev.key), []).append(ev)
    for stream, rlist in sorted(resps.items()):
        if stream not in issues:
            violations.append(
                f"conservation violation: response without request for master "
                f"{stream[0]} stream {stream[1]}"
            )
    for stream, ilist in sorted(issues.items()):
        expected = [ev for ev in ilist if ev.op != _POSTED_NAME]
        got = resps.get(stream, [])
        for i, (req, resp) in enumerate(zip(expected, got)):
            if (req.address, req.tag) != (resp.address, resp.tag):
                violations.append(
                    "stream order violation: master "
                    f"{stream[0]} stream {stream[1]} position {i}: issued "
                    f"{req.op}@{req.address} tag {req.tag} at cycle {req.cycle}, "
                    f"emitted {resp.op}@{resp.address} tag {resp.tag} at cycle {resp.cycle}"
                )
                break
        if len(got) > len(expected):
            violations.append(
                f"conservation violation: {len(got) - len(expected)} extra "
                f"response(s) for master {stream[0]} stream {stream[1]}"
            )
        elif len(got) < len(expected):
            violations.append(
                f"conservation violation: {len(expected) - len(got)} request(s) "
                f"without response for master {stream[0]} stream {stream[1]}"
            )
    return violations


def _check_tag_liveness(trace: Trace) -> list[str]:
    """Packets observed in the fabric must belong to a live (master, tag).

    A tag's live window opens at its REQ_ISSUED and closes at the
    RESP_EMITTED that answers it; responses are matched to requests in
    issue order per (master, ordering stream). A posted store has no
    response, so its window stays open to the end of the trace. Reports,
    per sorted (master, tag), each two consecutive windows of different
    streams that overlap ("live twice"), then each packet event whose
    (master, tag) has no open window ("dead tag"), in trace order.

    Known limitation: at packet/full trace level this reports false "live
    twice" violations for masters that pool tags across streams. A posted
    store's window never closes, so a later request that reuses its tag
    overlaps it; and a response held by the release gate is emitted after
    the NIU has already freed and reused its tag. Telling these apart from
    real double use needs a trace event at tag release.
    """
    events = trace.events
    # a transaction-level trace has no packet events: nothing to audit
    if not any(ev.kind in (PKT_INJECTED, PKT_DELIVERED) for ev in events):
        return []
    end_of_trace = len(events)
    # live windows per (master, tag): [issue_idx, close_idx, stream key]
    windows: dict[tuple[int, int], list[list]] = {}
    open_count: dict[tuple[int, int], int] = {}
    # per (master, stream): (tag, window) of each request awaiting its response
    awaiting: dict[tuple[int, str], deque[tuple[int, list]]] = {}
    dead = []
    for idx, ev in enumerate(events):
        kind = ev.kind
        if kind == REQ_ISSUED:
            if ev.tag >= 0:
                mt = (ev.master, ev.tag)
                window = [idx, end_of_trace, ev.key]
                windows.setdefault(mt, []).append(window)
                open_count[mt] = open_count.get(mt, 0) + 1
                if ev.op != _POSTED_NAME:
                    awaiting.setdefault((ev.master, ev.key), deque()).append((ev.tag, window))
        elif kind == RESP_EMITTED:
            if ev.tag >= 0:
                pending = awaiting.get((ev.master, ev.key))
                if pending:
                    tag, window = pending.popleft()
                    window[1] = idx
                    open_count[(ev.master, tag)] -= 1
        elif kind == PKT_INJECTED or kind == PKT_DELIVERED:
            if ev.master >= 0 and ev.tag >= 0 and not open_count.get((ev.master, ev.tag)):
                dead.append(
                    f"tag liveness violation: packet event at cycle {ev.cycle} "
                    f"site {ev.site} carries dead tag {ev.tag} of master {ev.master}"
                )
    violations = []
    for mt, ws in sorted(windows.items()):
        for w1, w2 in zip(ws, ws[1:]):
            if w2[0] < w1[1] and w1[2] != w2[2]:
                violations.append(
                    f"tag liveness violation: master {mt[0]} tag {mt[1]} live "
                    f"twice (streams {w1[2]} and {w2[2]})"
                )
    violations.extend(dead)
    return violations


def _check_lock_windows(trace: Trace) -> list[str]:
    violations = []
    owner_at: dict[str, Optional[int]] = {}
    window_start: dict[str, int] = {}
    for ev in trace.events:
        if ev.kind == LOCK_SET:
            owner_at[ev.site] = ev.master
            window_start[ev.site] = ev.cycle
        elif ev.kind == LOCK_CLEARED:
            owner_at[ev.site] = None
        elif ev.kind == PKT_DELIVERED and ev.site in owner_at:
            owner = owner_at[ev.site]
            if owner is not None and ev.master != owner:
                violations.append(
                    f"lock violation: packet of master {ev.master} crossed "
                    f"{ev.site} at cycle {ev.cycle} while locked by {owner} "
                    f"since cycle {window_start[ev.site]}"
                )
    return violations


def _check_exclusive_safety(trace: Trace) -> list[str]:
    """Between consecutive exclusive-store wins on a granule, the second
    winner must have armed its monitor after the first win.

    A win is a MONITOR_CLEARED whose acting master owns the monitor. One
    walk keeps the last win per (site, granule) and the last MONITOR_ARMED
    per (site, granule, master); violations are reported grouped by sorted
    (site, granule), in win order within each.
    """
    last_win: dict[tuple[str, int], tuple[int, int]] = {}
    last_arm: dict[tuple[str, int, int], int] = {}
    found: dict[tuple[str, int], list[str]] = {}
    for idx, ev in enumerate(trace.events):
        if ev.kind == MONITOR_ARMED:
            last_arm[(ev.site, ev.address, ev.master)] = idx
        elif ev.kind == MONITOR_CLEARED and ev.master == ev.tag:
            granule = (ev.site, ev.address)
            prev = last_win.get(granule)
            if prev is not None and last_arm.get((ev.site, ev.address, ev.master), -1) < prev[0]:
                found.setdefault(granule, []).append(
                    f"exclusive safety violation at {ev.site} granule {ev.address:#x}: "
                    f"master {ev.master} won without re-arming after master {prev[1]}'s win"
                )
            last_win[granule] = (idx, ev.master)
    return [v for granule in sorted(found) for v in found[granule]]


# ---------------------------------------------------------------------------
# Stats
# ---------------------------------------------------------------------------

@dataclass
class MasterStats:
    issued: int = 0
    completed: int = 0
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
    completed_transactions: int = 0
    timed_out: bool = False
    masters: dict[int, MasterStats] = field(default_factory=dict)
    channels: dict[str, dict] = field(default_factory=dict)
    switch_grants: dict[str, dict[int, int]] = field(default_factory=dict)
    port_stalls: dict[str, dict[str, int]] = field(default_factory=dict)

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
            lines.append(f"master.{mid}.completed = {ms.completed}")
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
