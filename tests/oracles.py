"""Independent reference oracles for the test suite.

Everything here re-derives expected behavior from first principles
(recurrences, exhaustive enumeration, reference state machines) and shares
no code with the simulator, so a test passing means two independent
derivations agree.
"""

from __future__ import annotations

import itertools


# ---------------------------------------------------------------------------
# Flit pipeline timing
# ---------------------------------------------------------------------------

def pipeline_times(n_flits: int, hops: list[tuple[int, int]], saf: bool, start: int = 0):
    """Send/arrival cycles for one packet crossing a chain of hops.

    hops: (latency, rate_ratio) per channel, source first. Stage 0 is the
    injecting NIU (all flits available at `start`); every later stage is a
    switch that may forward a flit the same cycle it arrives. Wormhole
    forwards per flit; store-and-forward waits for the whole packet at each
    intermediate stage. Returns (send, arrive) matrices indexed [hop][flit].
    """
    n_hops = len(hops)
    send = [[0] * n_flits for _ in range(n_hops)]
    arrive = [[0] * n_flits for _ in range(n_hops)]
    for j, (latency, rate) in enumerate(hops):
        for k in range(n_flits):
            if j == 0:
                ready = start
            elif saf:
                ready = arrive[j - 1][n_flits - 1]
            else:
                ready = arrive[j - 1][k]
            if k > 0:
                ready = max(ready, send[j][k - 1] + rate)
            send[j][k] = ready
            arrive[j][k] = ready + 1 + latency
    return send, arrive


def round_trip_emission_cycle(
    req_flits: int, resp_flits: int, hops: list[tuple[int, int]], saf: bool
) -> int:
    """Cycle a single transaction's response is emitted at the socket.

    The target turns the request around the cycle its tail arrives; the
    initiator emits the cycle the response tail arrives.
    """
    _, arrive = pipeline_times(req_flits, hops, saf, start=0)
    request_done = arrive[-1][req_flits - 1]
    _, arrive = pipeline_times(resp_flits, list(reversed(hops)), saf, start=request_done)
    return arrive[-1][resp_flits - 1]


# ---------------------------------------------------------------------------
# Exclusive-monitor reference machine
# ---------------------------------------------------------------------------

def interleavings(*sequences):
    """Every merge of the given sequences that preserves each one's order."""
    if all(not s for s in sequences):
        yield []
        return
    for i, seq in enumerate(sequences):
        if not seq:
            continue
        rest = sequences[:i] + (seq[1:],) + sequences[i + 1 :]
        for tail in interleavings(*rest):
            yield [seq[0]] + tail


def run_exclusive_reference(ops: list[tuple[int, str]]) -> tuple[int, int]:
    """Replay (master, 'ldex'|'stex') ops against reference monitor semantics.

    Returns (final counter, successful stores). The atomicity property under
    test: the counter equals the number of successes, i.e. no lost updates,
    for every interleaving.
    """
    counter = 0
    loaded: dict[int, int] = {}
    armed: set[int] = set()
    successes = 0
    for master, op in ops:
        if op == "ldex":
            loaded[master] = counter
            armed.add(master)
        elif op == "stex":
            if master in armed:
                counter = loaded[master] + 1
                armed.clear()  # own success consumes; others' granule overlaps
                successes += 1
        else:
            raise ValueError(op)
    return counter, successes


# ---------------------------------------------------------------------------
# Release-order reference
# ---------------------------------------------------------------------------

def emission_reference(issued: list[tuple[int, object]], completion_order: list[int]) -> list[int]:
    """Expected emission order: streams release their completed prefix.

    `issued` pairs (seq, stream identity) in issue order. Only the stream of
    the transaction that just completed can release anything new, so the
    emission order is fully determined.
    """
    queues: dict[object, list[int]] = {}
    stream_of: dict[int, object] = {}
    for seq, stream in issued:
        queues.setdefault(stream, []).append(seq)
        stream_of[seq] = stream
    done: set[int] = set()
    out: list[int] = []
    for completed in completion_order:
        done.add(completed)
        q = queues[stream_of[completed]]
        while q and q[0] in done:
            out.append(q.pop(0))
    return out


def all_completion_orders(seqs: list[int]):
    return itertools.permutations(seqs)


# ---------------------------------------------------------------------------
# Graph distances (for route checking)
# ---------------------------------------------------------------------------

def bfs_distances(adjacency: dict[int, list[int]], start: int) -> dict[int, int]:
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for node in frontier:
            for other in adjacency[node]:
                if other not in dist:
                    dist[other] = dist[node] + 1
                    nxt.append(other)
        frontier = nxt
    return dist


# ---------------------------------------------------------------------------
# Post-run audit references: one walk per check, tag liveness and exclusive
# safety quadratic, by definition
# ---------------------------------------------------------------------------

def tag_liveness_reference(events) -> list[str]:
    """Tag-liveness audit straight from its definition.

    Windows run from a REQ_ISSUED to the RESP_EMITTED matched to it in issue
    order per (master, stream), or to the end of the trace; every packet
    event is checked against every window of its (master, tag).
    """
    if not any(ev.kind in ("PKT_INJECTED", "PKT_DELIVERED") for ev in events):
        return []
    windows = {}  # (master, tag) -> [[start, end, key], ...]
    pending = {}  # (master, key) -> [(tag, start), ...]
    for idx, ev in enumerate(events):
        if ev.kind == "REQ_ISSUED" and ev.tag >= 0:
            windows.setdefault((ev.master, ev.tag), []).append([idx, len(events), ev.key])
            if ev.op != "STORE_POSTED":
                pending.setdefault((ev.master, ev.key), []).append((ev.tag, idx))
        elif ev.kind == "RESP_EMITTED" and ev.tag >= 0 and pending.get((ev.master, ev.key)):
            tag, start = pending[(ev.master, ev.key)].pop(0)
            for w in windows[(ev.master, tag)]:
                if w[0] == start:
                    w[1] = idx
    out = []
    for (master, tag), ws in sorted(windows.items()):
        for a, b in zip(ws, ws[1:]):
            if b[0] < a[1] and a[2] != b[2]:
                out.append(
                    f"tag liveness violation: master {master} tag {tag} live "
                    f"twice (streams {a[2]} and {b[2]})"
                )
    for idx, ev in enumerate(events):
        if ev.kind in ("PKT_INJECTED", "PKT_DELIVERED") and ev.master >= 0 and ev.tag >= 0:
            if not any(s <= idx <= e for s, e, _ in windows.get((ev.master, ev.tag), [])):
                out.append(
                    f"tag liveness violation: packet event at cycle {ev.cycle} "
                    f"site {ev.site} carries dead tag {ev.tag} of master {ev.master}"
                )
    return out


def exclusive_safety_reference(events) -> list[str]:
    """Exclusive-safety audit straight from its definition: between two
    consecutive wins on a granule, the second winner armed in between."""
    by_granule = {}
    for idx, ev in enumerate(events):
        if ev.kind in ("MONITOR_ARMED", "MONITOR_CLEARED"):
            by_granule.setdefault((ev.site, ev.address), []).append((idx, ev))
    out = []
    for (site, granule), evs in sorted(by_granule.items(), key=lambda item: item[0]):
        wins = [(i, ev.master) for i, ev in evs
                if ev.kind == "MONITOR_CLEARED" and ev.master == ev.tag]
        for (i1, m1), (i2, m2) in zip(wins, wins[1:]):
            if not any(ev.kind == "MONITOR_ARMED" and ev.master == m2 and i1 < i < i2
                       for i, ev in evs):
                out.append(
                    f"exclusive safety violation at {site} granule {granule:#x}: "
                    f"master {m2} won without re-arming after master {m1}'s win"
                )
    return out


def stream_order_reference(events) -> list[str]:
    """Stream-order and conservation audit straight from its definition.

    Per sorted (master, stream), the i-th non-posted request pairs with the
    i-th response; reports responses on streams with no request, then per
    stream the first pair whose (address, tag) differ and the surplus of
    either side.
    """
    issues, resps = {}, {}
    for ev in events:
        if ev.kind == "REQ_ISSUED":
            issues.setdefault((ev.master, ev.key), []).append(ev)
        elif ev.kind == "RESP_EMITTED":
            resps.setdefault((ev.master, ev.key), []).append(ev)
    out = [
        f"conservation violation: response without request for master {master} "
        f"stream {key}"
        for master, key in sorted(resps) if (master, key) not in issues
    ]
    for (master, key), requests in sorted(issues.items()):
        expected = [ev for ev in requests if ev.op != "STORE_POSTED"]
        got = resps.get((master, key), [])
        for i, (req, resp) in enumerate(zip(expected, got)):
            if (req.address, req.tag) != (resp.address, resp.tag):
                out.append(
                    f"stream order violation: master {master} stream {key} position {i}: "
                    f"issued {req.op}@{req.address} tag {req.tag} at cycle {req.cycle}, "
                    f"emitted {resp.op}@{resp.address} tag {resp.tag} at cycle {resp.cycle}"
                )
                break
        if len(got) > len(expected):
            out.append(
                f"conservation violation: {len(got) - len(expected)} extra "
                f"response(s) for master {master} stream {key}"
            )
        elif len(got) < len(expected):
            out.append(
                f"conservation violation: {len(expected) - len(got)} request(s) "
                f"without response for master {master} stream {key}"
            )
    return out


def lock_window_reference(events) -> list[str]:
    """Lock-window audit: a packet delivered at a site between a LOCK_SET
    there and the next LOCK_CLEARED belongs to the lock's owner. Reported in
    trace order."""
    out = []
    owner_at, since = {}, {}
    for ev in events:
        if ev.kind == "LOCK_SET":
            owner_at[ev.site], since[ev.site] = ev.master, ev.cycle
        elif ev.kind == "LOCK_CLEARED":
            owner_at[ev.site] = None
        elif ev.kind == "PKT_DELIVERED" and owner_at.get(ev.site) is not None:
            if ev.master != owner_at[ev.site]:
                out.append(
                    f"lock violation: packet of master {ev.master} crossed "
                    f"{ev.site} at cycle {ev.cycle} while locked by {owner_at[ev.site]} "
                    f"since cycle {since[ev.site]}"
                )
    return out


# ---------------------------------------------------------------------------
# Random-program expansion reference
# ---------------------------------------------------------------------------

def reference_random_steps(
    family, rng, transactions, op_mix, address_ranges, burst_lens,
    beat_sizes, threads=2, txn_ids=4, max_bytes=64,
):
    """A random program's steps, drawn through the ``random.Random`` wrappers.

    The draw loop is the one ``generate_random_steps`` ran before it called
    ``random()`` and ``getrandbits()`` directly: ``choices`` for the opcode,
    ``choice`` for beat, burst and range, ``randrange`` for slot and stream,
    ``randbytes`` for store data. ``family`` is the socket family's name.
    Returns one (opcode name, address, burst, beat, stream, data,
    wait) tuple per step; stream is ("single",), ("thread", t) or
    ("txn", i, "READ" | "WRITE").
    """
    op_mix = dict(op_mix)  # a RandomProgram keeps (opcode, weight) pairs
    opcodes = sorted(op_mix, key=lambda o: o.name)
    cum_weights = list(itertools.accumulate(op_mix[o] for o in opcodes))
    choices, choice, randrange, randbytes = rng.choices, rng.choice, rng.randrange, rng.randbytes
    fitting = {beat: [b for b in burst_lens if b * beat <= max_bytes] for beat in beat_sizes}
    steps = []
    for _ in range(transactions):
        opcode = choices(opcodes, cum_weights=cum_weights)[0]
        beat = choice(beat_sizes)
        candidates = fitting[beat]
        burst = choice(candidates) if candidates else 1
        nbytes = burst * beat
        base, size = choice(address_ranges)
        slots = (size - nbytes) // beat + 1
        address = base + randrange(slots) * beat
        if family == "THREADED":
            stream = ("thread", randrange(threads))
        elif family == "ID_BASED":
            stream = ("txn", randrange(txn_ids), "READ" if opcode.name == "LOAD" else "WRITE")
        else:
            stream = ("single",)
        is_store = opcode.name in ("STORE", "STORE_POSTED")
        data = randbytes(nbytes) if is_store else b""
        steps.append((opcode.name, address, burst, beat, stream, data, False))
    return steps
