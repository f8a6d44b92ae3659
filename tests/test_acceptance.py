"""Acceptance suite: one test per acceptance criterion.

Each test prints a `[criterion N] ... PASS` line once its assertions hold,
so a full run reads as a checklist. The seeded random corpus is built once
per module and shared by the criteria that quantify over it.
"""

import random
from dataclasses import replace
from pathlib import Path

import pytest

from helpers import pooled, per_stream, req

import nocsim
from nocsim.engine import run
from nocsim.fabric import (
    ArbiterState,
    AttachmentSpec,
    Candidate,
    LinkSpec,
    RoutingTable,
    SwitchSpec,
    Topology,
    TransportMode,
    arbitrate,
    route,
)
from nocsim.link import LinkParams, deserialize, serialize
from nocsim.niu import (
    Endianness,
    InitiatorConfig,
    SocketFamily,
    TargetConfig,
    endianness_convert,
    response_release_order,
)
from nocsim.packet import LockMarker, Packet, PacketDest, PacketKind
from nocsim.scenario import (
    MasterSpec,
    RunSpec,
    Scenario,
    ScriptProgram,
    atomic_loop_scenario,
    load_scenario,
    random_scenario,
)
from nocsim.oracle import sequential_oracle
from nocsim.trace import (
    LOCK_CLEARED,
    LOCK_SET,
    REQ_ISSUED,
    RESP_EMITTED,
    check_invariants,
    projection_text,
    transaction_projection,
)
from nocsim.transaction import Channel, Opcode, SocketOrderKey, Status

N_CORPUS = 100
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
FAMILY_OF = {f.name: f for f in SocketFamily}


def _reorder_flags(trace, family_by_master):
    """Per family: did any master emit responses in a different cross-stream
    order than it issued the matching requests?"""
    issues, resps = {}, {}
    for e in trace:
        if e.kind == REQ_ISSUED and e.op != "STORE_POSTED":
            issues.setdefault(e.master, []).append(e.key)
        elif e.kind == RESP_EMITTED:
            resps.setdefault(e.master, []).append(e.key)
    flags = {}
    for master, issued_keys in issues.items():
        family = family_by_master[master]
        reordered = resps.get(master, []) != issued_keys
        flags[family] = flags.get(family, False) or reordered
    return flags


@pytest.fixture(scope="module")
def corpus():
    """100 seeded random scenarios run under both transport modes."""
    results = []
    reorders = {f: False for f in SocketFamily}
    for seed in range(N_CORPUS):
        scenario = random_scenario(seed)
        family_by_master = {m.master_id: m.niu.family for m in scenario.masters}
        legs = {}
        for mode in (TransportMode.WORMHOLE, TransportMode.STORE_AND_FORWARD):
            result = run(scenario.with_mode(mode))
            legs[mode] = {
                "timed_out": result.timed_out,
                "projection": projection_text(transaction_projection(result.trace)),
                "violations": check_invariants(result.trace, scenario, result.stats),
                "memories": result.memories,
            }
            for family, hit in _reorder_flags(result.trace, family_by_master).items():
                reorders[family] = reorders[family] or hit
        results.append(
            {
                "seed": seed,
                "masters": len(scenario.masters),
                "switches": len(scenario.topology.switches),
                "families": {m.niu.family for m in scenario.masters},
                "legs": legs,
            }
        )
    return {"results": results, "reorders": reorders}


def test_criterion_1_transport_mode_equivalence(corpus):
    results = corpus["results"]
    assert len(results) >= 100
    families_seen = set()
    for entry in results:
        assert 2 <= entry["masters"] <= 8
        assert 2 <= entry["switches"] <= 6
        families_seen |= entry["families"]
        wh = entry["legs"][TransportMode.WORMHOLE]
        sf = entry["legs"][TransportMode.STORE_AND_FORWARD]
        assert not wh["timed_out"] and not sf["timed_out"], entry["seed"]
        assert wh["projection"] == sf["projection"], (
            f"seed {entry['seed']}: projections differ between transport modes"
        )
    assert families_seen == set(SocketFamily)
    print(
        f"\n[criterion 1] transport-mode equivalence over {len(results)} "
        "seeded scenarios: PASS"
    )


def test_criterion_2_physical_independence():
    checked = 0
    for seed in range(20):
        scenario = random_scenario(1000 + seed, total_transactions=120)
        baseline = None
        for width in (4, 8, 16):
            for latency in (1, 3):
                for ratio in (1, 2):
                    params = LinkParams(width, latency, ratio)
                    result = run(scenario.with_link_params(params))
                    assert not result.timed_out
                    snap = (
                        projection_text(transaction_projection(result.trace)),
                        result.memories,
                    )
                    if baseline is None:
                        baseline = snap
                    else:
                        assert snap[0] == baseline[0], (seed, params)
                        assert snap[1] == baseline[1], (seed, params)
        checked += 1
    print(
        f"\n[criterion 2] physical independence over {checked} scenarios x "
        "12 link configurations: PASS"
    )


def _random_keys(rng, family, n):
    if family is SocketFamily.FULLY_ORDERED:
        return [SocketOrderKey.single() for _ in range(n)]
    if family is SocketFamily.THREADED:
        return [SocketOrderKey.thread(rng.randrange(3)) for _ in range(n)]
    return [
        SocketOrderKey.txn(rng.randrange(3), rng.choice(list(Channel)))
        for _ in range(n)
    ]


def _two_target_scenario(family, policy, keys_and_addresses):
    """One master, near target (same switch) and far target (3 switches away);
    used to demonstrate cross-stream response reordering at system level."""
    topology = Topology(
        switches=[SwitchSpec(0, 3), SwitchSpec(1, 2), SwitchSpec(2, 2)],
        links=[LinkSpec(0, 1, 1, 0), LinkSpec(1, 1, 2, 0)],
        attachments=[
            AttachmentSpec(0, 0, 0),
            AttachmentSpec(100, 0, 2),  # near
            AttachmentSpec(101, 2, 1),  # far
        ],
    )
    steps = [
        (req(0, Opcode.LOAD, addr, beats=beats, key=key), False)
        for key, addr, beats in keys_and_addresses
    ]
    return Scenario(
        run=RunSpec(trace_level="transaction"),
        topology=topology,
        targets=[
            TargetConfig(100, region_base=0, region_size=4096),
            TargetConfig(101, region_base=0x10000, region_size=4096),
        ],
        masters=[
            MasterSpec(
                niu=InitiatorConfig(0, family, policy),
                program=ScriptProgram(steps),
            )
        ],
    )


def test_criterion_3_ordering_model_conformance(corpus):
    rng = random.Random(0xC3)
    trials_per_family = 1000
    for family in SocketFamily:
        cross_stream_reorders = 0
        for _ in range(trials_per_family):
            n = rng.randrange(2, 9)
            keys = _random_keys(rng, family, n)
            issued = list(enumerate(keys))
            completions = list(range(n))
            rng.shuffle(completions)
            emitted = response_release_order(issued, completions)
            assert sorted(emitted) == list(range(n))
            for stream in {k.stream for k in keys}:
                in_issue = [s for s, k in issued if k.stream == stream]
                in_emit = [s for s in emitted if keys[s].stream == stream]
                assert in_issue == in_emit, (family, stream)
            if family is SocketFamily.FULLY_ORDERED:
                assert emitted == list(range(n))
            elif emitted != list(range(n)):
                cross_stream_reorders += 1
        if family is not SocketFamily.FULLY_ORDERED:
            assert cross_stream_reorders > 0, family

    # system-level non-vacuity: a threaded and an ID-based master each emit
    # cross-stream responses out of issue order in at least one scenario
    far, near = 0x10000, 0x0
    threaded = _two_target_scenario(
        SocketFamily.THREADED,
        per_stream(2),
        [(SocketOrderKey.thread(0), far, 8), (SocketOrderKey.thread(1), near, 1)],
    )
    r = run(threaded)
    emitted = [e.key for e in r.trace if e.kind == RESP_EMITTED]
    assert emitted == ["thread:1", "thread:0"]

    id_based = _two_target_scenario(
        SocketFamily.ID_BASED,
        per_stream(4),
        [
            (SocketOrderKey.txn(0, Channel.READ), far, 8),
            (SocketOrderKey.txn(1, Channel.READ), near, 1),
        ],
    )
    r = run(id_based)
    emitted = [e.key for e in r.trace if e.kind == RESP_EMITTED]
    assert emitted == ["txnid:1:READ", "txnid:0:READ"]

    # and the same shape under a fully-ordered socket must NOT reorder
    ordered = _two_target_scenario(
        SocketFamily.FULLY_ORDERED,
        pooled(4),
        [(SocketOrderKey.single(), far, 8), (SocketOrderKey.single(), near, 1)],
    )
    r = run(ordered)
    emitted = [e.address for e in r.trace if e.kind == RESP_EMITTED]
    assert emitted == [far, near]

    # the random corpus exercised reordering naturally as well
    assert corpus["reorders"][SocketFamily.THREADED]
    assert corpus["reorders"][SocketFamily.ID_BASED]
    assert not corpus["reorders"][SocketFamily.FULLY_ORDERED]
    print(
        f"\n[criterion 3] ordering conformance, {trials_per_family} interleavings "
        "per family plus system-level reordering non-vacuity: PASS"
    )


def test_criterion_4_exclusive_access_atomicity():
    for n_masters, iterations in ((2, 50), (4, 50), (8, 50)):
        scenario = atomic_loop_scenario("exclusive", n_masters=n_masters, iterations=iterations)
        result = run(scenario)
        assert not result.timed_out
        counter = int.from_bytes(result.memories[100][64:68], "little")
        assert counter == n_masters * iterations
        assert result.memories == sequential_oracle(scenario)
        exfails = sum(
            1 for e in result.trace if e.kind == RESP_EMITTED and e.op == "EXFAIL"
        )
        assert exfails >= 1, f"M={n_masters}: no contention observed"
        last = {}
        for e in result.trace:
            if e.kind == RESP_EMITTED:
                assert e.cycle - last.get(e.master, 0) < 1000, (
                    f"M={n_masters}: master {e.master} starved"
                )
                last[e.master] = e.cycle
        assert check_invariants(result.trace, scenario, result.stats) == []
    print(
        "\n[criterion 4] exclusive-access atomicity M in {2,4,8} x K=50, "
        "EXFAIL contention and liveness: PASS"
    )


def test_criterion_5_lock_atomicity_and_mutual_exclusion():
    for n_masters, iterations in ((2, 50), (4, 50), (8, 50)):
        scenario = atomic_loop_scenario("lock", n_masters=n_masters, iterations=iterations)
        result = run(scenario)
        assert not result.timed_out
        counter = int.from_bytes(result.memories[100][64:68], "little")
        assert counter == n_masters * iterations
        assert result.memories == sequential_oracle(scenario)
        sets = [e for e in result.trace if e.kind == LOCK_SET]
        clears = [e for e in result.trace if e.kind == LOCK_CLEARED]
        assert len(sets) == len(clears) > 0
        # the full-detail audit walks every LOCK_SET..LOCK_CLEARED window and
        # flags any foreign traversal of a locked port
        assert check_invariants(result.trace, scenario, result.stats) == []
    print(
        "\n[criterion 5] READEX/LOCK atomicity M in {2,4,8} x K=50 with clean "
        "lock windows: PASS"
    )


def test_criterion_6_fabric_transaction_unawareness():
    rng = random.Random(0xC6)
    table = RoutingTable({0: {100: 1, 101: 2, 102: 0}})
    state_a = ArbiterState(nports=4)
    state_b = ArbiterState(nports=4)
    mutations = 0
    ops = [o for o in Opcode if o not in (Opcode.READEX, Opcode.STORE_LOCKED_RELEASE)]
    for _ in range(10_000):
        packets = []
        for port in range(rng.randrange(1, 5)):
            packets.append(
                (
                    port,
                    Packet(
                        dest=PacketDest(rng.choice([100, 101, 102]), rng.randrange(4096)),
                        src=rng.randrange(8),
                        tag=rng.randrange(16),
                        kind=PacketKind.REQUEST,
                        op=rng.choice(ops),
                        priority=rng.randrange(8),
                        user_bits=rng.randrange(2),
                        payload=bytes(rng.randrange(8)),
                    ),
                )
            )
        target_port = table.lookup(0, packets[0][1].dest.target_id)
        routes_before = [route(table, 0, p.dest.target_id) for _, p in packets]
        candidates = [
            Candidate(port, p.priority, p.src)
            for port, p in packets
            if table.lookup(0, p.dest.target_id) == target_port
        ]
        state_b.cursor = state_a.cursor
        state_b.lock_owner = state_a.lock_owner
        winner_before = arbitrate(list(candidates), state_a)
        # mutate every transaction-level field the fabric must ignore
        for _port, p in packets:
            p.op = rng.choice(ops)
            p.payload = bytes(rng.randrange(8))
            p.tag = rng.randrange(16)
            p.user_bits = rng.randrange(2)
        routes_after = [route(table, 0, p.dest.target_id) for _, p in packets]
        assert routes_after == routes_before
        candidates_after = [
            Candidate(port, p.priority, p.src)
            for port, p in packets
            if table.lookup(0, p.dest.target_id) == target_port
        ]
        winner_after = arbitrate(candidates_after, state_b)
        assert winner_after == winner_before
        assert state_a.cursor == state_b.cursor
        mutations += 1
    assert mutations == 10_000
    print(
        "\n[criterion 6] fabric transaction-unawareness under 10000 packet "
        "mutations: PASS"
    )


def test_criterion_7_conservation_and_deadlock_freedom(corpus):
    # every corpus scenario completed inside its cycle budget with exactly one
    # response per response-bearing request and zero orphans (the stream and
    # conservation audits cover both directions)
    for entry in corpus["results"]:
        for mode, leg in entry["legs"].items():
            assert not leg["timed_out"], (entry["seed"], mode)
            assert leg["violations"] == [], (entry["seed"], mode)
    # detector non-vacuity: the crafted circular-lock scenario must time out
    result = run(load_scenario(SCENARIO_DIR / "lock_deadlock.yaml"))
    assert result.timed_out
    assert result.stuck
    print(
        f"\n[criterion 7] conservation and deadlock freedom over "
        f"{len(corpus['results'])} scenarios x 2 modes, plus timeout detector "
        "non-vacuity: PASS"
    )


def test_criterion_8_qos_priority_and_fairness():
    contested = load_scenario(SCENARIO_DIR / "qos_contention.yaml").with_seed(1)
    result = run(contested)
    assert not result.timed_out
    high = result.stats.masters[0].summary()["latency_mean"]
    low = result.stats.masters[1].summary()["latency_mean"]
    assert high < low, f"priority 7 mean {high} not below priority 0 mean {low}"

    equal = replace(contested, masters=[
        replace(m, niu=replace(m.niu, priority=3)) for m in contested.masters
    ])
    result = run(equal)
    merge_grants = result.stats.switch_grants["sw0.out0"]
    counts = sorted(merge_grants.values())
    assert len(counts) == 2 and counts[1] - counts[0] <= 1, merge_grants

    # and the arbiter-level counting oracle: 3 saturated inputs, 300 grants
    state = ArbiterState(nports=3)
    tallies = {0: 0, 1: 0, 2: 0}
    for _ in range(300):
        tallies[arbitrate([Candidate(i, 0, i) for i in range(3)], state)] += 1
    assert tallies == {0: 100, 1: 100, 2: 100}
    print(
        f"\n[criterion 8] QoS: strict priority latency ({high} < {low}) and "
        "round-robin fairness within 1 grant: PASS"
    )


def test_criterion_9_round_trip_and_involution():
    rng = random.Random(0xC9)
    ops = list(Opcode) + list(Status)
    for _ in range(10_000):
        payload = bytes(rng.randrange(64))
        pkt = Packet(
            dest=PacketDest(rng.randrange(256), rng.randrange(1 << 16)),
            src=rng.randrange(256),
            tag=rng.randrange(16),
            kind=rng.choice(list(PacketKind)),
            op=rng.choice(ops),
            priority=rng.randrange(8),
            user_bits=rng.randrange(4),
            lock_marker=rng.choice(list(LockMarker)),
            payload=payload,
            payload_len=len(payload),
            frag_index=rng.randrange(4),
            frag_last=rng.random() < 0.5,
        )
        params = LinkParams(flit_payload_width=rng.choice([1, 2, 4, 8, 16]))
        assert deserialize(serialize(pkt, params)) == pkt
    for _ in range(10_000):
        beat = rng.choice([1, 2, 4, 8])
        data = bytes(rng.randrange(16) * beat)
        once = endianness_convert(data, beat, Endianness.LITTLE, Endianness.BIG)
        again = endianness_convert(once, beat, Endianness.BIG, Endianness.LITTLE)
        assert again == data
    print(
        "\n[criterion 9] serialize/deserialize identity and byte-lane "
        "involution over 10000 randomized inputs each: PASS"
    )
