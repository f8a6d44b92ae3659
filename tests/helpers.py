"""Scenario-building shorthand shared by the test modules."""

from __future__ import annotations

import random
from dataclasses import replace

from nocsim.fabric import (
    AttachmentSpec,
    LinkSpec,
    SwitchSpec,
    Topology,
    TransportMode,
)
from nocsim.link import LinkParams, flit_count
from nocsim.niu import (
    Endianness,
    InitiatorConfig,
    SocketFamily,
    TagPolicy,
    TagPolicyKind,
    TargetConfig,
)
from nocsim.scenario import MasterSpec, RunSpec, Scenario, ScriptProgram
from nocsim.transaction import Opcode, SocketOrderKey, TransactionRequest

SINGLE = TagPolicy(TagPolicyKind.SINGLE_OUTSTANDING)
WIDTHS = (2, 3, 4, 5, 8, 16)


def pooled(n: int) -> TagPolicy:
    return TagPolicy(TagPolicyKind.POOLED, capacity=n)


def per_stream(n: int) -> TagPolicy:
    return TagPolicy(TagPolicyKind.PER_STREAM, streams=n)


def req(
    master: int,
    opcode: Opcode,
    address: int,
    beats: int = 1,
    beat_size: int = 4,
    key: SocketOrderKey | None = None,
    data: bytes | None = None,
) -> TransactionRequest:
    if data is None and opcode.is_store:
        data = bytes((i + 1) & 0xFF for i in range(beats * beat_size))
    return TransactionRequest(
        master_id=master,
        opcode=opcode,
        address=address,
        burst_len=beats,
        beat_size=beat_size,
        order_key=key or SocketOrderKey.single(),
        data=data or b"",
    )


def line_scenario(
    programs: list[list[tuple[TransactionRequest, bool]]],
    n_switches: int = 2,
    mode: TransportMode = TransportMode.WORMHOLE,
    params: LinkParams = LinkParams(),
    families: list[SocketFamily] | None = None,
    policies: list[TagPolicy] | None = None,
    endianness: Endianness = Endianness.LITTLE,
    region_size: int = 4096,
    memory_size: int | None = None,
    target_switch: int | None = None,
    trace_level: str = "full",
    max_cycles: int = 20_000,
    seed: int = 1,
    buffer_depth: int = 16,
) -> Scenario:
    """Masters on switch 0, one target (id 100) on the last switch."""
    n_masters = len(programs)
    links = [
        LinkSpec(i, 1 if i else n_masters, i + 1, 0, params, buffer_depth)
        for i in range(n_switches - 1)
    ]
    tgt_switch = n_switches - 1 if target_switch is None else target_switch
    attachments = [
        AttachmentSpec(i, 0, i, params, buffer_depth) for i in range(n_masters)
    ]
    tgt_port = 2 if tgt_switch else n_masters + (1 if n_switches > 1 else 0)
    attachments.append(AttachmentSpec(100, tgt_switch, tgt_port, params, buffer_depth))
    switches = []
    for s in range(n_switches):
        ports = {a.port for a in attachments if a.switch_id == s}
        for ln in links:
            if ln.a_switch == s:
                ports.add(ln.a_port)
            if ln.b_switch == s:
                ports.add(ln.b_port)
        switches.append(SwitchSpec(s, max(ports) + 1))
    masters = []
    for i, steps in enumerate(programs):
        masters.append(
            MasterSpec(
                niu=InitiatorConfig(
                    niu_id=i,
                    family=(families[i] if families else SocketFamily.FULLY_ORDERED),
                    tag_policy=(policies[i] if policies else SINGLE),
                    endianness=endianness,
                ),
                program=ScriptProgram(steps),
            )
        )
    return Scenario(
        run=RunSpec(mode=mode, seed=seed, max_cycles=max_cycles, trace_level=trace_level),
        topology=Topology(switches, links, attachments),
        targets=[
            TargetConfig(100, region_base=0, region_size=region_size, memory_size=memory_size)
        ],
        masters=masters,
    )


def mixed_widths(scenario: Scenario, seed: int) -> Scenario:
    """A variant of the scenario, each link and attachment width drawn from WIDTHS.

    The variant has its own topology, so the scenario passed in is unchanged.

    A buffer too shallow for the largest packet at its new width is deepened
    to exactly that packet, as the scenario checks require.
    """
    rng = random.Random(seed)
    worst = scenario.max_payload()

    def rewidth(spec):
        width = rng.choice(WIDTHS)
        depth = max(spec.buffer_depth, flit_count(worst, width))
        return replace(spec, params=LinkParams(width), buffer_depth=depth)

    topo = scenario.topology
    links = [rewidth(ln) for ln in topo.links]
    attachments = [rewidth(at) for at in topo.attachments]
    return replace(scenario, topology=replace(topo, links=links, attachments=attachments))
