"""Scenario model: one object fully determines one simulation run.

Scenarios are plain data (topology, NIU configs, workload programs, run
limits) with load-time validation, a YAML file format with the same shape,
and a handful of generators for seeded random workloads and the canned
experiments the verification suite runs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Union

import yaml

from .errors import ScenarioError
from .fabric import (
    AttachmentSpec,
    LinkSpec,
    RoutingTable,
    SwitchSpec,
    Topology,
    TransportMode,
    build_routing,
)
from .link import LinkParams, flit_count
from .niu import (
    AddressMap,
    Endianness,
    InitiatorConfig,
    SocketFamily,
    TagPolicy,
    TagPolicyKind,
    MAX_TAGS,
)
from .niu import TargetConfig
from .transaction import Channel, Opcode, SocketOrderKey, TransactionRequest
from .workload import COUNTER_BYTES

DEFAULT_MAX_CYCLES = 100_000


# ---------------------------------------------------------------------------
# Program specs
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class ScriptProgram:
    steps: list[tuple[TransactionRequest, bool]]


@dataclass(slots=True)
class RandomProgram:
    transactions: int
    op_mix: dict[Opcode, float]
    address_ranges: list[tuple[int, int]]
    burst_lens: list[int] = field(default_factory=lambda: [1, 2, 4])
    beat_sizes: list[int] = field(default_factory=lambda: [1, 2, 4])
    threads: int = 2
    txn_ids: int = 4
    max_bytes: int = 64


@dataclass(slots=True)
class ExclusiveLoopProgram:
    counter_address: int
    iterations: int


@dataclass(slots=True)
class LockLoopProgram:
    counter_address: int
    iterations: int


Program = Union[ScriptProgram, RandomProgram, ExclusiveLoopProgram, LockLoopProgram]


@dataclass(slots=True)
class MasterSpec:
    niu: InitiatorConfig
    program: Program

    @property
    def master_id(self) -> int:
        return self.niu.niu_id


@dataclass(slots=True)
class RunSpec:
    mode: TransportMode = TransportMode.WORMHOLE
    seed: int = 1
    max_cycles: int = DEFAULT_MAX_CYCLES
    trace_level: str = "packet"


@dataclass(slots=True)
class Scenario:
    run: RunSpec
    topology: Topology
    targets: list[TargetConfig]
    masters: list[MasterSpec]
    routing: Optional[dict[int, dict[int, int]]] = None  # None derives shortest paths

    # -- derived views ---------------------------------------------------------

    def address_map(self) -> AddressMap:
        return AddressMap([(t.region_base, t.region_size, t.niu_id) for t in self.targets])

    def max_payload(self) -> int:
        return max((m.niu.max_payload for m in self.masters), default=32)

    # -- validation -------------------------------------------------------------

    def validate(self) -> RoutingTable:
        """Reject an inconsistent scenario; return its checked routing table."""
        if self.run.trace_level not in ("transaction", "packet", "full"):
            raise ScenarioError(f"unknown trace level {self.run.trace_level!r}")
        if self.run.max_cycles < 1:
            raise ScenarioError("max_cycles must be positive")
        self.topology.validate()

        initiator_ids = [m.niu.niu_id for m in self.masters]
        target_ids = [t.niu_id for t in self.targets]
        if len(set(initiator_ids)) != len(initiator_ids):
            raise ScenarioError("duplicate master/initiator NIU ids")
        if len(set(target_ids)) != len(target_ids):
            raise ScenarioError("duplicate target NIU ids")
        if set(initiator_ids) & set(target_ids):
            raise ScenarioError("initiator and target NIU ids overlap")
        attached = {a.niu_id for a in self.topology.attachments}
        declared = set(initiator_ids) | set(target_ids)
        if attached != declared:
            raise ScenarioError(
                f"attachment/NIU mismatch: attached {sorted(attached)}, "
                f"declared {sorted(declared)}"
            )

        amap = self.address_map()
        table = build_routing(self.topology, self.routing)
        self._check_buffer_depths()
        for t in self.targets:
            t.validate()
        for m in self.masters:
            m.niu.validate()
            self._check_program(m, amap)
        return table

    def _check_buffer_depths(self) -> None:
        # every buffer must hold the largest packet whole, so store-and-forward
        # switching can always make progress
        worst = self.max_payload()
        for ln in self.topology.links:
            need = flit_count(worst, ln.params.flit_payload_width)
            if ln.buffer_depth < need:
                raise ScenarioError(
                    f"link sw{ln.a_switch}<->sw{ln.b_switch} buffer depth "
                    f"{ln.buffer_depth} below largest packet ({need} flits)"
                )
        for at in self.topology.attachments:
            need = flit_count(worst, at.params.flit_payload_width)
            if at.buffer_depth < need:
                raise ScenarioError(
                    f"attachment of NIU {at.niu_id} buffer depth {at.buffer_depth} "
                    f"below largest packet ({need} flits)"
                )

    def _check_program(self, m: MasterSpec, amap: AddressMap) -> None:
        program = m.program
        if isinstance(program, RandomProgram):
            if program.transactions < 0:
                raise ScenarioError("transaction count must not be negative")
            weights = list(program.op_mix.values())
            if not all(math.isfinite(w) and w >= 0 for w in weights) or not sum(weights) > 0:
                raise ScenarioError(
                    f"master {m.master_id} op_mix weights must be finite, non-negative "
                    "and not all zero"
                )
            for name, values in (
                ("burst_lens", program.burst_lens), ("beat_sizes", program.beat_sizes),
            ):
                if not values or min(values) < 1:
                    raise ScenarioError(
                        f"master {m.master_id} {name} must list positive integers"
                    )
            if program.threads < 1 or program.txn_ids < 1:
                raise ScenarioError(f"master {m.master_id} threads and txn_ids must be positive")
            if not program.address_ranges:
                raise ScenarioError(f"master {m.master_id} random program has no address range")
            for base, size in program.address_ranges:
                lo = amap.decode(base)
                hi = amap.decode(base + size - 1)
                if lo is None or hi is None or lo[0] != hi[0]:
                    raise ScenarioError(
                        f"master {m.master_id} range [{base:#x},{base+size:#x}) "
                        "does not sit inside a single target region"
                    )
            if program.transactions == 0:
                return
            # every step generate_random_steps can draw must be valid as built:
            # a power-of-two beat, at a multiple of it, inside the range
            for beat in program.beat_sizes:
                if beat & (beat - 1):
                    raise ScenarioError(
                        f"master {m.master_id} beat size {beat} is not a power of two"
                    )
            largest = max(
                max((b for b in program.burst_lens if b * beat <= program.max_bytes), default=1)
                * beat
                for beat in program.beat_sizes
            )
            for base, size in program.address_ranges:
                where = f"master {m.master_id} range [{base:#x},{base+size:#x})"
                misaligned = [beat for beat in program.beat_sizes if base % beat]
                if misaligned:
                    raise ScenarioError(
                        f"{where} base is not a multiple of beat size {misaligned[0]}"
                    )
                if size < largest:
                    raise ScenarioError(
                        f"{where} is smaller than the largest burst ({largest} bytes)"
                    )
        elif isinstance(program, (ExclusiveLoopProgram, LockLoopProgram)):
            if m.niu.endianness is not Endianness.LITTLE:
                raise ScenarioError("atomic loop masters must use little-endian sockets")
            if program.counter_address % COUNTER_BYTES:
                raise ScenarioError("loop counter must be word aligned")
            if amap.decode(program.counter_address) is None:
                raise ScenarioError("loop counter address does not decode")
        elif isinstance(program, ScriptProgram):
            from .transaction import needs_response, validate_request

            for i, (request, wait) in enumerate(program.steps):
                problems = validate_request(request)
                if problems:
                    raise ScenarioError(
                        f"master {m.master_id} script step {i}: {problems}"
                    )
                if wait and not needs_response(request.opcode):
                    raise ScenarioError(
                        f"master {m.master_id} script step {i} waits on a posted write"
                    )
        else:
            raise ScenarioError(f"unknown program type {type(program).__name__}")

    # -- derived variants ---------------------------------------------------------
    # A variant shares all but ``run`` with its base (``with_link_params`` also
    # gets its own topology): replace, never edit in place, any other part.

    def with_mode(self, mode: TransportMode) -> "Scenario":
        return replace(self, run=replace(self.run, mode=mode))

    def with_seed(self, seed: int) -> "Scenario":
        return replace(self, run=replace(self.run, seed=seed))

    def with_trace_level(self, level: str) -> "Scenario":
        return replace(self, run=replace(self.run, trace_level=level))

    def with_link_params(self, params: LinkParams) -> "Scenario":
        """Same scenario with every link and attachment using `params`."""
        topo = self.topology
        links = [replace(ln, params=params) for ln in topo.links]
        attachments = [replace(at, params=params) for at in topo.attachments]
        topology = replace(topo, links=links, attachments=attachments)
        return replace(self, run=replace(self.run), topology=topology)


# ---------------------------------------------------------------------------
# YAML loading
# ---------------------------------------------------------------------------

_FAMILIES = {
    "fully_ordered": SocketFamily.FULLY_ORDERED,
    "threaded": SocketFamily.THREADED,
    "id_based": SocketFamily.ID_BASED,
}
_MODES = {
    "wormhole": TransportMode.WORMHOLE,
    "store_and_forward": TransportMode.STORE_AND_FORWARD,
}
_ENDIAN = {"little": Endianness.LITTLE, "big": Endianness.BIG}


_LINK_KEYS = {"width", "latency", "rate_ratio", "buffer_depth"}
_NIU_KEYS = {"id", "role", "attach", "link"}
_ROLE_KEYS = {
    "target": _NIU_KEYS | {"region", "memory", "monitor_granule"},
    "initiator": _NIU_KEYS | {
        "family", "tag_policy", "capacity", "max_payload", "endianness", "priority",
    },
}
_PROGRAM_KEYS = {
    "random": {
        "kind", "transactions", "op_mix", "address_ranges", "burst_lens",
        "beat_sizes", "threads", "txn_ids", "max_bytes",
    },
    "exclusive_loop": {"kind", "counter", "iterations"},
    "lock_loop": {"kind", "counter", "iterations"},
    "script": {"kind", "steps"},
}
_STEP_KEYS = {"op", "addr", "data", "beats", "beat_size", "thread", "tid", "channel", "wait"}


def _check_keys(d, allowed: set, where: str) -> None:
    """Reject a mapping with keys the format does not define, so a typo
    cannot silently fall back to a default."""
    if not isinstance(d, dict):
        raise ScenarioError(f"malformed scenario: {where} must be a mapping")
    unknown = sorted(str(k) for k in d if k not in allowed)
    if unknown:
        raise ScenarioError(f"unknown key {', '.join(map(repr, unknown))} in {where}")


def _opcode(name: str) -> Opcode:
    try:
        return Opcode[name.upper()]
    except KeyError:
        raise ScenarioError(f"unknown opcode {name!r}") from None


def _int(value, field: str) -> int:
    """The value of an integer field. A bool, or a float with a fraction, is
    rejected rather than truncated; an integral float such as 1.0e+3 is
    that integer."""
    if not isinstance(value, bool):
        if isinstance(value, float):
            if value.is_integer():
                return int(value)
        else:
            try:
                return int(value)
            except (TypeError, ValueError):
                pass
    raise ScenarioError(f"{field} must be an integer, got {value!r}")


def _link_params(d: dict, where: str) -> LinkParams:
    return LinkParams(
        flit_payload_width=_int(d.get("width", 4), f"width of {where}"),
        latency=_int(d.get("latency", 1), f"latency of {where}"),
        rate_ratio=_int(d.get("rate_ratio", 1), f"rate_ratio of {where}"),
    )


def _tag_policy(spec) -> TagPolicy:
    if spec == "single":
        return TagPolicy(TagPolicyKind.SINGLE_OUTSTANDING)
    if isinstance(spec, dict) and len(spec) == 1:
        if "per_stream" in spec:
            streams = _int(spec["per_stream"], "tag_policy per_stream")
            return TagPolicy(TagPolicyKind.PER_STREAM, streams=streams)
        if "pooled" in spec:
            capacity = _int(spec["pooled"], "tag_policy pooled")
            return TagPolicy(TagPolicyKind.POOLED, capacity=capacity)
    raise ScenarioError(f"unknown tag policy {spec!r}")


def _order_key(family: SocketFamily, step: dict, opcode: Opcode) -> SocketOrderKey:
    if family is SocketFamily.FULLY_ORDERED:
        return SocketOrderKey.single()
    if family is SocketFamily.THREADED:
        return SocketOrderKey.thread(_int(step.get("thread", 0), "thread"))
    channel = step.get("channel")
    if channel is None:
        channel = "read" if opcode.is_load else "write"
    return SocketOrderKey.txn(
        _int(step.get("tid", 0), "tid"),
        Channel.READ if str(channel).lower() == "read" else Channel.WRITE,
    )


def _program(d: dict, family: SocketFamily, master_id: int) -> Program:
    kind = d.get("kind")
    if kind in _PROGRAM_KEYS:
        _check_keys(d, _PROGRAM_KEYS[kind], f"{kind} program of master {master_id}")
    if kind == "random":
        mix = {_opcode(k): float(v) for k, v in d["op_mix"].items()}
        where = f"of master {master_id}"
        return RandomProgram(
            transactions=_int(d["transactions"], f"transactions {where}"),
            op_mix=mix,
            address_ranges=[
                (_int(b, f"address range base {where}"), _int(s, f"address range size {where}"))
                for b, s in d["address_ranges"]
            ],
            burst_lens=[_int(x, f"burst_lens {where}") for x in d.get("burst_lens", [1, 2, 4])],
            beat_sizes=[_int(x, f"beat_sizes {where}") for x in d.get("beat_sizes", [1, 2, 4])],
            threads=_int(d.get("threads", 2), f"threads {where}"),
            txn_ids=_int(d.get("txn_ids", 4), f"txn_ids {where}"),
            max_bytes=_int(d.get("max_bytes", 64), f"max_bytes {where}"),
        )
    if kind in ("exclusive_loop", "lock_loop"):
        loop = ExclusiveLoopProgram if kind == "exclusive_loop" else LockLoopProgram
        return loop(
            _int(d["counter"], f"counter of master {master_id}"),
            _int(d["iterations"], f"iterations of master {master_id}"),
        )
    if kind == "script":
        steps = []
        for i, s in enumerate(d["steps"]):
            where = f"script step {i} of master {master_id}"
            _check_keys(s, _STEP_KEYS, where)
            opcode = _opcode(s["op"])
            data = bytes.fromhex(s["data"]) if "data" in s else b""
            req = TransactionRequest(
                master_id=master_id,
                opcode=opcode,
                address=_int(s["addr"], f"addr of {where}"),
                burst_len=_int(s.get("beats", 1), f"beats of {where}"),
                beat_size=_int(s.get("beat_size", 4), f"beat_size of {where}"),
                order_key=_order_key(family, s, opcode),
                data=data,
                exclusive_flag=opcode.is_exclusive,
            )
            steps.append((req, bool(s.get("wait", False))))
        return ScriptProgram(steps)
    raise ScenarioError(f"unknown program kind {kind!r}")


def scenario_from_dict(doc: dict) -> Scenario:
    try:
        _check_keys(doc, {"run", "topology", "nius", "workload"}, "the scenario")
        topo_doc = doc["topology"]
        _check_keys(topo_doc, {"switches", "links", "routing"}, "topology")
        switches = []
        for s in topo_doc["switches"]:
            _check_keys(s, {"id", "ports"}, "a switch")
            sid = _int(s["id"], "switch id")
            switches.append(SwitchSpec(sid, _int(s["ports"], f"ports of switch {sid}")))
        links = []
        for ln in topo_doc.get("links", []):
            _check_keys(ln, _LINK_KEYS | {"a", "b"}, "a link")
            links.append(
                LinkSpec(
                    a_switch=_int(ln["a"][0], "switch of link end a"),
                    a_port=_int(ln["a"][1], "port of link end a"),
                    b_switch=_int(ln["b"][0], "switch of link end b"),
                    b_port=_int(ln["b"][1], "port of link end b"),
                    params=_link_params(ln, "a link"),
                    buffer_depth=_int(ln.get("buffer_depth", 16), "buffer_depth of a link"),
                )
            )
        attachments = []
        targets = []
        masters = []
        for n in doc["nius"]:
            niu_id = _int(n["id"], "NIU id")
            if n["role"] in _ROLE_KEYS:
                _check_keys(n, _ROLE_KEYS[n["role"]], f"NIU {niu_id}")
            link_doc = n.get("link", {})
            _check_keys(link_doc, _LINK_KEYS, f"the link of NIU {niu_id}")
            attachments.append(
                AttachmentSpec(
                    niu_id=niu_id,
                    switch_id=_int(n["attach"][0], f"attach switch of NIU {niu_id}"),
                    port=_int(n["attach"][1], f"attach port of NIU {niu_id}"),
                    params=_link_params(link_doc, f"the link of NIU {niu_id}"),
                    buffer_depth=_int(
                        link_doc.get("buffer_depth", 16), f"buffer_depth of NIU {niu_id}"
                    ),
                )
            )
            if n["role"] == "target":
                base, size = n["region"]
                targets.append(
                    TargetConfig(
                        niu_id=niu_id,
                        region_base=_int(base, f"region base of NIU {niu_id}"),
                        region_size=_int(size, f"region size of NIU {niu_id}"),
                        memory_size=(
                            _int(n["memory"], f"memory of NIU {niu_id}") if "memory" in n else None
                        ),
                        monitor_granule=_int(
                            n.get("monitor_granule", 8), f"monitor_granule of NIU {niu_id}"
                        ),
                    )
                )
            elif n["role"] == "initiator":
                family = _FAMILIES.get(n.get("family", "fully_ordered"))
                if family is None:
                    raise ScenarioError(f"unknown socket family {n.get('family')!r}")
                config = InitiatorConfig(
                    niu_id=niu_id,
                    family=family,
                    tag_policy=_tag_policy(n.get("tag_policy", "single")),
                    capacity=_int(n.get("capacity", MAX_TAGS), f"capacity of NIU {niu_id}"),
                    max_payload=_int(n.get("max_payload", 32), f"max_payload of NIU {niu_id}"),
                    endianness=_ENDIAN[n.get("endianness", "little")],
                    priority=_int(n.get("priority", 0), f"priority of NIU {niu_id}"),
                )
                masters.append((niu_id, config))
            else:
                raise ScenarioError(f"NIU {niu_id} role must be initiator or target")

        routing = None
        routing_doc = topo_doc.get("routing", "auto")
        if routing_doc != "auto":
            routing = {
                _int(sw, "routing switch"): {
                    _int(t, "routing target"): _int(p, "routing port")
                    for t, p in targets_map.items()
                }
                for sw, targets_map in routing_doc.items()
            }

        programs: dict[int, Program] = {}
        for w in doc.get("workload", []):
            _check_keys(w, {"master", "program"}, "a workload entry")
            mid = _int(w["master"], "workload master")
            config = dict(masters).get(mid)
            if config is None:
                raise ScenarioError(f"workload references unknown initiator {mid}")
            programs[mid] = _program(w["program"], config.family, mid)

        master_specs = []
        for mid, config in masters:
            if mid not in programs:
                raise ScenarioError(f"initiator {mid} has no workload program")
            master_specs.append(MasterSpec(niu=config, program=programs[mid]))

        run_doc = doc.get("run", {})
        _check_keys(run_doc, {"mode", "seed", "max_cycles", "trace_level"}, "run")
        mode_name = run_doc.get("mode", "wormhole")
        if mode_name not in _MODES:
            raise ScenarioError(f"unknown transport mode {mode_name!r}")
        run = RunSpec(
            mode=_MODES[mode_name],
            seed=_int(run_doc.get("seed", 1), "run seed"),
            max_cycles=_int(run_doc.get("max_cycles", DEFAULT_MAX_CYCLES), "run max_cycles"),
            trace_level=run_doc.get("trace_level", "packet"),
        )
    except ScenarioError:
        raise
    except (KeyError, TypeError, ValueError, IndexError, AttributeError, OverflowError) as exc:
        raise ScenarioError(f"malformed scenario: {exc!r}") from exc

    scenario = Scenario(
        run=run,
        topology=Topology(switches, links, attachments),
        targets=targets,
        masters=master_specs,
        routing=routing,
    )
    scenario.validate()
    return scenario


def load_scenario(path: str | Path) -> Scenario:
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"malformed scenario {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError(f"scenario file {path} is not a mapping")
    return scenario_from_dict(doc)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

class _Ports:
    """Sequential port allocator while a topology is being generated."""

    def __init__(self):
        self.used: dict[int, int] = {}

    def take(self, switch_id: int) -> int:
        port = self.used.get(switch_id, 0)
        self.used[switch_id] = port + 1
        return port


def _mk_topology(rng: random.Random, n_switches: int):
    ports = _Ports()
    links = []
    shape = rng.choice(["line", "ring", "star"]) if n_switches >= 3 else "line"
    if shape == "star":
        for i in range(1, n_switches):
            links.append((0, ports.take(0), i, ports.take(i)))
    else:
        for i in range(n_switches - 1):
            links.append((i, ports.take(i), i + 1, ports.take(i + 1)))
        if shape == "ring":
            links.append((n_switches - 1, ports.take(n_switches - 1), 0, ports.take(0)))
    return ports, links


def random_scenario(
    seed: int,
    n_masters: Optional[int] = None,
    n_switches: Optional[int] = None,
    total_transactions: Optional[int] = None,
    trace_level: str = "transaction",
) -> Scenario:
    """A seeded random scenario with mixed socket families and safe sharing.

    Masters write only to their private address slices, so final memory and
    per-stream transaction content depend on the workload alone, never on
    transport timing. That property is what the transport-equivalence and
    physical-independence suites lean on.
    """
    rng = random.Random(seed * 0x9E3779B1 + 0x5EED)
    n_sw = n_switches if n_switches is not None else rng.randint(2, 6)
    n_m = n_masters if n_masters is not None else rng.randint(2, 8)
    n_t = rng.randint(1, 3)
    total = total_transactions if total_transactions is not None else rng.randint(200, 1000)

    ports, raw_links = _mk_topology(rng, n_sw)
    attachments = []
    targets = []
    region_size = 4096
    for t in range(n_t):
        sw = rng.randrange(n_sw)
        targets.append(
            TargetConfig(
                niu_id=100 + t,
                region_base=t * 0x10000,
                region_size=region_size,
            )
        )
        attachments.append((100 + t, sw, ports.take(sw)))

    slice_size = (region_size // n_m) & ~63
    masters = []
    per_master = max(1, total // n_m)
    for i in range(n_m):
        sw = rng.randrange(n_sw)
        attachments.append((i, sw, ports.take(sw)))
        family = rng.choice(list(SocketFamily))
        if family is SocketFamily.FULLY_ORDERED:
            policy = rng.choice(
                [
                    TagPolicy(TagPolicyKind.SINGLE_OUTSTANDING),
                    TagPolicy(TagPolicyKind.POOLED, capacity=rng.choice([2, 4, 8])),
                ]
            )
        elif family is SocketFamily.THREADED:
            policy = rng.choice(
                [
                    TagPolicy(TagPolicyKind.PER_STREAM, streams=4),
                    TagPolicy(TagPolicyKind.POOLED, capacity=rng.choice([4, 8])),
                ]
            )
        else:
            policy = rng.choice(
                [
                    TagPolicy(TagPolicyKind.PER_STREAM, streams=8),
                    TagPolicy(TagPolicyKind.POOLED, capacity=rng.choice([4, 8])),
                ]
            )
        ranges = [
            (t.region_base + i * slice_size, slice_size) for t in targets
        ]
        mix = {
            Opcode.LOAD: rng.uniform(0.2, 0.6),
            Opcode.STORE: rng.uniform(0.2, 0.6),
            Opcode.STORE_POSTED: rng.uniform(0.0, 0.3),
        }
        masters.append(
            MasterSpec(
                niu=InitiatorConfig(
                    niu_id=i,
                    family=family,
                    tag_policy=policy,
                    max_payload=32,
                    endianness=rng.choice([Endianness.LITTLE, Endianness.BIG]),
                    priority=rng.randrange(8),
                ),
                program=RandomProgram(
                    transactions=per_master,
                    op_mix=mix,
                    address_ranges=ranges,
                    burst_lens=[1, 2, 4, 8],
                    beat_sizes=[1, 2, 4],
                    threads=4,
                    txn_ids=4,
                ),
            )
        )

    topology = Topology(
        switches=[SwitchSpec(i, ports.used.get(i, 0)) for i in range(n_sw)],
        links=[
            LinkSpec(a, ap, b, bp, LinkParams(), 16) for a, ap, b, bp in raw_links
        ],
        attachments=[
            AttachmentSpec(nid, sw, port, LinkParams(), 16)
            for nid, sw, port in attachments
        ],
    )
    scenario = Scenario(
        run=RunSpec(seed=seed, trace_level=trace_level),
        topology=topology,
        targets=targets,
        masters=masters,
    )
    scenario.validate()
    return scenario


def _two_switch_base(n_masters: int, make_policy, priorities=None):
    """Masters spread over two linked switches, one target on the second."""
    ports = _Ports()
    links = [(0, ports.take(0), 1, ports.take(1))]
    attachments = [AttachmentSpec(100, 1, ports.take(1))]
    configs = []
    for i in range(n_masters):
        sw = i % 2
        attachments.append(AttachmentSpec(i, sw, ports.take(sw)))
        configs.append(
            InitiatorConfig(
                niu_id=i,
                family=SocketFamily.FULLY_ORDERED,
                tag_policy=make_policy(i),
                priority=0 if priorities is None else priorities[i],
            )
        )
    topology = Topology(
        switches=[SwitchSpec(0, ports.used[0]), SwitchSpec(1, ports.used[1])],
        links=[LinkSpec(a, ap, b, bp) for a, ap, b, bp in links],
        attachments=attachments,
    )
    target = TargetConfig(niu_id=100, region_base=0, region_size=4096)
    return topology, target, configs


def atomic_loop_scenario(
    kind: str,
    n_masters: int = 2,
    iterations: int = 50,
    seed: int = 1,
    mode: TransportMode = TransportMode.WORMHOLE,
) -> Scenario:
    """M masters incrementing one counter via exclusive pairs or READEX/LOCK."""
    if kind not in ("exclusive", "lock"):
        raise ScenarioError("loop kind must be 'exclusive' or 'lock'")
    topology, target, configs = _two_switch_base(
        n_masters, lambda i: TagPolicy(TagPolicyKind.SINGLE_OUTSTANDING)
    )
    counter = 64
    program_cls = ExclusiveLoopProgram if kind == "exclusive" else LockLoopProgram
    masters = [
        MasterSpec(niu=c, program=program_cls(counter, iterations)) for c in configs
    ]
    scenario = Scenario(
        run=RunSpec(mode=mode, seed=seed, trace_level="full"),
        topology=topology,
        targets=[target],
        masters=masters,
    )
    scenario.validate()
    return scenario


def qos_contention_scenario(
    priorities: tuple[int, int] = (7, 0),
    transactions: int = 150,
    seed: int = 1,
    mode: TransportMode = TransportMode.WORMHOLE,
) -> Scenario:
    """Two initiators on one switch saturating a single link to one target."""
    ports = _Ports()
    link = (0, ports.take(0), 1, ports.take(1))
    attachments = [
        AttachmentSpec(100, 1, ports.take(1)),
        AttachmentSpec(0, 0, ports.take(0)),
        AttachmentSpec(1, 0, ports.take(0)),
    ]
    topology = Topology(
        switches=[SwitchSpec(0, ports.used[0]), SwitchSpec(1, ports.used[1])],
        links=[LinkSpec(*link)],
        attachments=attachments,
    )
    masters = []
    for i, prio in enumerate(priorities):
        masters.append(
            MasterSpec(
                niu=InitiatorConfig(
                    niu_id=i,
                    family=SocketFamily.FULLY_ORDERED,
                    tag_policy=TagPolicy(TagPolicyKind.POOLED, capacity=8),
                    priority=prio,
                ),
                # single-beat stores keep the shared request link saturated while
                # responses stay single-flit, so arbitration priority is what
                # decides who gets through
                program=RandomProgram(
                    transactions=transactions,
                    op_mix={Opcode.STORE: 1.0},
                    address_ranges=[(1024 * (i + 1), 512)],
                    burst_lens=[1],
                    beat_sizes=[4],
                ),
            )
        )
    scenario = Scenario(
        run=RunSpec(mode=mode, seed=seed, trace_level="transaction"),
        topology=topology,
        targets=[TargetConfig(niu_id=100, region_base=0, region_size=4096)],
        masters=masters,
    )
    scenario.validate()
    return scenario


def deadlock_scenario(seed: int = 1) -> Scenario:
    """Two lock paths crossing a ring in opposite acquisition order.

    Master 0 locks sw0->sw1->sw2->sw3 toward its target; master 1 locks
    sw2->sw3->sw0->sw1 toward its own. Each grabs the other's third segment
    first, so once both sequences are in flight neither release can ever
    traverse: the run must end as a timeout, which is exactly what the
    deadlock detector non-vacuity check wants.
    """
    # ports per switch: 0 = to previous, 1 = to next, 2 = attachment
    switches = [SwitchSpec(i, 3) for i in range(4)]
    links = [LinkSpec(i, 1, (i + 1) % 4, 0) for i in range(4)]
    attachments = [
        AttachmentSpec(0, 0, 2),
        AttachmentSpec(1, 2, 2),
        AttachmentSpec(100, 3, 2),
        AttachmentSpec(101, 1, 2),
    ]
    topology = Topology(switches, links, attachments)
    routing = build_routing(topology).ports
    routing = {sw: dict(t) for sw, t in routing.items()}
    # force both request paths clockwise so the acquisition orders cross
    routing[0][100] = 1
    routing[1][100] = 1
    routing[2][100] = 1
    routing[2][101] = 1
    routing[3][101] = 1
    routing[0][101] = 1
    targets = [
        TargetConfig(niu_id=100, region_base=0x0000, region_size=4096),
        TargetConfig(niu_id=101, region_base=0x10000, region_size=4096),
    ]
    masters = [
        MasterSpec(
            niu=InitiatorConfig(
                niu_id=0,
                family=SocketFamily.FULLY_ORDERED,
                tag_policy=TagPolicy(TagPolicyKind.SINGLE_OUTSTANDING),
            ),
            program=LockLoopProgram(counter_address=64, iterations=10),
        ),
        MasterSpec(
            niu=InitiatorConfig(
                niu_id=1,
                family=SocketFamily.FULLY_ORDERED,
                tag_policy=TagPolicy(TagPolicyKind.SINGLE_OUTSTANDING),
            ),
            program=LockLoopProgram(counter_address=0x10000 + 64, iterations=10),
        ),
    ]
    scenario = Scenario(
        run=RunSpec(seed=seed, max_cycles=2500, trace_level="full"),
        topology=topology,
        targets=targets,
        masters=masters,
        routing=routing,
    )
    scenario.validate()
    return scenario
