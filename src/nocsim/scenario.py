"""Scenario model: one object fully determines one simulation run.

Scenarios are immutable plain data (topology, NIU configs, workload
programs, run limits), checked once when built; there is a YAML file format
of the same shape, and generators for seeded random workloads and the
atomic counter loops.
Fixed experiments, such as the lock deadlock and the QoS contention run,
are scenario files under ``scenarios/``.
"""

from __future__ import annotations

import math
import random
from copy import copy
from dataclasses import dataclass, field, replace
from functools import cache
from pathlib import Path
from typing import Optional, Union

from .errors import ScenarioError
from .fabric import (
    AttachmentSpec,
    LinkSpec,
    SwitchSpec,
    Topology,
    TransportMode,
)
from .link import LinkParams, flit_count
from .niu import (
    FAMILY_VARIANT,
    AddressMap,
    Endianness,
    InitiatorConfig,
    SocketFamily,
    TagPolicy,
    TagPolicyKind,
    TargetConfig,
    stream_tag,
)
from .trace import TRACE_LEVELS
from .transaction import Channel, Opcode, SocketOrderKey, TransactionRequest
from .transaction import needs_response, validate_request
from .workload import COUNTER_BYTES

DEFAULT_MAX_CYCLES = 100_000
# the opcodes a random program may mix, and those that hold a path locked
_RANDOM_OPCODES = (Opcode.LOAD, Opcode.STORE, Opcode.STORE_POSTED)
_LOCKING = (Opcode.READEX, Opcode.STORE_LOCKED_RELEASE)


# ---------------------------------------------------------------------------
# Program specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ScriptProgram:
    steps: tuple[tuple[TransactionRequest, bool], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))


@dataclass(frozen=True, slots=True)
class RandomProgram:
    transactions: int
    op_mix: tuple[tuple[Opcode, float], ...]  # (opcode, weight) pairs, from a mapping too
    address_ranges: tuple[tuple[int, int], ...]
    burst_lens: tuple[int, ...] = (1, 2, 4)
    beat_sizes: tuple[int, ...] = (1, 2, 4)
    threads: int = 2
    txn_ids: int = 4
    max_bytes: int = 64

    def __post_init__(self) -> None:
        object.__setattr__(self, "op_mix", tuple(dict(self.op_mix).items()))
        for name in ("address_ranges", "burst_lens", "beat_sizes"):
            object.__setattr__(self, name, tuple(getattr(self, name)))


@dataclass(frozen=True, slots=True)
class ExclusiveLoopProgram:
    counter_address: int
    iterations: int


@dataclass(frozen=True, slots=True)
class LockLoopProgram:
    counter_address: int
    iterations: int


Program = Union[ScriptProgram, RandomProgram, ExclusiveLoopProgram, LockLoopProgram]


@dataclass(frozen=True, slots=True)
class MasterSpec:
    niu: InitiatorConfig
    program: Program
    # (seed, steps) of the latest random-program expansion: see scripted_steps_for
    expansion: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    @property
    def master_id(self) -> int:
        return self.niu.niu_id


@dataclass(frozen=True, slots=True)
class RunSpec:
    mode: TransportMode = TransportMode.WORMHOLE
    seed: int = 1
    max_cycles: int = DEFAULT_MAX_CYCLES
    trace_level: str = "packet"

    def __post_init__(self) -> None:
        if self.trace_level not in TRACE_LEVELS:
            raise ScenarioError(f"unknown trace level {self.trace_level!r}")
        if self.max_cycles < 1:
            raise ScenarioError("max_cycles must be positive")


@dataclass(frozen=True, slots=True)
class Scenario:
    """One simulation run, immutable and checked once, when built: each part
    (the run, the topology with its links, each NIU config) checks itself,
    then the scenario checks how they fit: NIU ids, attachments, buffer
    depths and programs, in time linear in it."""

    run: RunSpec
    topology: Topology
    targets: tuple[TargetConfig, ...]
    masters: tuple[MasterSpec, ...]
    # the targets' regions, checked once; callers must not change it
    address_map: AddressMap = field(init=False, repr=False, compare=False)

    # -- derived views ---------------------------------------------------------

    def max_payload(self) -> int:
        return max((m.niu.max_payload for m in self.masters), default=32)

    # -- validation -------------------------------------------------------------

    def __post_init__(self) -> None:
        object.__setattr__(self, "targets", tuple(self.targets))
        object.__setattr__(self, "masters", tuple(self.masters))
        initiator_ids = [m.niu.niu_id for m in self.masters]
        target_ids = [t.niu_id for t in self.targets]
        for role, ids in (("master/initiator", initiator_ids), ("target", target_ids)):
            if len(set(ids)) != len(ids):
                twice = next(nid for i, nid in enumerate(ids) if nid in ids[:i])
                raise ScenarioError(f"duplicate {role} NIU id {twice}")
        both = set(initiator_ids) & set(target_ids)
        if both:
            raise ScenarioError(f"NIU {min(both)} is both an initiator and a target")
        attached = {a.niu_id for a in self.topology.attachments}
        declared = set(initiator_ids) | set(target_ids)
        if attached != declared:
            raise ScenarioError(
                f"attachment/NIU mismatch: attached {sorted(attached)}, "
                f"declared {sorted(declared)}"
            )

        amap = AddressMap([(t.region_base, t.region_size, t.niu_id) for t in self.targets])
        object.__setattr__(self, "address_map", amap)
        self._check_buffer_depths()
        for m in self.masters:
            self._check_program(m, amap)

    def _check_buffer_depths(self) -> None:
        # every buffer must hold the largest packet whole, so store-and-forward
        # switching can always make progress
        worst = self.max_payload()
        links = [(f"link sw{ln.a_switch}<->sw{ln.b_switch}", ln) for ln in self.topology.links]
        links += [(f"attachment of NIU {at.niu_id}", at) for at in self.topology.attachments]
        for where, ln in links:
            need = flit_count(worst, ln.params.flit_payload_width)
            if ln.buffer_depth < need:
                raise ScenarioError(
                    f"{where} buffer depth {ln.buffer_depth} below largest packet ({need} flits)"
                )

    def _check_program(self, m: MasterSpec, amap: AddressMap) -> None:
        program, niu, who = m.program, m.niu, f"master {m.master_id}"
        widest = 0  # the widest beat the program issues
        streams = 1  # the order streams it issues on, each a per-stream policy tag
        if isinstance(program, RandomProgram):
            if program.transactions < 0:
                raise ScenarioError(f"{who} transaction count {program.transactions} is negative")
            mixed = [op for op, _ in program.op_mix if op not in _RANDOM_OPCODES]
            if mixed:
                raise ScenarioError(
                    f"{who} op_mix may only hold LOAD, STORE and STORE_POSTED, "
                    f"got {min(op.name for op in mixed)}"
                )
            weights = [weight for _, weight in program.op_mix]
            if not (sum(weights) > 0 and all(map(math.isfinite, weights)) and min(weights) >= 0):
                raise ScenarioError(
                    f"{who} op_mix weights must be finite, non-negative and not all zero"
                )
            for name, values in (
                ("burst_lens", program.burst_lens), ("beat_sizes", program.beat_sizes),
            ):
                if not values or min(values) < 1:
                    raise ScenarioError(f"{who} {name} must list positive integers")
            if program.threads < 1 or program.txn_ids < 1:
                raise ScenarioError(f"{who} threads and txn_ids must be positive")
            if not program.address_ranges:
                raise ScenarioError(f"{who} random program has no address range")
            for base, size in program.address_ranges:
                lo = amap.decode(base)
                hi = amap.decode(base + size - 1)
                if lo is None or hi is None or lo[0] != hi[0]:
                    raise ScenarioError(
                        f"{who} range [{base:#x},{base+size:#x}) "
                        "does not sit inside a single target region"
                    )
            if program.transactions == 0:
                return
            # every step generate_random_steps can draw must be valid as built:
            # a power-of-two beat, at a multiple of it, inside the range; and,
            # checked below, one packet wide at most, on a stream with a tag
            largest = 0  # the largest burst in bytes: a beat, or a burst of beats that fits
            for beat in program.beat_sizes:
                if beat & (beat - 1):
                    raise ScenarioError(f"{who} beat size {beat} is not a power of two")
                largest = max(largest, beat)
                for burst in program.burst_lens:
                    if largest < burst * beat <= program.max_bytes:
                        largest = burst * beat
            widest = max(program.beat_sizes)  # each beat divides it
            for base, size in program.address_ranges:
                if base % widest or size < largest:
                    where = f"{who} range [{base:#x},{base+size:#x})"
                    misaligned = [beat for beat in program.beat_sizes if base % beat]
                    if misaligned:
                        raise ScenarioError(
                            f"{where} base is not a multiple of beat size {misaligned[0]}"
                        )
                    raise ScenarioError(
                        f"{where} is smaller than the largest burst ({largest} bytes)"
                    )
            if niu.family is SocketFamily.THREADED:
                streams = program.threads
            elif niu.family is SocketFamily.ID_BASED:  # tag 2*id reads, 2*id + 1 writes
                writes = any(op.is_store and w > 0 for op, w in program.op_mix)
                streams = 2 * program.txn_ids - (not writes)
        elif isinstance(program, (ExclusiveLoopProgram, LockLoopProgram)):
            if program.iterations < 0:
                raise ScenarioError(f"{who} iteration count {program.iterations} is negative")
            if niu.family is not SocketFamily.FULLY_ORDERED:
                raise ScenarioError(
                    f"{who} loop program needs a fully_ordered NIU, got {niu.family.name.lower()}"
                )
            if niu.endianness is not Endianness.LITTLE:
                raise ScenarioError(f"{who} loop program needs a little-endian socket, "
                                    f"got {niu.endianness.name.lower()}")
            address = program.counter_address
            if address % COUNTER_BYTES:
                raise ScenarioError(f"{who} loop counter {address:#x} is not word aligned")
            if amap.decode(address) is None:
                raise ScenarioError(f"{who} loop counter {address:#x} does not decode")
            widest = COUNTER_BYTES
        elif isinstance(program, ScriptProgram):
            variant = FAMILY_VARIANT[niu.family]
            # (address, step) of the READEX whose lock is held: the one check
            # of lock pairing, which the NIU does not repeat at run time
            held = None
            for i, (request, wait) in enumerate(program.steps):
                problems = validate_request(request)
                if problems:
                    raise ScenarioError(f"{who} script step {i}: {problems}")
                key = request.order_key
                if key.variant is not variant:
                    raise ScenarioError(
                        f"{who} script step {i}: NIU speaks {niu.family.name}, "
                        f"got {key.variant.name} order key"
                    )
                opcode = request.opcode
                if wait and not needs_response(opcode):
                    raise ScenarioError(f"{who} script step {i} waits on a posted write")
                nbytes = request.byte_length
                if nbytes > niu.max_payload and (opcode.is_exclusive or opcode in _LOCKING):
                    raise ScenarioError(
                        f"{who} script step {i}: {opcode.name} burst of {nbytes} bytes does "
                        f"not fit one packet (max payload {niu.max_payload})"
                    )
                if key.thread_id < 0 or key.txn_id < 0:
                    raise ScenarioError(
                        f"{who} script step {i}: stream id must not be negative "
                        f"(thread {key.thread_id}, tid {key.txn_id})"
                    )
                address = request.address
                if opcode is Opcode.READEX:
                    if held is not None:
                        raise ScenarioError(
                            f"{who} script step {i}: READEX while the lock of step "
                            f"{held[1]} is held"
                        )
                    if amap.decode(address) is not None:  # a decode miss takes no lock
                        held = (address, i)
                elif opcode is Opcode.STORE_LOCKED_RELEASE:
                    if held is None:
                        raise ScenarioError(
                            f"{who} script step {i}: STORE_LOCKED_RELEASE with no lock held"
                        )
                    if address != held[0]:
                        raise ScenarioError(
                            f"{who} script step {i}: lock release address {address:#x} "
                            f"does not match the READEX address {held[0]:#x} of step {held[1]}"
                        )
                    held = None
                widest = max(widest, request.beat_size)
                streams = max(streams, stream_tag(key) + 1)
        else:
            raise ScenarioError(f"unknown program type {type(program).__name__}")
        if widest > niu.max_payload:
            raise ScenarioError(f"{who} beat size {widest} exceeds max payload {niu.max_payload}")
        policy = niu.tag_policy
        if policy.kind is TagPolicyKind.PER_STREAM and streams > policy.streams:
            raise ScenarioError(
                f"{who} uses {streams} order streams, beyond the {policy.streams} "
                "of its per-stream tag policy"
            )

    # -- derived variants ---------------------------------------------------------

    def with_run(self, **changes) -> "Scenario":
        """A variant with a new run, the one part it checks; it shares the rest."""
        variant = copy(self)
        object.__setattr__(variant, "run", replace(self.run, **changes))
        return variant

    def with_mode(self, mode: TransportMode) -> "Scenario":
        return self.with_run(mode=mode)

    def with_seed(self, seed: int) -> "Scenario":
        return self.with_run(seed=seed)

    def with_trace_level(self, level: str) -> "Scenario":
        return self.with_run(trace_level=level)

    def with_link_params(self, params: LinkParams) -> "Scenario":
        """Same scenario with every link and attachment using `params`: a new
        topology, which checks itself, and the buffer depths checked again."""
        topo = self.topology
        links = [replace(ln, params=params) for ln in topo.links]
        attachments = [replace(at, params=params) for at in topo.attachments]
        return replace(self, topology=replace(topo, links=links, attachments=attachments))


# ---------------------------------------------------------------------------
# YAML loading
# ---------------------------------------------------------------------------
# Each YAML mapping has one table: key -> (field, reader) or (field, reader,
# default). A reader gets the value, its key and the mapping's label, such
# as "{} of a link", which names values in messages, "{}" standing for the
# key. A pair's field is a pair of field names. Only the keys present are
# passed on, so a default is the dataclass field's; a table holds one only
# where no dataclass does. A key whose entry is None is read by the caller.


def _int(value, label: str) -> int:
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
    raise ScenarioError(f"{label} must be an integer, got {value!r}")


def _integer(value, key: str, label: str) -> int:
    return _int(value, label.format(key))


def _list(read):
    return lambda values, key, label: [read(v, key, label) for v in values]


def _pair(first: str, second: str):
    def read(value, key: str, label: str) -> tuple[int, int]:
        a, b = value
        return _int(a, label.format(f"{key} {first}")), _int(b, label.format(f"{key} {second}"))

    return read


def _choice(what: str, names: dict):
    def read(value, key: str, label: str):
        if value not in names:
            raise ScenarioError(f"unknown {what} {value!r}")
        return names[value]

    return read


def _enum(what: str, enum):
    return _choice(what, {member.name.lower(): member for member in enum})


def _tag_policy(spec, key: str, label: str) -> TagPolicy:
    if spec == "single":
        return TagPolicy(TagPolicyKind.SINGLE_OUTSTANDING)
    if isinstance(spec, dict) and len(spec) == 1:
        if "per_stream" in spec:
            streams = _int(spec["per_stream"], label.format("tag_policy per_stream"))
            return TagPolicy(TagPolicyKind.PER_STREAM, streams=streams)
        if "pooled" in spec:
            capacity = _int(spec["pooled"], label.format("tag_policy pooled"))
            return TagPolicy(TagPolicyKind.POOLED, capacity=capacity)
    raise ScenarioError(f"unknown tag policy {spec!r}")


def _routing(doc, *_) -> Optional[dict[int, dict[int, int]]]:
    if doc == "auto":
        return None  # shortest paths
    return {
        _int(sw, "routing switch"): {
            _int(t, "routing target"): _int(p, "routing port") for t, p in targets.items()
        }
        for sw, targets in doc.items()
    }


def _steps(steps, key: str, label: str) -> list[dict]:
    return [_read(_STEP, step, label.format(f"script step {i}")) for i, step in enumerate(steps)]


def _read(table: dict, doc, where: str, label: str = "") -> dict:
    """The fields one YAML mapping gives, read through its table.

    A key the table does not define is rejected, so a typo cannot silently
    fall back to a default. ``label`` defaults to "{} of <where>".
    """
    if not isinstance(doc, dict):
        raise ScenarioError(f"malformed scenario: {where} must be a mapping")
    unknown = sorted(str(k) for k in doc if k not in table)
    if unknown:
        raise ScenarioError(f"unknown key {', '.join(map(repr, unknown))} in {where}")
    label = label or "{} of " + where
    fields = {}
    for key, entry in table.items():
        if entry is None or (key not in doc and len(entry) < 3):
            continue
        name, read, *default = entry
        value = read(doc[key] if key in doc else default[0], key, label)
        if isinstance(name, tuple):
            fields.update(zip(name, value))
        else:
            fields[name] = value
    return fields


def _link(table: dict, doc, where: str) -> dict:
    """A link mapping's fields, the physical ones folded into ``params``."""
    fields = _read(table, doc, where)
    physical = [name for name, _ in _LINK_PARAMS.values()]
    params = LinkParams(**{f: fields.pop(f) for f in physical if f in fields})
    return {**fields, "params": params}


_OPCODE = _enum("opcode", Opcode)
_SCENARIO = dict.fromkeys(("run", "topology", "nius", "workload"))
_RUN = {
    "mode": ("mode", _enum("transport mode", TransportMode)),
    "seed": ("seed", _integer), "max_cycles": ("max_cycles", _integer),
    "trace_level": ("trace_level", _choice("trace level", {n: n for n in TRACE_LEVELS})),
}
_TOPOLOGY = {"switches": None, "links": None, "routing": ("routing", _routing)}
_SWITCH = {"id": ("switch_id", _integer), "ports": ("ports", _integer)}
_LINK_PARAMS = {
    "width": ("flit_payload_width", _integer), "latency": ("latency", _integer),
    "rate_ratio": ("rate_ratio", _integer),
}
_NIU_LINK = {**_LINK_PARAMS, "buffer_depth": ("buffer_depth", _integer)}
_LINK = {
    "a": (("a_switch", "a_port"), _pair("switch", "port")),
    "b": (("b_switch", "b_port"), _pair("switch", "port")), **_NIU_LINK,
}
_NIU = {
    "id": ("niu_id", _integer), "role": None, "attach": ("attach", _pair("switch", "port")),
    "link": ("link", lambda doc, key, label: _link(_NIU_LINK, doc, label.format("the link"))),
}
_ROLES = {
    "target": (TargetConfig, {
        **_NIU, "region": (("region_base", "region_size"), _pair("base", "size")),
        "memory": ("memory_size", _integer), "monitor_granule": ("monitor_granule", _integer),
    }),
    "initiator": (InitiatorConfig, {
        **_NIU, "family": ("family", _enum("socket family", SocketFamily), "fully_ordered"),
        "tag_policy": ("tag_policy", _tag_policy, "single"),
        "max_payload": ("max_payload", _integer),
        "endianness": ("endianness", _enum("endianness", Endianness)),
        "priority": ("priority", _integer),
    }),
}
_WORKLOAD = dict.fromkeys(("master", "program"))
_LOOP = {
    "kind": None, "counter": ("counter_address", _integer),
    "iterations": ("iterations", _integer),
}
_PROGRAMS = {
    "random": (RandomProgram, {
        "kind": None, "transactions": ("transactions", _integer),
        "op_mix": ("op_mix", lambda mix, key, label: {
            _OPCODE(op, key, label): float(weight) for op, weight in mix.items()
        }),
        "address_ranges": ("address_ranges", _list(_pair("base", "size"))),
        "burst_lens": ("burst_lens", _list(_integer)),
        "beat_sizes": ("beat_sizes", _list(_integer)),
        "threads": ("threads", _integer), "txn_ids": ("txn_ids", _integer),
        "max_bytes": ("max_bytes", _integer),
    }),
    "exclusive_loop": (ExclusiveLoopProgram, _LOOP),
    "lock_loop": (LockLoopProgram, _LOOP),
    "script": (ScriptProgram, {"kind": None, "steps": ("steps", _steps)}),
}
_STEP = {
    "op": ("opcode", _OPCODE), "addr": ("address", _integer),
    "data": ("data", lambda text, key, label: bytes.fromhex(text)),
    "beats": ("burst_len", _integer, 1), "beat_size": ("beat_size", _integer, 4),
    "thread": ("thread_id", _integer), "tid": ("txn_id", _integer),
    "channel": ("channel", _enum("channel", Channel)),
    "wait": ("wait", _choice("wait flag", {False: False, True: True})),
}


def _script_step(fields: dict, family: SocketFamily):
    """A script step's (request, wait) from the fields its mapping gives."""
    opcode, wait = fields["opcode"], fields.pop("wait", False)
    key = {f: fields.pop(f) for f in ("thread_id", "txn_id", "channel") if f in fields}
    if family is SocketFamily.ID_BASED:
        key.setdefault("channel", Channel.READ if opcode.is_load else Channel.WRITE)
    order_key = SocketOrderKey(FAMILY_VARIANT[family], **key)
    return TransactionRequest(order_key=order_key, **fields), wait


def _program(doc: dict, family: SocketFamily, master_id: int) -> Program:
    kind = doc.get("kind")
    if kind not in _PROGRAMS:
        raise ScenarioError(f"unknown program kind {kind!r}")
    cls, table = _PROGRAMS[kind]
    where = f"master {master_id}"
    fields = _read(table, doc, f"{kind} program of {where}", "{} of " + where)
    if cls is ScriptProgram:
        fields["steps"] = [_script_step(f, family) for f in fields["steps"]]
    return cls(**fields)


def scenario_from_dict(doc: dict) -> Scenario:
    try:
        _read(_SCENARIO, doc, "the scenario")
        topo_doc = doc["topology"]
        routing = _read(_TOPOLOGY, topo_doc, "topology")
        switches = [
            SwitchSpec(**_read(_SWITCH, s, f"switch {_int(s['id'], 'switch id')}"))
            for s in topo_doc["switches"]
        ]
        links = [LinkSpec(**_link(_LINK, ln, "a link")) for ln in topo_doc.get("links", [])]
        attachments, targets, initiators = [], [], []
        for n in doc["nius"]:
            niu_id = _int(n["id"], "NIU id")
            if n["role"] not in _ROLES:
                raise ScenarioError(f"NIU {niu_id} role must be initiator or target")
            cls, table = _ROLES[n["role"]]
            fields = _read(table, n, f"NIU {niu_id}")
            link = fields.pop("link", {})
            attachments.append(AttachmentSpec(niu_id, *fields.pop("attach"), **link))
            (targets if cls is TargetConfig else initiators).append(cls(**fields))

        configs = {config.niu_id: config for config in initiators}
        programs: dict[int, Program] = {}
        for w in doc.get("workload", []):
            _read(_WORKLOAD, w, "a workload entry")
            mid = _int(w["master"], "workload master")
            if mid not in configs:
                raise ScenarioError(f"workload references unknown initiator {mid}")
            programs[mid] = _program(w["program"], configs[mid].family, mid)
        masters = []
        for config in initiators:
            if config.niu_id not in programs:
                raise ScenarioError(f"initiator {config.niu_id} has no workload program")
            masters.append(MasterSpec(config, programs[config.niu_id]))

        run = RunSpec(**_read(_RUN, doc.get("run", {}), "run", "run {}"))
    except ScenarioError:
        raise
    except (KeyError, TypeError, ValueError, IndexError, AttributeError, OverflowError) as exc:
        raise ScenarioError(f"malformed scenario: {exc!r}") from exc

    return Scenario(run, Topology(switches, links, attachments, **routing), targets, masters)


# how deep a scenario file's values may nest: PyYAML composes a node by
# recursion, three frames a level, and would fail at Python's limit
MAX_NESTING = 32


@cache
def _yaml():
    """PyYAML, imported here as only reading a file needs it, and a safe
    loader that refuses values nested deeper than ``MAX_NESTING`` and a key
    repeated within one mapping as written."""
    import yaml

    class Loader(yaml.SafeLoader):
        depth = 0  # of the node being composed

        def compose_node(self, parent, index):
            if self.depth == MAX_NESTING:
                raise yaml.composer.ComposerError(
                    None, None, f"values nest deeper than {MAX_NESTING} levels",
                    self.peek_event().start_mark,
                )
            self.depth += 1
            node = super().compose_node(parent, index)
            self.depth -= 1
            # a mapping's keys as written: merge keys are flattened in when it
            # is constructed. A key that is not a scalar is left to PyYAML.
            keys = set()
            for key_node, _ in node.value if node.id == "mapping" else ():
                if key_node.id == "scalar" and key_node.tag != "tag:yaml.org,2002:merge":
                    key = self.construct_object(key_node)
                    if key in keys:
                        raise yaml.constructor.ConstructorError(
                            None, None, f"repeated key {key!r}", key_node.start_mark
                        )
                    keys.add(key)
            return node

    return yaml, Loader


def load_scenario(path: str | Path) -> Scenario:
    yaml, loader = _yaml()
    try:
        with open(path, encoding="utf-8") as stream:  # marks in messages name the file
            doc = yaml.load(stream, loader)
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"scenario file {path} is not UTF-8: {exc}") from None
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


# per socket family: the tag policy a random master draws against a pool,
# and the pool sizes it draws from; the pool size is drawn first
_random_tag_policies = {
    SocketFamily.FULLY_ORDERED: (TagPolicy(TagPolicyKind.SINGLE_OUTSTANDING), (2, 4, 8)),
    SocketFamily.THREADED: (TagPolicy(TagPolicyKind.PER_STREAM, streams=4), (4, 8)),
    SocketFamily.ID_BASED: (TagPolicy(TagPolicyKind.PER_STREAM, streams=8), (4, 8)),
}


def _check_count(name: str, value: Optional[int], low: int, high: Optional[int] = None) -> None:
    """Refuse a generator's count outside ``low..high``; None means drawn."""
    if value is not None and (value < low or high is not None and value > high):
        bound = f"at least {low}" if high is None else f"in {low}..{high}"
        raise ScenarioError(f"{name} must be {bound}, got {value}")


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
    physical-independence suites lean on. Each master gets the integer part
    of ``total_transactions / n_masters``; the remainder is dropped.
    """
    _check_count("n_masters", n_masters, 1, 64)  # a 64-byte slice each of 4096 bytes
    _check_count("n_switches", n_switches, 1)
    _check_count("total_transactions", total_transactions, 0)
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
    per_master = total // n_m
    for i in range(n_m):
        sw = rng.randrange(n_sw)
        attachments.append((i, sw, ports.take(sw)))
        family = rng.choice(list(SocketFamily))
        other, pool_sizes = _random_tag_policies[family]
        pooled = TagPolicy(TagPolicyKind.POOLED, capacity=rng.choice(pool_sizes))
        policy = rng.choice([other, pooled])
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
    return Scenario(
        run=RunSpec(seed=seed, trace_level=trace_level),
        topology=topology,
        targets=targets,
        masters=masters,
    )


def atomic_loop_scenario(
    kind: str,
    n_masters: int = 2,
    iterations: int = 50,
    seed: int = 1,
    mode: TransportMode = TransportMode.WORMHOLE,
) -> Scenario:
    """M masters incrementing one counter via exclusive pairs or READEX/LOCK.

    The masters are spread over two linked switches, the target sits on the
    second.
    """
    if kind not in ("exclusive", "lock"):
        raise ScenarioError("loop kind must be 'exclusive' or 'lock'")
    _check_count("n_masters", n_masters, 1, 100)  # NIU 100 is the target
    ports = _Ports()
    link = LinkSpec(0, ports.take(0), 1, ports.take(1))
    attachments = [AttachmentSpec(100, 1, ports.take(1))]
    counter = 64
    program_cls = ExclusiveLoopProgram if kind == "exclusive" else LockLoopProgram
    masters = []
    for i in range(n_masters):
        sw = i % 2
        attachments.append(AttachmentSpec(i, sw, ports.take(sw)))
        niu = InitiatorConfig(
            niu_id=i,
            family=SocketFamily.FULLY_ORDERED,
            tag_policy=TagPolicy(TagPolicyKind.SINGLE_OUTSTANDING),
        )
        masters.append(MasterSpec(niu=niu, program=program_cls(counter, iterations)))
    topology = Topology(
        switches=[SwitchSpec(0, ports.used[0]), SwitchSpec(1, ports.used[1])],
        links=[link],
        attachments=attachments,
    )
    return Scenario(
        run=RunSpec(mode=mode, seed=seed, trace_level="full"),
        topology=topology,
        targets=[TargetConfig(niu_id=100, region_base=0, region_size=4096)],
        masters=masters,
    )
