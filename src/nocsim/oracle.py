"""Zero-latency single-bus reference model.

Executes a scenario's workload against plain byte arrays with no fabric, no
timing, and no concurrency: masters run one after another in id order. For
atomic increment loops the reference outcome is the arithmetic one (every
iteration succeeds), which is exactly the bar a correct interconnect has to
meet for the counter experiments.

Meaningful only for scenarios whose memory outcome is schedule-independent:
single-outstanding or disjoint-range masters, and atomic loop workloads.
"""

from __future__ import annotations

from .niu import FABRIC_ENDIANNESS, endianness_convert
from .scenario import ExclusiveLoopProgram, LockLoopProgram, Scenario
from .workload import COUNTER_BYTES
from .engine import scripted_steps_for


def sequential_oracle(scenario: Scenario) -> dict[int, bytes]:
    """Final memory image per target under sequential execution."""
    amap = scenario.address_map
    memories = {t.niu_id: bytearray(t.memory_size) for t in scenario.targets}

    for spec in sorted(scenario.masters, key=lambda m: m.master_id):
        program = spec.program
        if isinstance(program, (ExclusiveLoopProgram, LockLoopProgram)):
            tid, off = amap.decode(program.counter_address)  # a miss is refused at load
            mem = memories[tid]
            value = int.from_bytes(mem[off : off + COUNTER_BYTES], "little")
            value += program.iterations
            mem[off : off + COUNTER_BYTES] = value.to_bytes(COUNTER_BYTES, "little")
            continue
        steps = scripted_steps_for(spec, scenario.run.seed)
        for request, _wait in steps:
            if not request.opcode.is_store:
                continue
            decoded = amap.decode(request.address)
            if decoded is None:
                continue
            tid, off = decoded
            mem = memories[tid]
            if off + request.byte_length > len(mem):
                continue
            data = endianness_convert(
                request.data,
                request.beat_size,
                spec.niu.endianness,
                FABRIC_ENDIANNESS,
            )
            mem[off : off + len(data)] = data

    return {tid: bytes(mem) for tid, mem in sorted(memories.items())}
