"""Scenario model: YAML loading, validation diagnostics, derived variants."""

import re
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
import yaml

from helpers import line_scenario, req

from nocsim import fabric, scenario as scenario_module, transaction
from nocsim.engine import Engine, run, scripted_steps_for
from nocsim.errors import ScenarioError
from nocsim.fabric import AttachmentSpec, SwitchSpec, TransportMode
from nocsim.link import LinkParams
from nocsim.scenario import (
    ScriptProgram,
    atomic_loop_scenario,
    load_scenario,
    random_scenario,
    scenario_from_dict,
)
from nocsim.transaction import Opcode, SocketOrderKey

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def _loader_keys() -> set:
    """Every key of the loader's tables: the private upper-case dicts of the
    scenario module, or the tables in one whose values are (class, table)."""
    keys = set()
    for name, value in vars(scenario_module).items():
        if not (name.startswith("_") and name[1:].isupper() and isinstance(value, dict)):
            continue
        nested = [v[1] for v in value.values() if isinstance(v, tuple) and isinstance(v[1], dict)]
        for table in nested or [value]:
            keys.update(table)
    return keys


def test_readme_shows_every_scenario_key():
    readme = (SCENARIO_DIR.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Scenario files", 1)[1].split("\n## ", 1)[0]
    keys = _loader_keys()
    assert {"run", "width", "tag_policy", "max_bytes", "steps", "channel", "wait"} <= keys
    missing = sorted(k for k in keys if not re.search(rf"(?<![\w]){re.escape(k)}:", section))
    assert missing == []


def test_shipped_scenarios_load():
    files = sorted(SCENARIO_DIR.glob("*.yaml"))
    assert len(files) >= 5
    for f in files:
        load_scenario(f)


def _doc():
    return {
        "run": {"mode": "wormhole", "seed": 1},
        "topology": {
            "switches": [{"id": 0, "ports": 2}, {"id": 1, "ports": 2}],
            "links": [{"a": [0, 1], "b": [1, 0]}],
            "routing": "auto",
        },
        "nius": [
            {"id": 0, "role": "initiator", "attach": [0, 0], "family": "fully_ordered",
             "tag_policy": "single"},
            {"id": 100, "role": "target", "attach": [1, 1], "region": [0, 4096]},
        ],
        "workload": [
            {"master": 0, "program": {
                "kind": "random", "transactions": 10,
                "op_mix": {"load": 1.0}, "address_ranges": [[0, 256]],
            }},
        ],
    }


def test_dict_round_trip_runs():
    scenario = scenario_from_dict(_doc())
    result = run(scenario)
    assert not result.timed_out
    assert result.stats.completed_transactions == 10


def test_overlapping_regions_diagnosed():
    doc = _doc()
    doc["topology"]["switches"][1]["ports"] = 3
    doc["nius"].append(
        {"id": 101, "role": "target", "attach": [1, 2], "region": [2048, 4096]}
    )
    with pytest.raises(ScenarioError, match="overlap"):
        scenario_from_dict(doc)


def test_unknown_family_diagnosed():
    doc = _doc()
    doc["nius"][0]["family"] = "token_ring"
    with pytest.raises(ScenarioError, match="token_ring"):
        scenario_from_dict(doc)


def test_missing_program_diagnosed():
    doc = _doc()
    doc["workload"] = []
    with pytest.raises(ScenarioError, match="no workload program"):
        scenario_from_dict(doc)


def test_unroutable_explicit_table_diagnosed():
    doc = _doc()
    doc["topology"]["routing"] = {0: {100: 1}, 1: {100: 1}}  # no route to NIU 0
    with pytest.raises(ScenarioError, match="unroutable.*NIU 0"):
        scenario_from_dict(doc)


def test_port_reuse_diagnosed():
    doc = _doc()
    doc["nius"][1]["attach"] = [1, 0]  # same port as the link
    with pytest.raises(ScenarioError, match="used twice"):
        scenario_from_dict(doc)


def test_range_outside_regions_diagnosed():
    doc = _doc()
    doc["workload"][0]["program"]["address_ranges"] = [[4000, 4096]]
    with pytest.raises(ScenarioError, match="single target region"):
        scenario_from_dict(doc)


def _cut_master_0(scenario, **program_edits):
    m = scenario.masters[0]
    m = replace(m, program=replace(m.program, **program_edits))
    return replace(scenario, masters=(m, *scenario.masters[1:]))


def test_range_below_largest_burst_fails_validation_for_every_seed():
    # the refusal reads the program alone, so a scenario built with it is
    # refused whatever its seed
    scenario = random_scenario(3)
    base = scenario.masters[0].program.address_ranges[0][0]
    message = (
        f"master 0 range [{base:#x},{base + 4:#x}) is smaller than the largest "
        "burst (8 bytes)"
    )
    for seed in range(1, 9):
        with pytest.raises(ScenarioError) as err:
            _cut_master_0(
                scenario.with_seed(seed), address_ranges=[(base, 4)], beat_sizes=[4],
                burst_lens=[1, 2], transactions=3,
            )
        assert str(err.value) == message


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"address_ranges": [[0, 4]], "beat_sizes": [4], "burst_lens": [1, 2]},
         "master 0 range [0x0,0x4) is smaller than the largest burst (8 bytes)"),
        # no burst of 16 eight-byte beats fits 64 bytes: one beat is the largest
        ({"address_ranges": [[0, 4]], "beat_sizes": [8], "burst_lens": [16]},
         "master 0 range [0x0,0x4) is smaller than the largest burst (8 bytes)"),
        ({"address_ranges": [[0, 32]], "beat_sizes": [1, 2], "burst_lens": [64]},
         "master 0 range [0x0,0x20) is smaller than the largest burst (64 bytes)"),
        ({"address_ranges": [[2, 256]], "beat_sizes": [4]},
         "master 0 range [0x2,0x102) base is not a multiple of beat size 4"),
        ({"address_ranges": [[2, 256]], "beat_sizes": [1, 2, 4, 8]},
         "master 0 range [0x2,0x102) base is not a multiple of beat size 4"),
        ({"beat_sizes": [1, 3]}, "master 0 beat size 3 is not a power of two"),
    ],
)
def test_random_program_draws_that_cannot_be_valid_diagnosed(edit, message):
    doc = _doc()
    doc["workload"][0]["program"].update(edit)
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert str(err.value) == message
    doc["workload"][0]["program"]["transactions"] = 0
    run(scenario_from_dict(doc))  # nothing is drawn, so nothing can fail


@pytest.mark.parametrize(
    "edit",
    [
        {"address_ranges": [[0, 8]], "beat_sizes": [8], "burst_lens": [16]},
        {"address_ranges": [[4, 8]], "beat_sizes": [4], "burst_lens": [1, 2]},
        {"address_ranges": [[0, 64]], "beat_sizes": [1, 2, 4], "burst_lens": [64]},
    ],
)
def test_random_program_at_its_limits_runs(edit):
    doc = _doc()
    doc["workload"][0]["program"].update(edit)
    result = run(scenario_from_dict(doc))
    assert result.stats.completed_transactions == 10


_LOOP = {"kind": "exclusive_loop", "counter": 64, "iterations": 3}


_READEX = {"op": "readex", "addr": 0x40, "wait": True}
_RELEASE = {"op": "store_locked_release", "addr": 0x40, "data": "01000000", "wait": True}


def _script(*steps: dict) -> dict:
    return {"kind": "script", "steps": list(steps)}


def _paired(initiator: dict, program: dict, target: dict) -> dict:
    """The base document with its initiator, program and target edited."""
    doc = _doc()
    doc["nius"][0].update(initiator)
    doc["nius"][1].update(target)
    if "kind" in program:
        doc["workload"][0]["program"] = program
    else:
        doc["workload"][0]["program"].update(program)
    return doc


# Each of these used to load, then fail in Engine(...) or mid-run; the
# negative stream ids ran with negative packet tags, and memory past a
# region was allocated but could never be addressed. The NIU settings from
# capacity on are refused here only: the NIU constructors no longer check.
@pytest.mark.parametrize("initiator, program, target, message", [
    ({"family": "threaded"}, _LOOP, {},
     "master 0 loop program needs a fully_ordered NIU, got threaded"),
    ({"family": "id_based", "tag_policy": {"pooled": 4}}, {**_LOOP, "kind": "lock_loop"}, {},
     "master 0 loop program needs a fully_ordered NIU, got id_based"),
    ({}, {"op_mix": {"load": 1.0, "readex": 1.0}}, {},
     "master 0 op_mix may only hold LOAD, STORE and STORE_POSTED, got READEX"),
    ({}, {}, {"monitor_granule": 3}, "target NIU 100 monitor granule 3 is not a power of two"),
    ({}, {}, {"monitor_granule": 0}, "target NIU 100 monitor granule 0 is not a power of two"),
    ({"max_payload": 2}, _LOOP, {}, "master 0 beat size 4 exceeds max payload 2"),
    ({"max_payload": 4}, {"beat_sizes": [8]}, {}, "master 0 beat size 8 exceeds max payload 4"),
    ({"max_payload": 4},
     {"kind": "script", "steps": [{"op": "load", "addr": 0x40, "beat_size": 8}]}, {},
     "master 0 beat size 8 exceeds max payload 4"),
    ({"family": "threaded", "tag_policy": {"per_stream": 2}}, {"threads": 3}, {},
     "master 0 uses 3 order streams, beyond the 2 of its per-stream tag policy"),
    ({"family": "id_based", "tag_policy": {"per_stream": 3}},
     {"txn_ids": 2, "op_mix": {"load": 1.0, "store": 1.0}}, {},
     "master 0 uses 4 order streams, beyond the 3 of its per-stream tag policy"),
    ({"family": "threaded", "tag_policy": {"per_stream": 2}},
     {"kind": "script", "steps": [{"op": "load", "addr": 0x40, "thread": 2}]}, {},
     "master 0 uses 3 order streams, beyond the 2 of its per-stream tag policy"),
    ({"max_payload": 8},
     {"kind": "script", "steps": [{"op": "load_exclusive", "addr": 0x40, "beats": 4}]}, {},
     "master 0 script step 0: LOAD_EXCLUSIVE burst of 16 bytes does not fit one packet "
     "(max payload 8)"),
    ({"max_payload": 8},
     {"kind": "script", "steps": [{"op": "readex", "addr": 0x40, "beats": 4, "wait": True}]},
     {}, "master 0 script step 0: READEX burst of 16 bytes does not fit one packet "
     "(max payload 8)"),
    ({"family": "threaded", "tag_policy": {"per_stream": 4}},
     {"kind": "script", "steps": [{"op": "load", "addr": 0x40},
                                  {"op": "load", "addr": 0x44, "thread": -1}]}, {},
     "master 0 script step 1: stream id must not be negative (thread -1, tid 0)"),
    ({"family": "id_based", "tag_policy": {"per_stream": 4}},
     {"kind": "script", "steps": [{"op": "load", "addr": 0x40},
                                  {"op": "load", "addr": 0x44, "tid": -2}]}, {},
     "master 0 script step 1: stream id must not be negative (thread 0, tid -2)"),
    ({}, {}, {"memory": 4097},
     "target NIU 100 memory size 4097 exceeds its region size 4096"),
    ({"capacity": 0}, {}, {}, "initiator NIU 0 capacity 0 is not in 1..16"),
    ({"capacity": 17}, {}, {}, "initiator NIU 0 capacity 17 is not in 1..16"),
    ({"max_payload": 0}, {}, {}, "initiator NIU 0 max payload 0 is not positive"),
    ({"priority": 8}, {}, {}, "initiator NIU 0 priority 8 is not in 0..7"),
    ({"priority": -1}, {}, {}, "initiator NIU 0 priority -1 is not in 0..7"),
    ({"tag_policy": {"per_stream": 0}}, {}, {},
     "initiator NIU 0 per-stream tag policy has 0 streams, not 1..16"),
    ({"tag_policy": {"pooled": 17}}, {}, {},
     "initiator NIU 0 pooled tag policy has 17 tags, not 1..16"),
    ({}, {}, {"region": [0, 0]}, "target NIU 100 region size 0 is not positive"),
    ({}, {}, {"memory": -1}, "target NIU 100 memory size -1 is negative"),
    # the memory defaults to the region, which no bytearray can hold
    ({}, {}, {"region": [0, 2**63]},
     f"target NIU 100 memory size exceeds {sys.maxsize} bytes"),
    ({}, {"transactions": -1}, {}, "master 0 transaction count -1 is negative"),
    *[({}, {"op_mix": mix}, {},
       "master 0 op_mix weights must be finite, non-negative and not all zero")
      for mix in ({"load": -1.0, "store": 2.0}, {"load": float("inf")},
                  {"load": 1.0, "store": float("nan")}, {"load": 0.0}, {})],
    ({"endianness": "big"}, _LOOP, {}, "master 0 loop program needs a little-endian socket, got big"),
    ({}, {**_LOOP, "counter": 66}, {}, "master 0 loop counter 0x42 is not word aligned"),
    ({}, {**_LOOP, "counter": 0x2000}, {}, "master 0 loop counter 0x2000 does not decode"),
    # each lock-pairing fault stopped the run at the NIU, a simulation fault
    ({}, _script(_READEX, {**_READEX, "addr": 0x44}), {},
     "master 0 script step 1: READEX while the lock of step 0 is held"),
    ({}, _script({"op": "load", "addr": 0x40}, _RELEASE), {},
     "master 0 script step 1: STORE_LOCKED_RELEASE with no lock held"),
    ({}, _script(_READEX, {**_RELEASE, "addr": 0x44}), {},
     "master 0 script step 1: lock release address 0x44 does not match the READEX "
     "address 0x40 of step 0"),
    # a READEX that does not decode gets an error response and takes no lock
    ({}, _script({**_READEX, "addr": 0x2000}, {**_RELEASE, "addr": 0x2000}), {},
     "master 0 script step 1: STORE_LOCKED_RELEASE with no lock held"),
    # a request outside the address space stopped the run at the NIU
    ({}, {**_LOOP, "counter": 0xFFFFFF40}, {"region": [0xFFFFFF00, 0x1000]},
     "target NIU 100 region [0xffffff00,0x100000f00) leaves the 32-bit address space"),
    ({}, {"address_ranges": [[-4096, 256]]}, {"region": [-4096, 8192]},
     "target NIU 100 region [-0x1000,0x1000) leaves the 32-bit address space"),
    # refused before any pairing is looked at
    ({}, {"burst_lens": []}, {}, "master 0 burst_lens must list positive integers"),
    ({}, {"burst_lens": [1, 0]}, {}, "master 0 burst_lens must list positive integers"),
    ({}, {"threads": 0}, {}, "master 0 threads and txn_ids must be positive"),
    ({}, {"address_ranges": []}, {}, "master 0 random program has no address range"),
    ({}, _script({"op": "bogus", "addr": 0x40}), {}, "unknown opcode 'bogus'"),
    # a negative count ran as zero iterations and passed
    ({}, {**_LOOP, "iterations": -3}, {}, "master 0 iteration count -3 is negative"),
    ({}, {**_LOOP, "kind": "lock_loop", "iterations": -1}, {},
     "master 0 iteration count -1 is negative"),
])
def test_pairing_that_fails_later_refused_at_load(tmp_path, initiator, program, target, message):
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(_paired(initiator, program, target)))
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert str(err.value) == message


@pytest.mark.parametrize("initiator, program, target", [
    ({"family": "threaded", "tag_policy": {"per_stream": 3}}, {"threads": 3}, {}),
    # loads only: the write stream of the last id is never used
    ({"family": "id_based", "tag_policy": {"per_stream": 3}}, {"txn_ids": 2}, {}),
    ({"family": "id_based", "tag_policy": {"per_stream": 4}},
     {"txn_ids": 2, "op_mix": {"load": 1.0, "store": 1.0}}, {}),
    ({"family": "threaded", "tag_policy": {"per_stream": 3}},
     {"kind": "script", "steps": [{"op": "load", "addr": 0x40, "thread": 2}]}, {}),
    ({"max_payload": 4}, _LOOP, {"monitor_granule": 1}),
    ({"max_payload": 4}, {"beat_sizes": [4]}, {}),
    ({"max_payload": 16},
     {"kind": "script", "steps": [{"op": "load_exclusive", "addr": 0x40, "beats": 4}]}, {}),
    ({}, {}, {"memory": 4096}),
    ({}, _script({**_READEX, "addr": 0x2000}, _READEX, _RELEASE, _READEX), {}),
    ({}, {**_LOOP, "counter": 0xFFFFF040}, {"region": [0xFFFFF000, 0x1000]}),
])
def test_pairing_at_its_limit_runs(initiator, program, target):
    result = run(scenario_from_dict(_paired(initiator, program, target)))
    assert not result.timed_out and result.stats.completed_transactions > 0


def test_script_load_below_the_lowest_region_gets_a_decode_error():
    steps = _script({"op": "load", "addr": 0x40, "wait": True},
                    {"op": "load", "addr": 0x1040, "wait": True})
    result = run(scenario_from_dict(_paired({}, steps, {"region": [0x1000, 4096]})))
    assert not result.timed_out
    assert [(ev.address, ev.op) for ev in result.trace if ev.kind == "RESP_EMITTED"] == [
        (0x40, "ERROR_DECODE"), (0x1040, "OKAY"),
    ]


def _second_initiator(doc: dict, niu_id: int) -> None:
    """Add an initiator with its own port on switch 0, and a program for it."""
    doc["topology"]["switches"][0]["ports"] = 3
    doc["nius"].append({"id": niu_id, "role": "initiator", "attach": [0, 2]})
    doc["workload"].append({"master": niu_id, "program": doc["workload"][0]["program"]})


def _hand_built(edit):
    """The base scenario, rebuilt with a part the YAML reader cannot give."""
    def build(tmp_path):
        edit(scenario_from_dict(_doc()))
    return build


def _loaded(edit):
    def build(tmp_path):
        doc = _doc()
        edit(doc)
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(doc))
        load_scenario(path)
    return build


# Refusals that name the switch or NIU they refuse. A YAML document gives
# each NIU one attachment, so a repeated NIU id is refused as an attachment
# before the masters and targets are compared; only a scenario built by hand
# reaches those checks.
@pytest.mark.parametrize("build, message", [
    (_loaded(lambda d: d["topology"]["switches"].append({"id": 1, "ports": 2})),
     "duplicate switch id 1"),
    (_loaded(lambda d: _second_initiator(d, 100)),
     "NIU 100 attaches to more than one switch port"),
    (_hand_built(lambda s: replace(s, masters=(*s.masters, s.masters[0]))),
     "duplicate master/initiator NIU id 0"),
    (_hand_built(lambda s: replace(s, targets=(*s.targets, s.targets[0]))),
     "duplicate target NIU id 100"),
    (_hand_built(lambda s: replace(s, masters=(*s.masters, replace(s.masters[0], niu=replace(
        s.masters[0].niu, niu_id=100))))), "NIU 100 is both an initiator and a target"),
    # the YAML reader gives every step its NIU's key variant
    (_hand_built(lambda s: replace(s, masters=(replace(s.masters[0], program=ScriptProgram(
        [(req(0, Opcode.LOAD, 0x40, key=SocketOrderKey.thread(3)), False)])),))),
     "master 0 script step 0: NIU speaks FULLY_ORDERED, got THREAD order key"),
    (_hand_built(lambda s: replace(s, topology=replace(
        s.topology, attachments=s.topology.attachments[:1]))),
     "attachment/NIU mismatch: attached [0], declared [0, 100]"),
    (_loaded(lambda d: d["workload"][0].update(program=_script(
        {"op": "load", "addr": 0x40, "beats": 0}))),
     "master 0 script step 0: ['burst length must be at least 1']"),
    (_loaded(lambda d: d["workload"][0].update(program=_script(
        {"op": "load", "addr": 0x40, "data": "01"}))),
     "master 0 script step 0: ['loads must carry no data']"),
    # library input that no YAML document gives; these name no switch or NIU
    (_hand_built(lambda s: replace(s, masters=(replace(s.masters[0], program="bogus"),))),
     "unknown program type str"),
    (lambda tmp_path: atomic_loop_scenario("bogus"), "loop kind must be 'exclusive' or 'lock'"),
])
def test_refusal_names_its_switch_or_niu(tmp_path, build, message):
    with pytest.raises(ScenarioError) as err:
        build(tmp_path)
    assert str(err.value) == message


# Each of these ended in a traceback from inside the generator, built a
# scenario with no masters, or blamed an NIU id collision on the topology.
@pytest.mark.parametrize("build, message", [
    (lambda: random_scenario(1, n_masters=0), "n_masters must be in 1..64, got 0"),
    (lambda: random_scenario(1, n_masters=-1), "n_masters must be in 1..64, got -1"),
    (lambda: random_scenario(1, n_masters=65), "n_masters must be in 1..64, got 65"),
    (lambda: random_scenario(1, n_switches=0), "n_switches must be at least 1, got 0"),
    (lambda: random_scenario(1, total_transactions=-5),
     "total_transactions must be at least 0, got -5"),
    (lambda: atomic_loop_scenario("exclusive", n_masters=200),
     "n_masters must be in 1..100, got 200"),
    (lambda: atomic_loop_scenario("lock", n_masters=0), "n_masters must be in 1..100, got 0"),
    (lambda: atomic_loop_scenario("lock", iterations=-3),
     "master 0 iteration count -3 is negative"),
])
def test_generator_refuses_bad_count(build, message):
    with pytest.raises(ScenarioError) as err:
        build()
    assert str(err.value) == message


def test_generator_counts_at_their_bounds_build():
    assert len(random_scenario(1, n_masters=64).masters) == 64
    assert len(random_scenario(1, n_switches=1).topology.switches) == 1
    assert len(atomic_loop_scenario("lock", n_masters=100).masters) == 100


def test_buffer_depth_below_packet_size_diagnosed():
    doc = _doc()
    doc["topology"]["links"][0]["buffer_depth"] = 4  # 32-byte payload needs 9 flits
    with pytest.raises(ScenarioError, match="buffer depth"):
        scenario_from_dict(doc)


def test_malformed_document_wrapped():
    with pytest.raises(ScenarioError, match="malformed"):
        scenario_from_dict({"topology": {"switches": [{"id": 0}]}})


@pytest.mark.parametrize("edit,message", [
    (lambda d: d["topology"]["links"][0].update(width=4.7),
     "width of a link must be an integer, got 4.7"),
    (lambda d: d["topology"]["switches"][0].update(ports=True),
     "ports of switch 0 must be an integer, got True"),
    (lambda d: d["workload"][0]["program"].update(transactions=10.5),
     "transactions of master 0 must be an integer, got 10.5"),
    (lambda d: d["nius"][1].update(memory=float("inf")),
     "memory of NIU 100 must be an integer, got inf"),
    (lambda d: d["run"].update(seed="seven"),
     "run seed must be an integer, got 'seven'"),
])
def test_non_integer_in_integer_field_diagnosed(edit, message):
    doc = _doc()
    edit(doc)
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(doc)
    assert str(exc.value) == message


def test_integral_values_of_integer_fields_load_as_integers():
    doc = _doc()
    doc["topology"]["links"][0]["width"] = 8.0
    doc["workload"][0]["program"]["transactions"] = 1.0e1
    scenario = scenario_from_dict(doc)
    assert scenario.topology.links[0].params.flit_payload_width == 8
    assert scenario.masters[0].program.transactions == 10
    assert type(scenario.masters[0].program.transactions) is int


def test_wait_on_posted_write_rejected():
    with pytest.raises(ScenarioError, match="posted"):
        line_scenario(programs=[[(req(0, Opcode.STORE_POSTED, 0x40), True)]])


def test_with_variants_do_not_alias():
    base = line_scenario(programs=[[(req(0, Opcode.LOAD, 0x40), True)]])
    run_spec, topology = base.run, base.topology
    modified = base.with_link_params(LinkParams(8, 3, 2))
    assert base.topology is topology
    assert base.topology.links[0].params.flit_payload_width == 4
    assert modified.topology.links[0].params.flit_payload_width == 8
    assert modified.topology.attachments[0].params.latency == 3
    other_mode = base.with_mode(TransportMode.STORE_AND_FORWARD)
    assert base.run.mode is TransportMode.WORMHOLE
    assert other_mode.run.mode is TransportMode.STORE_AND_FORWARD
    reseeded = base.with_seed(99)
    assert base.run.seed != 99 and reseeded.run.seed == 99
    quiet = base.with_trace_level("transaction")
    assert base.run.trace_level == "full" and quiet.run.trace_level == "transaction"
    # a run can only be replaced: cutting it short, as a CLI override or a
    # cut-off test case does, leaves the base as it was
    for variant in (modified, other_mode, reseeded, quiet):
        assert variant.with_run(max_cycles=7).run.max_cycles == 7
        assert base.run is run_spec and run_spec.max_cycles == 20_000
    # the parts a variant does not replace are shared, not copied
    assert reseeded.masters is base.masters and modified.targets is base.targets
    assert quiet.topology is base.topology


def test_run_variant_checks_its_run():
    base = line_scenario(programs=[[(req(0, Opcode.LOAD, 0x40), True)]])
    with pytest.raises(ScenarioError) as err:
        base.with_trace_level("bogus")
    assert str(err.value) == "unknown trace level 'bogus'"
    with pytest.raises(ScenarioError) as err:
        base.with_run(max_cycles=0)
    assert str(err.value) == "max_cycles must be positive"


# -- a built scenario is immutable -------------------------------------------------------

BUILT = {
    "load_scenario": lambda: load_scenario(SCENARIO_DIR / "lock_deadlock.yaml"),
    "random_scenario": lambda: random_scenario(3),
    "atomic_loop_scenario": lambda: atomic_loop_scenario("exclusive"),
    "with_link_params": lambda: random_scenario(4).with_link_params(LinkParams(8, 2, 1)),
    "line_scenario": lambda: line_scenario(programs=[[(req(0, Opcode.LOAD, 0x40), True)]]),
}
PARTS = ("run", "topology", "routing", "attachments", "targets", "masters", "NIU configs",
         "programs")


def _setting(obj, name: str):
    """An in-place edit of one field: set it to its own value."""
    return lambda: setattr(obj, name, getattr(obj, name))


def _first_item(values):
    """An in-place edit of a sequence: set its first item to itself."""
    return lambda: values.__setitem__(0, values[0])


def _part_edits(s) -> dict:
    """In-place edits of each part of a built scenario, by part."""
    topo, master, target = s.topology, s.masters[0], s.targets[0]
    routing = [_setting(topo, "routing")]
    if topo.routing is not None:  # explicit
        routing.append(_first_item(topo.routing))
    programs = []
    for m in s.masters:
        for name in m.program.__dataclass_fields__:
            programs.append(_setting(m.program, name))
            if isinstance(getattr(m.program, name), tuple):
                programs.append(_first_item(getattr(m.program, name)))
    return {
        "run": [_setting(s, "run"), _setting(s.run, "max_cycles")],
        "topology": [_setting(s, "topology"), _first_item(topo.switches),
                     _first_item(topo.links), _setting(topo.links[0].params, "latency")],
        "routing": routing,
        "attachments": [_setting(topo, "attachments"), _first_item(topo.attachments),
                        _setting(topo.attachments[0], "port")],
        "targets": [_setting(s, "targets"), _first_item(s.targets)],
        "masters": [_setting(s, "masters"), _first_item(s.masters),
                    _setting(master, "program")],
        "NIU configs": [_setting(master.niu, "priority"), _setting(target, "memory_size"),
                        _setting(master.niu.tag_policy, "capacity")],
        "programs": programs,
    }


@pytest.mark.parametrize("part", PARTS)
@pytest.mark.parametrize("built", sorted(BUILT))
def test_built_scenario_cannot_be_edited(built, part):
    edits = _part_edits(BUILT[built]())[part]
    assert edits
    for edit in edits:
        with pytest.raises((AttributeError, TypeError)):
            edit()


# -- explicit routing names only what the topology has ---------------------------------

BASIC_AUTO = {0: {0: 0, 1: 1, 100: 2, 101: 2}, 1: {0: 0, 1: 0, 100: 1, 101: 2}}


def _basic_routed(tmp_path, routing: dict) -> Path:
    doc = yaml.safe_load((SCENARIO_DIR / "basic_line.yaml").read_text())
    doc["topology"]["routing"] = routing
    path = tmp_path / "routed.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


def test_basic_line_auto_table_loads_when_explicit(tmp_path):
    auto = load_scenario(SCENARIO_DIR / "basic_line.yaml")
    explicit = load_scenario(_basic_routed(tmp_path, BASIC_AUTO))
    assert Engine(explicit).table.ports == Engine(auto).table.ports == BASIC_AUTO


@pytest.mark.parametrize("extra, message", [
    ({99: {100: 7}}, "routing names switch 99, which the topology does not have"),
    ({0: {555: 2}}, "routing at switch 0 names unattached NIU 555"),
    ({0: {100: 3}}, "route for NIU 100 at switch 0 uses unconnected port 3"),
])
def test_explicit_routing_entry_for_what_the_topology_lacks_refused(tmp_path, extra, message):
    routing = {sw: dict(routes) for sw, routes in BASIC_AUTO.items()}
    for sw, routes in extra.items():
        routing.setdefault(sw, {}).update(routes)
    with pytest.raises(ScenarioError) as err:
        load_scenario(_basic_routed(tmp_path, routing))
    assert str(err.value) == message


# -- one routing table per topology ------------------------------------------------------
# A topology derives and checks its table once, when it is built, so the variants
# of a scenario, which share its topology, share one table.

def _ring_doc(explicit: bool = False) -> dict:
    """Four switches in a ring (port 0 to the previous, 1 to the next, 2 and 3
    free for NIUs), an initiator on switch 0 and a target on switch 2."""
    doc = _doc()
    doc["topology"] = {
        "switches": [{"id": i, "ports": 4} for i in range(4)],
        "links": [{"a": [i, 1], "b": [(i + 1) % 4, 0]} for i in range(4)],
    }
    doc["nius"][0]["attach"] = [0, 2]
    doc["nius"][1]["attach"] = [2, 2]
    if explicit:
        doc["topology"]["routing"] = {0: {0: 2, 100: 1}, 1: {0: 0, 100: 1},
                                      2: {0: 0, 100: 2}, 3: {0: 1, 100: 0}}
    return doc


def test_variants_share_one_routing_table():
    base = scenario_from_dict(_ring_doc())
    table = Engine(base).table
    for variant in (base.with_mode(TransportMode.STORE_AND_FORWARD), base.with_seed(99),
                    base.with_trace_level("full")):
        assert Engine(variant).table is table
    other = Engine(base.with_link_params(LinkParams(8, 2, 1))).table
    assert other is not table and other.ports == table.ports


def test_variants_derive_the_table_once(monkeypatch):
    calls = []
    real = fabric.validate_routing

    def counting(topology, table):
        calls.append(topology)
        return real(topology, table)

    monkeypatch.setattr(fabric, "validate_routing", counting)
    base = scenario_from_dict(_ring_doc())  # validated once here
    for variant in (base, base.with_mode(TransportMode.STORE_AND_FORWARD), base.with_seed(3),
                    base.with_trace_level("transaction")):
        Engine(variant)
    assert calls == [base.topology]
    Engine(base.with_link_params(LinkParams(8, 2, 1)))
    assert len(calls) == 2


def test_variants_check_the_topology_once(monkeypatch):
    # a topology is checked once, when it is built
    calls = []
    real = fabric.Topology.validate

    def counting(topology):
        calls.append(topology)
        return real(topology)

    monkeypatch.setattr(fabric.Topology, "validate", counting)
    base = scenario_from_dict(_ring_doc())  # checked once here
    for variant in (base, base.with_mode(TransportMode.STORE_AND_FORWARD), base.with_seed(3),
                    base.with_trace_level("transaction")):
        Engine(variant)
    assert calls == [base.topology]
    linked = base.with_link_params(LinkParams(8, 2, 1))
    Engine(linked)
    assert calls == [base.topology, linked.topology]


def _add_switch(scenario):
    scenario.topology.switches.append(SwitchSpec(4, 1))


def _cut_link(scenario):
    del scenario.topology.links[1]  # switch 1 to switch 2: the ring becomes a line


def _move_target(scenario):
    scenario.topology.attachments[1] = AttachmentSpec(100, 3, 2)


def _reroute(scenario):
    scenario.topology.routing[0] = (0, ((0, 2), (100, 0)))  # the other way round the ring


def _rerouted(topo):
    routing = {sw: dict(routes) for sw, routes in topo.routing}
    routing[1][100] = 0
    return replace(topo, routing=routing)


# name: (explicit routing, in-place edit, the same change in a new topology, its message)
ROUTING_EDITS = {
    "switches": (False, _add_switch,
                 lambda t: replace(t, switches=(*t.switches[:2], SwitchSpec(2, 2), t.switches[3])),
                 "switch 2 has no port 2"),
    "links": (False, _cut_link, lambda t: replace(t, links=()),
              "topology is not connected; unreachable switches [1, 2, 3]"),
    "attachments": (
        False, _move_target,
        lambda t: replace(t, attachments=(t.attachments[0], AttachmentSpec(100, 0, 2))),
        "switch 0 port 2 used twice",
    ),
    "routing": (True, _reroute, _rerouted, "routing loop for target NIU 100 at switch 0"),
}


@pytest.mark.parametrize("name", sorted(ROUTING_EDITS))
def test_edit_in_place_never_serves_a_stale_table(name):
    # every part the table is derived from is immutable, so an edit is refused;
    # a new topology with a bad change is refused as a loaded one would be
    explicit, edit, rebuild, message = ROUTING_EDITS[name]
    edited = scenario_from_dict(_ring_doc(explicit))
    before = Engine(edited).table
    with pytest.raises((AttributeError, TypeError)):
        edit(edited)
    assert Engine(edited).table is before
    assert before.ports == Engine(scenario_from_dict(_ring_doc(explicit))).table.ports
    with pytest.raises(ScenarioError) as err:
        rebuild(edited.topology)
    assert str(err.value) == message


def _count_validate_request(monkeypatch) -> list:
    """Record every validate_request call, patched in each module that calls it."""
    calls = []
    original = transaction.validate_request

    def counted(request):
        calls.append(request)
        return original(request)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "nocsim" and getattr(module, "validate_request", None) is original:
            monkeypatch.setattr(module, "validate_request", counted)
    return calls


def test_engine_checks_no_random_step(monkeypatch):
    scenario = random_scenario(5)
    calls = _count_validate_request(monkeypatch)
    Engine(scenario)
    assert calls == []


def test_engine_checks_each_script_step_once(monkeypatch):
    # each step is checked once, when the scenario is built; the engine checks none
    programs = [
        [(req(0, Opcode.STORE, 0x40), True), (req(0, Opcode.LOAD, 0x40), True)],
        [(req(1, Opcode.STORE_POSTED, 0x80), False), (req(1, Opcode.LOAD, 0x80, 2), False)],
    ]
    calls = _count_validate_request(monkeypatch)
    scenario = line_scenario(programs=programs)
    requests = [request for program in programs for request, _ in program]
    assert Counter(map(id, calls)) == Counter(map(id, requests))
    Engine(scenario)
    assert len(calls) == len(requests)


def test_engine_rejects_script_step_edited_after_load():
    # a built program's steps cannot be replaced; a program built with the bad
    # step is refused when it is built
    ok, bad = (req(0, Opcode.LOAD, 0x40), True), (req(0, Opcode.LOAD, 0x42), True)
    scenario = line_scenario(programs=[[ok, ok]])
    with pytest.raises(TypeError):
        scenario.masters[0].program.steps[1] = bad
    with pytest.raises(ScenarioError, match="master 0 script step 1: .*not aligned"):
        line_scenario(programs=[[ok, bad]])


def test_engine_run_checks_no_request(monkeypatch):
    # every request was checked when its scenario was built; the NIUs issue
    # them without a second check
    scenarios = [random_scenario(5), atomic_loop_scenario("lock"), line_scenario(programs=[[
        (req(0, Opcode.READEX, 0x40), True), (req(0, Opcode.STORE_LOCKED_RELEASE, 0x40), True),
    ]])]
    calls = _count_validate_request(monkeypatch)
    for scenario in scenarios:
        assert Engine(scenario).run().stats.completed_transactions > 0
    assert calls == []


def test_built_request_cannot_be_edited():
    # moving the release away from its READEX's address once reached the NIU
    # and stopped the run mid-way; a built request refuses the edit
    readex, release = req(0, Opcode.READEX, 0x40), req(0, Opcode.STORE_LOCKED_RELEASE, 0x40)
    scripted = line_scenario(programs=[[(readex, True), (release, True)]])
    drawn = random_scenario(5)
    for request in (scripted.masters[0].program.steps[1][0],
                    scripted_steps_for(drawn.masters[0], drawn.run.seed)[0][0]):
        address = request.address
        with pytest.raises(AttributeError):
            request.address = 0x80
        assert request.address == address


def test_random_scenario_is_deterministic():
    a = random_scenario(17)
    b = random_scenario(17)
    assert len(a.masters) == len(b.masters)
    for ma, mb in zip(a.masters, b.masters):
        assert ma.niu == mb.niu
        assert scripted_steps_for(ma, a.run.seed) == scripted_steps_for(mb, b.run.seed)
    c = random_scenario(18)
    assert (
        len(c.masters) != len(a.masters)
        or scripted_steps_for(c.masters[0], c.run.seed)
        != scripted_steps_for(a.masters[0], a.run.seed)
    )


def test_random_scenarios_validate_over_many_seeds():
    for seed in range(40):
        random_scenario(seed)  # checked when built


def test_generated_requests_pass_validator():
    # generator/validator agreement: every request the random generator
    # produces satisfies the transaction invariants
    from nocsim.transaction import validate_request

    for seed in (1, 2, 3):
        scenario = random_scenario(seed, total_transactions=300)
        for spec in scenario.masters:
            for request, _ in scripted_steps_for(spec, scenario.run.seed):
                assert validate_request(request) == []
