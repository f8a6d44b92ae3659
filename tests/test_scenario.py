"""Scenario model: YAML loading, validation diagnostics, derived variants."""

import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from helpers import line_scenario, req

from nocsim import transaction
from nocsim.engine import Engine, run, scripted_steps_for
from nocsim.errors import ScenarioError
from nocsim.fabric import TransportMode
from nocsim.link import LinkParams
from nocsim.scenario import (
    load_scenario,
    random_scenario,
    scenario_from_dict,
)
from nocsim.transaction import Opcode

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


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
    run_spec = replace(base.run)
    links, attachments = base.topology.links, base.topology.attachments
    saved_links, saved_attachments = list(links), list(attachments)
    modified = base.with_link_params(LinkParams(8, 3, 2))
    assert base.topology.links is links and links == saved_links
    assert base.topology.attachments is attachments and attachments == saved_attachments
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
    # each variant's run is its own: cutting it short, as a CLI override or
    # a cut-off test case does, leaves the base as it was
    for variant in (modified, other_mode, reseeded, quiet):
        variant.run.max_cycles = 7
        assert base.run == run_spec
    # the parts a variant does not replace are shared, not copied
    assert reseeded.masters is base.masters and modified.targets is base.targets


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
    programs = [
        [(req(0, Opcode.STORE, 0x40), True), (req(0, Opcode.LOAD, 0x40), True)],
        [(req(1, Opcode.STORE_POSTED, 0x80), False), (req(1, Opcode.LOAD, 0x80, 2), False)],
    ]
    scenario = line_scenario(programs=programs)
    calls = _count_validate_request(monkeypatch)
    Engine(scenario)
    requests = [request for program in programs for request, _ in program]
    assert Counter(map(id, calls)) == Counter(map(id, requests))


def test_engine_rejects_script_step_edited_after_load():
    scenario = line_scenario(programs=[[(req(0, Opcode.LOAD, 0x40), True)] * 2])
    scenario.masters[0].program.steps[1] = (req(0, Opcode.LOAD, 0x42), True)
    with pytest.raises(ScenarioError, match="master 0 script step 1: .*not aligned"):
        Engine(scenario)


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
        random_scenario(seed)  # validate() runs inside


def test_generated_requests_pass_validator():
    # generator/validator agreement: every request the random generator
    # produces satisfies the transaction invariants
    from nocsim.transaction import validate_request

    for seed in (1, 2, 3):
        scenario = random_scenario(seed, total_transactions=300)
        for spec in scenario.masters:
            for request, _ in scripted_steps_for(spec, scenario.run.seed):
                assert validate_request(request) == []
