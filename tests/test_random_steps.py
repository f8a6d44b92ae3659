"""Random-program expansion equals the ``random.Random``-wrapper reference.

``generate_random_steps`` draws straight from ``random()`` and
``getrandbits()``. ``tests/oracles.py`` keeps the loop that drew through
``choices``, ``choice``, ``randrange`` and ``randbytes``. Both are fed
generators in the same state; each step must come out equal, field for
field, and both generators must end in the same state, so the same number
of bits was drawn.
"""

import random
from dataclasses import replace
from pathlib import Path

import pytest
from helpers import line_scenario
from hypothesis import given, settings, strategies as st
from oracles import reference_random_steps

import nocsim.engine
import nocsim.oracle
from nocsim.cli import main
from nocsim.engine import Engine, derive_rng, scripted_steps_for
from nocsim.fabric import TransportMode
from nocsim.link import LinkParams
from nocsim.niu import SocketFamily
from nocsim.scenario import RandomProgram, Scenario, random_scenario
from nocsim.transaction import Opcode, OrderVariant
from nocsim.workload import generate_random_steps

LOAD, STORE, POSTED = Opcode.LOAD, Opcode.STORE, Opcode.STORE_POSTED
BASIC = str(Path(__file__).resolve().parent.parent / "scenarios" / "basic_line.yaml")
MIX = {LOAD: 1.0, STORE: 1.0, POSTED: 1.0}


def _fields(steps) -> list[tuple]:
    """The reference's tuple for each generated step."""
    out = []
    for request, wait in steps:
        key = request.order_key
        if key.variant is OrderVariant.SINGLE:
            stream = ("single",)
        elif key.variant is OrderVariant.THREAD:
            stream = ("thread", key.thread_id)
        else:
            stream = ("txn", key.txn_id, key.channel.name)
        out.append((request.master_id, request.opcode.name, request.address,
                     request.burst_len, request.beat_size, stream, request.data, wait))
    return out


def _validate(program: RandomProgram, family: SocketFamily) -> None:
    """Refuse, as a scenario would, a program that a 64 KiB region cannot run."""
    scenario = line_scenario([[]], region_size=0x10000, buffer_depth=80)
    master = scenario.masters[0]
    niu = replace(master.niu, family=family, max_payload=64)
    replace(scenario, masters=[replace(master, niu=niu, program=program)])  # checked when built


def _assert_same(family: SocketFamily, seed: int, **spec) -> None:
    ours, theirs = random.Random(seed), random.Random(seed)
    got = generate_random_steps(master_id=3, family=family, rng=ours, **spec)
    want = reference_random_steps(master_id=3, family=family.name, rng=theirs, **spec)
    assert _fields(got) == want
    assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("seed", range(60))
def test_corpus_steps_equal_reference(seed):
    scenario = random_scenario(seed)
    programs = [m for m in scenario.masters if isinstance(m.program, RandomProgram)]
    assert programs
    for run_seed in (1, 2, 3):
        for spec in programs:
            p = spec.program
            want = reference_random_steps(
                spec.master_id, spec.niu.family.name, derive_rng(run_seed, spec.master_id),
                p.transactions, p.op_mix, p.address_ranges, p.burst_lens, p.beat_sizes,
                p.threads, p.txn_ids, p.max_bytes,
            )
            assert _fields(scripted_steps_for(spec, run_seed)) == want


EDGE_PROGRAMS = {
    # every list has one element: each draw from it is getrandbits(1), redrawn on 1
    "one-element lists": dict(
        op_mix={STORE: 1.0}, address_ranges=[(0x100, 64)], burst_lens=[2], beat_sizes=[4],
        threads=1, txn_ids=1,
    ),
    # no burst of 2 or 4 fits a 64-byte beat: burst 1, and no draw for it
    "beat no burst fits": dict(
        op_mix=MIX, address_ranges=[(0, 256), (0x400, 64)], burst_lens=[2, 4],
        beat_sizes=[1, 64],
    ),
    "one thread, one id": dict(
        op_mix=MIX, address_ranges=[(0, 512)], burst_lens=[1, 2, 4], beat_sizes=[1, 2, 4],
        threads=1, txn_ids=1,
    ),
    "zero-weight opcode": dict(
        op_mix={LOAD: 0.0, STORE: 1.0, POSTED: 0.5}, address_ranges=[(0, 512)],
        burst_lens=[1, 2, 4], beat_sizes=[4], threads=3, txn_ids=3,
    ),
    # 4-byte bursts in a 64-byte range: 16 slots, k = 5, about half the draws redrawn
    "slots a power of two": dict(
        op_mix=MIX, address_ranges=[(0, 64)], burst_lens=[1], beat_sizes=[4],
    ),
    "slots a power of two plus one": dict(
        op_mix=MIX, address_ranges=[(0, 68)], burst_lens=[1], beat_sizes=[4],
    ),
    "range one burst wide": dict(
        op_mix=MIX, address_ranges=[(0x40, 16), (0x80, 16)], burst_lens=[4], beat_sizes=[4],
    ),
    # getrandbits(512) per store
    "64-byte stores": dict(
        op_mix={STORE: 1.0, POSTED: 1.0}, address_ranges=[(0, 4096)], burst_lens=[8],
        beat_sizes=[8], threads=5, txn_ids=7,
    ),
    # pooled tags put no bound on the stream count; expansion is per step, not per stream
    "a billion streams": dict(
        op_mix=MIX, address_ranges=[(0, 512)], burst_lens=[1, 2], beat_sizes=[4],
        threads=10**9, txn_ids=10**9,
    ),
    "max_bytes below every burst": dict(
        op_mix=MIX, address_ranges=[(0, 96)], burst_lens=[3, 5], beat_sizes=[2, 32],
        max_bytes=4,
    ),
}


@pytest.mark.parametrize("family", list(SocketFamily), ids=lambda f: f.name)
@pytest.mark.parametrize("case", sorted(EDGE_PROGRAMS))
def test_edge_program_steps_equal_reference(case, family):
    _validate(RandomProgram(transactions=300, **EDGE_PROGRAMS[case]), family)
    for seed in range(4):
        _assert_same(family, seed, transactions=300, **EDGE_PROGRAMS[case])


POW2 = [1, 2, 4, 8, 16, 32, 64]
WEIGHTS = st.sampled_from([None, 0.0, 0.25, 1.0, 3.0])  # None leaves the opcode out


@st.composite
def random_programs(draw) -> RandomProgram:
    """A random program that a built ``Scenario`` accepts for a 64 KiB region."""
    weights = draw(st.tuples(WEIGHTS, WEIGHTS, WEIGHTS))
    op_mix = {op: w for op, w in zip((LOAD, STORE, POSTED), weights) if w is not None}
    if not sum(op_mix.values()):
        op_mix[draw(st.sampled_from([LOAD, STORE, POSTED]))] = 1.0
    beat_sizes = draw(st.lists(st.sampled_from(POW2), min_size=1, max_size=4))
    burst_lens = draw(st.lists(st.integers(1, 16), min_size=1, max_size=4))
    max_bytes = draw(st.sampled_from([1, 4, 16, 64, 128]))
    largest = max(
        max((b for b in burst_lens if b * beat <= max_bytes), default=1) * beat
        for beat in beat_sizes
    )
    align = max(beat_sizes)
    address_ranges = [
        (slot * 0x800, largest + extra)
        for slot, extra in zip(
            draw(st.lists(st.integers(0, 20), min_size=1, max_size=3, unique=True)),
            draw(st.lists(st.sampled_from([0, 1, align, 3 * align, 300]), min_size=3, max_size=3)),
        )
    ]
    return RandomProgram(
        transactions=draw(st.integers(0, 80)), op_mix=op_mix, address_ranges=address_ranges,
        burst_lens=burst_lens, beat_sizes=beat_sizes, threads=draw(st.integers(1, 8)),
        txn_ids=draw(st.integers(1, 8)), max_bytes=max_bytes,
    )


@settings(max_examples=300, derandomize=True, deadline=None)
@given(program=random_programs(), family=st.sampled_from(list(SocketFamily)),
       seed=st.integers(0, 2**32))
def test_valid_program_steps_equal_reference(program, family, seed):
    _validate(program, family)
    spec = {name: getattr(program, name) for name in RandomProgram.__dataclass_fields__}
    _assert_same(family, seed, **spec)


# -- one expansion per spec --------------------------------------------------------
# scripted_steps_for keeps a spec's latest random-program expansion with its seed,
# so the variants of a scenario, which share its masters, share one list.

FO, TH, ID = SocketFamily.FULLY_ORDERED, SocketFamily.THREADED, SocketFamily.ID_BASED


def _corpus() -> Scenario:
    """A random scenario with masters of every family (seed 1, six masters)."""
    scenario = random_scenario(1, n_masters=6)
    assert {m.niu.family for m in scenario.masters} == set(SocketFamily)
    return scenario


def _steps(engine: Engine) -> dict:
    return {mid: master.steps for mid, master in engine.masters.items()}


@pytest.mark.parametrize("variant", [
    lambda s: s.with_mode(TransportMode.STORE_AND_FORWARD),
    lambda s: s.with_link_params(LinkParams(4, 3, 2)),
    lambda s: s.with_trace_level("full"),
], ids=["with_mode", "with_link_params", "with_trace_level"])
def test_variants_share_their_masters_steps(variant):
    base = _corpus()
    first, second = _steps(Engine(base)), _steps(Engine(variant(base)))
    assert first.keys() == second.keys()
    assert all(first[mid] is second[mid] for mid in first)


def test_sequential_oracle_replays_the_engines_steps(monkeypatch):
    base = _corpus()
    built = _steps(Engine(base))
    replayed = {}

    def recording(spec, seed):
        replayed[spec.master_id] = scripted_steps_for(spec, seed)
        return replayed[spec.master_id]

    monkeypatch.setattr(nocsim.oracle, "scripted_steps_for", recording)
    nocsim.oracle.sequential_oracle(base)
    assert replayed.keys() == built.keys()
    assert all(replayed[mid] is built[mid] for mid in built)


def _set_family(scenario, spec):
    spec.niu.family = TH if spec.niu.family is not TH else ID


def _set_niu_id(scenario, spec):
    spec.niu.niu_id += 50


def _next_seed(scenario, spec):
    scenario.run.seed += 1


# (family of the edited master, in-place edit of the scenario or that master);
# every part the expansion reads is immutable, so each edit is refused
EDITS = {
    "transactions": (FO, lambda s, m: setattr(m.program, "transactions", m.program.transactions - 1)),
    "op_mix": (FO, lambda s, m: m.program.op_mix.update({LOAD: 5.0})),
    "address_ranges": (FO, lambda s, m: m.program.address_ranges.append(m.program.address_ranges[0])),
    "burst_lens": (FO, lambda s, m: m.program.burst_lens.remove(8)),
    "beat_sizes": (FO, lambda s, m: m.program.beat_sizes.remove(4)),
    "threads": (TH, lambda s, m: setattr(m.program, "threads", 3)),
    "txn_ids": (ID, lambda s, m: setattr(m.program, "txn_ids", 3)),
    "max_bytes": (FO, lambda s, m: setattr(m.program, "max_bytes", 8)),
    "niu.family": (FO, _set_family),
    "niu.niu_id": (FO, _set_niu_id),
    "seed": (FO, _next_seed),
}


@pytest.mark.parametrize("name", sorted(EDITS))
def test_edit_in_place_never_serves_stale_steps(name):
    family, edit = EDITS[name]
    edited = _corpus()
    spec = next(m for m in edited.masters if m.niu.family is family)
    before = Engine(edited).masters[spec.master_id].steps
    with pytest.raises(AttributeError):
        edit(edited, spec)
    assert scripted_steps_for(spec, edited.run.seed) is before
    fresh = next(m for m in _corpus().masters if m.niu.family is family)
    assert _fields(before) == _fields(scripted_steps_for(fresh, edited.run.seed))


def test_seed_sweep_keeps_one_expansion_per_spec():
    base = _corpus()
    for seed in range(50):
        Engine(base.with_seed(seed))
    for spec in base.masters:
        seed, steps = spec.expansion
        assert seed == 49
        assert _fields(steps) == _fields(scripted_steps_for(replace(spec), 49))


def test_compare_links_expands_each_program_once(monkeypatch, capsys):
    calls = []

    def counting(master_id, *args):
        calls.append(master_id)
        return generate_random_steps(master_id, *args)

    monkeypatch.setattr(nocsim.engine, "generate_random_steps", counting)
    rc = main(["compare-links", BASIC, "--widths", "4,8", "--latencies", "1,2",
               "--ratios", "1"])
    assert rc == 0 and "4 link configurations agree" in capsys.readouterr().out
    assert sorted(calls) == [0, 1]
