"""Fuzzing the input path: bad input of any kind is a ScenarioError, exit code 1.

Documents are the example scenarios with one to three random edits: a value
replaced by junk, a key or list item deleted, an unknown key or extra item
added. Whatever ``scenario_from_dict`` accepts must also build an
``Engine``. Numbers in the junk stay small, so no accepted document can ask
for a large memory. One edit seldom makes a pairing of NIU and program
that loads and then fails to build, so ``bad_pairings`` makes exactly one
such edit per document and checks that loading refuses it.
"""

import copy
import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from nocsim.cli import main
from nocsim.engine import Engine
from nocsim.errors import ScenarioError
from nocsim.scenario import scenario_from_dict

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
DOCS = [yaml.safe_load(p.read_text()) for p in sorted(SCENARIO_DIR.glob("*.yaml"))]
BASIC = str(SCENARIO_DIR / "basic_line.yaml")

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 70),
    st.sampled_from([0.5, -1.5, float("inf"), float("-inf"), float("nan")]),
    st.text(max_size=6),
    st.sampled_from([
        "auto", "single", "random", "script", "load", "ff", "0x10",
        "threaded", "id_based", "readex",
    ]),
)
# keys the format defines but the examples leave out
OPTIONAL_KEYS = st.sampled_from([
    "memory", "monitor_granule", "capacity", "max_payload", "endianness",
    "priority", "link", "burst_lens", "beat_sizes", "threads", "txn_ids",
    "max_bytes", "beats", "beat_size", "channel", "tid", "thread", "data",
    "wait", "buffer_depth", "latency", "rate_ratio", "width",
])
junk = st.one_of(
    scalars,
    st.lists(scalars, max_size=3),
    st.dictionaries(st.text(max_size=4), scalars, max_size=2),
)


def _paths(node, prefix=()):
    """The path of every value in a parsed document, the root included."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


@st.composite
def mutated_docs(draw):
    doc = copy.deepcopy(draw(st.sampled_from(DOCS)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(junk)
            continue
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        node = parent[path[-1]]
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "replace":
            parent[path[-1]] = draw(junk)
        elif action == "delete":
            del parent[path[-1]]
        elif isinstance(node, dict):
            node[draw(st.one_of(st.text(max_size=6), OPTIONAL_KEYS))] = draw(junk)
        elif isinstance(node, list):
            node.append(draw(junk))
        else:
            parent[path[-1]] = [node, draw(junk)]
    return doc


def _rejected(doc) -> bool:
    """Load, and build what loaded; True when loading refuses the document.

    Every check runs at load time, so building must not refuse what loaded.
    """
    try:
        scenario = scenario_from_dict(doc)
    except ScenarioError:
        return True
    Engine(scenario)
    return False


def _initiator_of(doc, workload_entry) -> dict:
    return next(n for n in doc["nius"] if n["id"] == workload_entry["master"])


@st.composite
def bad_pairings(draw):
    """An example scenario with one NIU/program pairing that must not load.

    Random edits seldom make such a pairing, so each document gets exactly
    one, drawn from the kinds the loader must refuse: a loop program on a
    threaded or ID-based NIU, a script step with a negative thread or
    transaction id, a random program with a range smaller than its largest
    burst, and target memory larger than its region. Returns the document
    and the message the refusal must match.
    """
    doc = copy.deepcopy(draw(st.sampled_from(DOCS)))
    targets = [n for n in doc["nius"] if n["role"] == "target"]
    base, size = draw(st.sampled_from(targets))["region"]
    offset = 4 * draw(st.integers(0, 63))
    kind = draw(st.sampled_from(["loop", "negative_stream", "small_range", "memory"]))
    if kind == "memory":
        target = draw(st.sampled_from(targets))
        target["memory"] = target["region"][1] + draw(st.integers(1, 64))
        return doc, "memory size .* exceeds its region size"
    entry = draw(st.sampled_from(doc["workload"]))
    niu = _initiator_of(doc, entry)
    if kind == "loop":
        niu["family"] = draw(st.sampled_from(["threaded", "id_based"]))
        entry["program"] = {
            "kind": draw(st.sampled_from(["exclusive_loop", "lock_loop"])),
            "counter": base + offset, "iterations": draw(st.integers(1, 5)),
        }
        return doc, f"loop program needs a fully_ordered NIU, got {niu['family']}"
    if kind == "negative_stream":
        niu["family"] = draw(st.sampled_from(["fully_ordered", "threaded", "id_based"]))
        field = draw(st.sampled_from(["thread", "tid"]))
        steps = [{"op": "load", "addr": base + 4 * i} for i in range(draw(st.integers(0, 2)))]
        steps.append({"op": "load", "addr": base + offset, field: -draw(st.integers(1, 8))})
        entry["program"] = {"kind": "script", "steps": steps}
        return doc, f"script step {len(steps) - 1}: stream id must not be negative"
    bursts = draw(st.lists(st.sampled_from([1, 2, 4, 8]), min_size=1, max_size=4, unique=True))
    beats = draw(st.lists(st.sampled_from([1, 2, 4]), min_size=1, max_size=3, unique=True))
    largest = max(bursts) * max(beats)  # at most 32, inside the default max_bytes
    if largest == 1:
        bursts.append(2)
        largest = 2
    entry["program"] = {
        "kind": "random", "transactions": draw(st.integers(1, 20)),
        "op_mix": {"load": 1.0, "store": draw(st.sampled_from([0.0, 1.0]))},
        "address_ranges": [[base + offset, draw(st.integers(1, largest - 1))]],
        "burst_lens": bursts, "beat_sizes": beats,
    }
    return doc, rf"is smaller than the largest burst \({largest} bytes\)"


@settings(max_examples=200, derandomize=True, deadline=None)
@given(case=bad_pairings())
def test_bad_pairing_refused_at_load(case):
    doc, message = case
    with pytest.raises(ScenarioError, match=message):
        scenario_from_dict(doc)  # refused here, so Engine(...) never sees it


def _exit_code(argv) -> tuple[int, str]:
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=400, derandomize=True, deadline=None)
@given(doc=mutated_docs())
def test_scenario_from_dict_raises_only_scenario_error(doc):
    _rejected(doc)  # any other exception fails the test


@settings(max_examples=60, derandomize=True, deadline=None)
@given(doc=mutated_docs())
def test_cli_run_of_rejected_document_exits_one(doc):
    if not _rejected(doc):
        return  # a valid document runs; that is not what this test is about
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzzed.yaml"
        path.write_text(yaml.safe_dump(doc))
        code, err = _exit_code(["run", str(path)])
    assert code == 1
    assert err.startswith("error:")


not_an_int = st.from_regex(r"[a-z_][a-z0-9.]{0,3}", fullmatch=True)
bad_sweep_value = st.one_of(st.integers(-3, 0).map(str), not_an_int)
bad_argv = st.one_of(
    st.tuples(st.just(["run", BASIC]), st.sampled_from(["--seed", "--max-cycles"]),
              not_an_int).map(lambda t: t[0] + [t[1], t[2]]),
    st.integers(-3, 0).map(lambda n: ["run", BASIC, "--max-cycles", str(n)]),
    not_an_int.map(lambda m: ["run", BASIC, "--mode", m]),
    st.tuples(st.sampled_from(["--widths", "--latencies", "--ratios"]),
              st.lists(bad_sweep_value, min_size=1, max_size=3))
    .map(lambda t: ["compare-links", BASIC, t[0], ",".join(t[1])]),
    not_an_int.filter(lambda c: c != "run").map(lambda c: [c, BASIC]),
    # argparse takes a prefix of --help as --help, which exits 0
    not_an_int.filter(lambda f: not "help".startswith(f)).map(
        lambda f: ["run", BASIC, f"--{f}"]
    ),
    st.sampled_from(["run", "verify", "compare-modes", "compare-links"])
    .map(lambda c: [c, "/nonexistent/scenario.yaml"]),
    st.just([]),
)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(argv=bad_argv)
def test_cli_bad_arguments_exit_one(argv):
    code, err = _exit_code(argv)
    assert code == 1, (argv, err)
