"""Self-checks of the benchmark, at a tiny size.

    python -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run as bench  # noqa: E402
from nocsim import SocketFamily, TagPolicyKind  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_workloads_match_benchmark_json():
    assert bench.WORKLOADS == tuple(w["name"] for w in SPEC["workloads"])
    assert SPEC["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_every_metric_has_its_unit_and_tracing_changes_no_result(workload):
    warmup, untraced, traced = bench.measure(
        workload, seed=7, seconds=0, trace=True, size=bench.TINY
    )
    passes = [warmup] + untraced + traced
    assert [f for p in passes for f in p.failures] == []
    # one digest over every untraced and traced pass: the wrappers change
    # no simulated result
    assert len({p.digest for p in passes}) == 1

    e2e = bench.end_to_end(untraced)
    assert {name: unit for name, (_, unit) in e2e.items()} == units("end_to_end")
    assert all(value > 0 for value, _ in e2e.values())

    layers = bench.per_layer(traced, untraced)
    assert {name: unit for name, (_, unit) in layers.items()} == units("per_layer")
    assert layers["fabric.switch_step.calls"][0] > 0
    assert 0 < layers["fabric.switch_step.useful_ratio"][0] < 1
    assert layers["trace.events"][0] > 0
    assert layers["tracing_overhead_ratio"][0] > 0


def test_host_times_are_scaled_to_the_nominal_burst():
    assert bench.calibrate() > 0
    nominal = bench.NOMINAL_BURST_S
    assert bench.host_scale(nominal, nominal) == pytest.approx(1.0)
    # a host running at half speed takes twice as long per burst
    assert bench.host_scale(2 * nominal, 2 * nominal) == pytest.approx(0.5)


def test_inputs_depend_on_the_seed_alone():
    first = bench.run_pass("mixed_corpus", 3, bench.TINY, {})
    again = bench.run_pass("mixed_corpus", 3, bench.TINY, {})
    other = bench.run_pass("mixed_corpus", 4, bench.TINY, {})
    assert first.digest == again.digest
    assert first.digest != other.digest


def test_mixed_corpus_covers_every_family_and_tag_policy():
    masters = [m for sc in bench.scenarios("mixed_corpus", 1) for m in sc.masters]
    assert {m.niu.family for m in masters} == set(SocketFamily)
    assert {m.niu.tag_policy.kind for m in masters} == set(TagPolicyKind)


def test_refuses_to_run_without_the_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "atomics", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
