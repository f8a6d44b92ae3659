"""CLI contract: subcommands, outputs, and the exit-code table."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from nocsim import cli
from nocsim.cli import main
from nocsim.engine import run
from nocsim.scenario import load_scenario, scenario_from_dict
from nocsim.errors import CreditError

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
BASIC = str(SCENARIO_DIR / "basic_line.yaml")
DEADLOCK = str(SCENARIO_DIR / "lock_deadlock.yaml")


def test_run_clean_exit_zero(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", BASIC, "--out", str(out)]) == 0
    trace = (out / "trace.csv").read_text()
    assert trace.startswith("cycle,site,kind,")
    assert len(trace.splitlines()) > 1
    stats = (out / "stats.txt").read_text()
    assert "completed_transactions" in stats
    assert "ok:" in capsys.readouterr().out


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.yaml")), ids=lambda p: p.stem)
def test_output_files_equal_the_library_output(path, tmp_path):
    # run --out and each compare-modes leg write trace.csv in chunks; the
    # files hold exactly the library's text, encoded
    out = tmp_path / "out"
    main(["run", str(path), "--out", str(out)])
    legs = [("", load_scenario(path))]
    if main(["compare-modes", str(path), "--out", str(out)]) != cli.EXIT_TIMEOUT:
        legs += [(f"{name}-", legs[0][1].with_mode(mode)) for name, mode in cli._MODES.items()]
    for prefix, scenario in legs:
        result = run(scenario)
        assert (out / f"{prefix}trace.csv").read_bytes() == result.trace.to_csv().encode()
        assert (out / f"{prefix}stats.txt").read_bytes() == result.stats.to_text().encode()
    assert len(list(out.iterdir())) == 2 * len(legs)


def test_import_loads_no_yaml_until_a_file_is_read():
    probe = (
        "import sys, nocsim\n"
        "print('yaml' in sys.modules)\n"
        f"nocsim.load_scenario({BASIC!r})\n"
        "print('yaml' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout == "False\nTrue\n"


def test_run_missing_file_exit_one(capsys):
    assert main(["run", "/nonexistent/path.yaml"]) == 1
    assert "error:" in capsys.readouterr().err


def test_run_malformed_scenario_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("topology:\n  switches: [{id: 0}]\n")
    assert main(["run", str(bad)]) == 1
    assert "malformed" in capsys.readouterr().err


def test_run_broken_yaml_syntax_exit_one(tmp_path, capsys):
    bad = tmp_path / "broken.yaml"
    bad.write_text("not: [a scenario\n")
    assert main(["run", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "malformed" in err and "line" in err  # parser diagnostic with position


def test_run_unroutable_exit_one_names_target(tmp_path, capsys):
    text = Path(BASIC).read_text().replace("routing: auto", "routing: {0: {}, 1: {}}")
    broken = tmp_path / "unroutable.yaml"
    broken.write_text(text)
    assert main(["run", str(broken)]) == 1
    err = capsys.readouterr().err
    assert "unroutable" in err and "NIU" in err


def test_run_routing_entry_for_unknown_switch_exit_one(tmp_path, capsys):
    text = Path(BASIC).read_text().replace(
        "routing: auto",
        "routing: {0: {0: 0, 1: 1, 100: 2, 101: 2}, 1: {0: 0, 1: 0, 100: 1, 101: 2},"
        " 99: {100: 7}}",
    )
    broken = tmp_path / "routed.yaml"
    broken.write_text(text)
    assert main(["run", str(broken)]) == 1
    err = capsys.readouterr().err
    assert "routing names switch 99, which the topology does not have" in err
    assert "Traceback" not in err


def test_run_lock_pairing_fault_exit_one_at_load(tmp_path, capsys):
    # a release with no READEX before it used to stop the run mid-way, exit 3
    doc = yaml.safe_load((SCENARIO_DIR / "lock_loop.yaml").read_text())
    doc["workload"][0]["program"] = {"kind": "script", "steps": [
        {"op": "store_locked_release", "addr": 64, "data": "01000000"},
    ]}
    broken = tmp_path / "release.yaml"
    broken.write_text(yaml.safe_dump(doc))
    assert main(["run", str(broken)]) == 1
    err = capsys.readouterr().err
    assert "master 0 script step 0: STORE_LOCKED_RELEASE with no lock held" in err
    assert "Traceback" not in err


def test_run_deadlock_exit_two_with_stuck_list(capsys):
    assert main(["run", DEADLOCK]) == 2
    out = capsys.readouterr().out
    assert "TIMEOUT" in out and "READEX" in out


def test_compare_modes_agree(capsys):
    assert main(["compare-modes", BASIC]) == 0
    assert "agree" in capsys.readouterr().out


def test_verify_directory(tmp_path, capsys):
    # the deliberately deadlocking scenario is reported as a timeout, so give
    # verify a directory of the clean ones
    clean = tmp_path / "clean"
    clean.mkdir()
    for name in ("basic_line.yaml", "exclusive_loop.yaml", "lock_loop.yaml"):
        (clean / name).write_text((SCENARIO_DIR / name).read_text())
    assert main(["verify", str(clean)]) == 0
    out = capsys.readouterr().out
    assert out.count("clean") == 3


def test_verify_flags_deadlock_as_timeout(capsys):
    assert main(["verify", DEADLOCK]) == 2
    assert "TIMEOUT" in capsys.readouterr().out


def test_verify_empty_directory_exit_one(tmp_path):
    assert main(["verify", str(tmp_path)]) == 1


def test_compare_links_sweep(capsys):
    rc = main(["compare-links", BASIC, "--widths", "4,8", "--latencies", "1,2",
               "--ratios", "1,2"])
    assert rc == 0
    assert "agree" in capsys.readouterr().out


def test_run_mode_and_seed_overrides(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", BASIC, "--mode", "store_and_forward", "--seed", "9",
                 "--out", str(out_a)]) == 0
    assert main(["run", BASIC, "--mode", "store_and_forward", "--seed", "9",
                 "--out", str(out_b)]) == 0
    assert (out_a / "trace.csv").read_text() == (out_b / "trace.csv").read_text()


def _edited(tmp_path, old, new):
    text = Path(BASIC).read_text()
    assert old in text
    path = tmp_path / "edited.yaml"
    path.write_text(text.replace(old, new))
    return str(path)


def test_run_zero_link_width_exit_one(tmp_path, capsys):
    assert main(["run", _edited(tmp_path, "width: 4", "width: 0")]) == 1
    err = capsys.readouterr().err
    assert "link parameters" in err and "Traceback" not in err


def test_run_negative_memory_exit_one(tmp_path, capsys):
    edited = _edited(tmp_path, "region: [0, 4096]}", "region: [0, 4096], memory: -3}")
    assert main(["run", edited]) == 1
    err = capsys.readouterr().err
    assert "memory size" in err and "Traceback" not in err


def test_run_negative_thread_exit_one(tmp_path, capsys):
    random_program = Path(BASIC).read_text().split("  - master: 1\n")[1]
    script = "    program:\n      kind: script\n      steps: [{op: load, addr: 2048, thread: -1}]\n"
    edited = _edited(tmp_path, random_program, script)
    assert main(["run", edited]) == 1
    err = capsys.readouterr().err
    assert "master 1 script step 0: stream id must not be negative" in err
    assert "Traceback" not in err


def test_run_memory_beyond_region_exit_one(tmp_path, capsys):
    edited = _edited(tmp_path, "region: [0, 4096]}", "region: [0, 4096], memory: 8192}")
    assert main(["run", edited]) == 1
    err = capsys.readouterr().err
    assert "target NIU 100 memory size 8192 exceeds its region size 4096" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("region, counter, where", [
    ("[0xFFFFFF00, 0x1000]", 0xFFFFFF40, "[0xffffff00,0x100000f00)"),
    ("[-4096, 8192]", 64, "[-0x1000,0x1000)"),
])
def test_run_region_outside_the_address_space_exit_one(tmp_path, capsys, region, counter, where):
    doc = yaml.safe_load((SCENARIO_DIR / "lock_loop.yaml").read_text())
    doc["nius"][2]["region"] = yaml.safe_load(region)
    for entry in doc["workload"]:
        entry["program"]["counter"] = counter
    path = tmp_path / "outside.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"target NIU 100 region {where} leaves the 32-bit address space" in err
    assert "Traceback" not in err


def test_compare_links_zero_width_exit_one(capsys):
    assert main(["compare-links", BASIC, "--widths", "0"]) == 1
    err = capsys.readouterr().err
    assert "link parameters" in err and "Traceback" not in err


def test_run_unknown_key_exit_one_names_it(tmp_path, capsys):
    assert main(["run", _edited(tmp_path, "burst_lens:", "burst_len:")]) == 1
    err = capsys.readouterr().err
    assert "unknown key 'burst_len'" in err and "Traceback" not in err


@pytest.mark.parametrize("old, new, message", [
    # a second run mapping used to replace the first whole, and seed 3 ran
    ("      threads: 4\n", "      threads: 4\nrun: {seed: 3}\n",
     "repeated key 'run'\n  in \"{}\", line 41, column 1"),
    ("op_mix: {load: 0.5, store: 0.5}", "op_mix: {load: 0.5, store: 0.5, load: 0.2}",
     "repeated key 'load'\n  in \"{}\", line 38, column 39"),
], ids=["top_level", "op_mix"])
def test_run_repeated_key_exit_one_names_it_and_its_line(old, new, message, tmp_path, capsys):
    edited = _edited(tmp_path, old, new)
    assert main(["run", edited]) == 1
    err = capsys.readouterr().err
    assert message.format(edited) in err and "Traceback" not in err


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.yaml")), ids=lambda p: p.stem)
def test_committed_files_read_as_plain_pyyaml_reads_them(path):
    assert load_scenario(path) == scenario_from_dict(yaml.safe_load(path.read_text()))


def test_run_non_utf8_file_exit_one(tmp_path, capsys):
    bad = tmp_path / "latin1.yaml"
    bad.write_bytes(Path(BASIC).read_bytes().replace(b"Two masters", b"Two m\xffsters"))
    assert main(["run", str(bad)]) == 1
    err = capsys.readouterr().err
    assert f"scenario file {bad} is not UTF-8" in err and "0xff" in err
    assert "Traceback" not in err


def test_run_deeply_nested_value_exit_one(tmp_path, capsys):
    # 2,000 levels used to exhaust PyYAML's recursive composer
    deep = _edited(tmp_path, "seed: 7", "seed: " + "[" * 2000 + "]" * 2000)
    assert main(["run", deep]) == 1
    err = capsys.readouterr().err
    assert f"malformed scenario {deep}: values nest deeper than 32 levels" in err
    assert "line 5, column 39" in err and "Traceback" not in err


def test_compare_links_non_integer_exit_one_names_flag(capsys):
    for flag in ("--widths", "--latencies", "--ratios"):
        assert main(["compare-links", BASIC, flag, "4,abc"]) == 1
        err = capsys.readouterr().err
        assert f"{flag} takes comma-separated integers, got '4,abc'" in err
        assert "Traceback" not in err


def test_run_fractional_integer_field_exit_one_names_it(tmp_path, capsys):
    assert main(["run", _edited(tmp_path, "width: 4", "width: 4.7")]) == 1
    err = capsys.readouterr().err
    assert "width of a link must be an integer, got 4.7" in err and "Traceback" not in err


def test_run_unallocatable_memory_exit_one(tmp_path, capsys):
    edited = _edited(tmp_path, "region: [0, 4096]}", "region: [0, 4096], memory: 1.0e+300}")
    assert main(["run", edited]) == 1
    err = capsys.readouterr().err
    assert "target NIU 100 memory size" in err and "Traceback" not in err


# -- run-only overrides ---------------------------------------------------------

@pytest.mark.parametrize("command", ["run", "verify", "compare-modes", "compare-links"])
def test_zero_max_cycles_exit_one(command, capsys):
    assert main([command, BASIC, "--max-cycles", "0"]) == 1
    err = capsys.readouterr().err
    assert "max_cycles must be positive" in err and "Traceback" not in err


@pytest.mark.parametrize("command, message", [
    ("compare-modes", "wormhole leg timed out\n"),
    ("compare-links",
     "timeout with link params LinkParams(flit_payload_width=4, latency=1, rate_ratio=1)\n"),
])
def test_short_max_cycles_exit_two(command, message, capsys):
    assert main([command, BASIC, "--max-cycles", "5"]) == 2
    assert capsys.readouterr().out == message


def test_compare_modes_seed_override_reaches_both_legs(tmp_path, capsys):
    assert main(["compare-modes", BASIC, "--seed", "5", "--out", str(tmp_path)]) == 0
    for leg in ("wormhole", "store_and_forward"):
        assert "\nseed = 5\n" in (tmp_path / f"{leg}-stats.txt").read_text()


# -- failure paths, planted from outside the simulator -----------------------------

def test_run_and_verify_print_violations_exit_three(monkeypatch, capsys):
    monkeypatch.setattr(cli, "check_invariants", lambda *args: ["a planted violation"])
    assert main(["run", BASIC]) == 3
    assert capsys.readouterr().out == "1 invariant violation(s):\n  a planted violation\n"
    assert main(["verify", BASIC]) == 3
    assert capsys.readouterr().out == "basic_line.yaml: 1 violation(s)\n  a planted violation\n"


WIDTH_4, WIDTH_8 = (f"LinkParams(flit_payload_width={w}, latency=1, rate_ratio=1)" for w in (4, 8))


def _second_leg_edited(monkeypatch, name, edit):
    """Wrap ``cli.<name>`` so that what it returns from its second call on is edited."""
    real, calls = getattr(cli, name), []

    def edited(*args):
        result = real(*args)
        calls.append(result)
        return edit(result) if len(calls) > 1 else result

    monkeypatch.setattr(cli, name, edited)


def _extra_row(projection):
    projection[0]["single"].append(("single", "LOAD", 0, "OKAY"))
    return projection


def test_compare_modes_projection_mismatch_exit_four(monkeypatch, capsys):
    _second_leg_edited(monkeypatch, "transaction_projection", _extra_row)
    assert main(["compare-modes", BASIC]) == 4
    assert capsys.readouterr().out == (
        "transport modes disagree: projections diverge at row 120: "
        "'1,thread:0,0,LOAD,2702,OKAY' vs '0,single,120,LOAD,0,OKAY'\n"
    )


def test_compare_links_projection_mismatch_exit_four(monkeypatch, capsys):
    _second_leg_edited(monkeypatch, "transaction_projection", _extra_row)
    assert main(["compare-links", BASIC, "--widths", "4,8", "--latencies", "1",
                 "--ratios", "1"]) == 4
    assert capsys.readouterr().out == (
        f"{WIDTH_8} vs {WIDTH_4}: projections diverge at row 120: "
        "'1,thread:0,0,LOAD,2702,OKAY' vs '0,single,120,LOAD,0,OKAY'\n"
    )


def test_compare_links_memory_mismatch_exit_four(monkeypatch, capsys):
    def other_memory(result):
        result.memories = {**result.memories, 100: b"planted"}
        return result

    _second_leg_edited(monkeypatch, "run_engine", other_memory)
    assert main(["compare-links", BASIC, "--widths", "4,8", "--latencies", "1",
                 "--ratios", "1"]) == 4
    assert capsys.readouterr().out == f"{WIDTH_8} vs {WIDTH_4}: final memory images differ\n"


def test_simulation_fault_exit_three(monkeypatch, capsys):
    def fault(scenario):
        raise CreditError("planted credit fault")

    monkeypatch.setattr(cli, "run_engine", fault)
    assert main(["run", BASIC]) == 3
    assert capsys.readouterr().err == "simulation fault: planted credit fault\n"
