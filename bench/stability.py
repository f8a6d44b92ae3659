"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/stability.py --out bench/baseline.json
    python3 bench/stability.py --compare bench/baseline.json

Each run is a fresh ``bench/run.py`` process, one after another: every
workload of ``BENCHMARK.json`` on seeds 1 to 10, each for the file's
``run_seconds``. For every workload and end-to-end metric it prints
the median over the runs and the spread: the distance between the first
and third quartile (``statistics.quantiles(values, n=4)``) as a share of
the median, next to the metric's bound from ``BENCHMARK.json``.

After the ten runs of a workload it makes one ``--trace 1`` run on seed 1,
records its per-layer metrics and checks that it reproduces the untraced
digests.

``--compare`` checks a second set of runs against a saved one: digests and
simulated metrics (``sim_cycles``, latency percentiles) must be identical
seed for seed, and each host-time median must be no worse than the saved
one by more than the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT = ("sim_cycles", "txn_latency_p50_cycles", "txn_latency_p99_cycles")
SEEDS = list(range(1, 11))


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=False,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n"
                         f"{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    result["digests"] = [ln.split("sha256=")[1] for ln in lines if ln.startswith("digest ")]
    result["meta"] = json.loads(next(ln[5:] for ln in lines if ln.startswith("meta ")))
    result["wall_s"] = time.perf_counter() - start
    return result


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def worse_by(metric: dict, new: float, old: float) -> float:
    """How much worse ``new`` is than ``old``, as a share of ``old``."""
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path)
    ap.add_argument("--compare", type=Path)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    old = json.loads(args.compare.read_text()) if args.compare else None
    if old is not None and old["seconds"] != seconds:
        raise SystemExit(f"{args.compare} was measured for {old['seconds']} s, "
                         f"not run_seconds {seconds}")

    record = {"seconds": seconds, "seeds": SEEDS, "workloads": {}}
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in SEEDS:
            runs.append(run_once(workload, seed, seconds))
            print(f"{workload} seed {seed}: correct={runs[-1]['correct']} "
                  f"wall {runs[-1]['wall_s']:.1f} s", file=sys.stderr)
        ok &= all(r["correct"] and r["failed"] == 0 for r in runs)
        summary = {}
        print(f"\n{workload}: {len(runs)} runs, {seconds} s each")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            row = {"median": statistics.median(values), "spread": spread(values),
                   "bound": metric["bound"], "values": values}
            summary[name] = row
            line = (f"  {name:24s} median {row['median']:<14.6g} spread "
                    f"{row['spread']:.3f}  bound {metric['bound']}")
            if old is not None:
                before = old["workloads"][workload]["metrics"][name]
                if name in EXACT:
                    same = values == before["values"]
                    ok &= same
                    line += "  identical" if same else "  DIFFERS"
                else:
                    worse = worse_by(metric, row["median"], before["median"])
                    ok &= worse <= metric["bound"]
                    line += f"  worse by {worse:+.3f}"
            print(line)
        digests = [r["digests"] for r in runs]
        if old is not None:
            same = digests == old["workloads"][workload]["digests"]
            ok &= same
            print("  digests " + ("identical" if same else "DIFFER"))
        # one traced run on the first seed: per-layer figures, and the
        # wrappers must reproduce the untraced digests
        traced = run_once(workload, SEEDS[0], seconds, trace=1)
        same = traced["correct"] and traced["digests"] == digests[0]
        ok &= same
        print(f"  traced seed {SEEDS[0]}: digests "
              + ("match untraced" if same else "DIFFER from untraced")
              + f", tracing_overhead_ratio "
              f"{traced['metrics']['tracing_overhead_ratio']['value']:.2f}")
        record["workloads"][workload] = {
            "metrics": summary, "digests": digests, "meta": runs[0]["meta"],
            "wall_s": [round(r["wall_s"], 1) for r in runs],
            "traced": {
                "seed": SEEDS[0], "digests": traced["digests"],
                "metrics": {n: m["value"] for n, m in traced["metrics"].items()},
            },
        }
    if args.out:
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
