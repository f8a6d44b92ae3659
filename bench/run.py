"""nocsim benchmark: host throughput, verify time and a per-layer profile.

    python3 bench/run.py --workload mixed_corpus --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the simulator is imported from ``src/``
there. One invocation measures one workload in this process. After one
untimed warm-up pass it repeats a pass over the workload's scenarios while
another one fits into ``--seconds`` (at least ``MIN_PASSES`` times) and reports
medians over the timed passes, host times per scenario (``median_total``).
Every host time is scaled to a nominal host speed by short calibration
bursts taken around it (``calibrate``), because the speed of a shared host
drifts by up to 2x within a minute.
A pass builds every scenario and engine (set-up), runs each engine, audits
each trace with ``check_invariants`` and checks the result against
``sequential_oracle``. Every pass must give the same sha256 over all
``trace.csv`` + ``stats.txt`` texts.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics. The last line
of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. See README.md beside this
file for the workloads and the meaning of every metric.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("mixed_corpus", "slow_links", "atomics")
MIN_PASSES = 3
# check_invariants on a small trace takes about a millisecond, near the
# host's jitter; it is repeated until this much time has gone by.
VERIFY_MIN_S = 0.01
# set-up is short, so each pass does it at least this often and for at least
# this long, and keeps the median of each part; the engines of the last
# set-up are the ones that run
SETUP_REPEATS = 3
SETUP_MIN_S = 0.02
HELD_OUT_SEED = 9001  # claims must also hold here; never tune on it

# One calibration burst: a fixed loop of integer arithmetic that touches no
# nocsim code, so no change to the simulator can move it. Its time tracks
# how fast the host runs Python right now. Of the loops tried (README.md,
# "Bounds and steadiness"), this one's time followed the simulator's most
# closely as the host's speed drifted.
CALIBRATION_ITERATIONS = 30_000
# About a burst's median on the reference host (see README.md): a host time t
# bracketed by bursts of mean b is reported as t * NOMINAL_BURST_S / b.
NOMINAL_BURST_S = 0.0022


def calibrate() -> float:
    """Host seconds one calibration burst takes now."""
    clock = time.perf_counter
    start = clock()
    acc = 0
    for i in range(CALIBRATION_ITERATIONS):
        acc += i * i % 7
    return clock() - start


def host_scale(before: float, after: float) -> float:
    """Factor that takes a host time between two bursts to nominal speed."""
    return 2 * NOMINAL_BURST_S / (before + after)


@dataclass(frozen=True)
class Size:
    corpus_ids: tuple[int, ...]  # random_scenario generator seeds (criterion 1)
    corpus_streams: int  # stream seeds per corpus scenario
    slow_ids: tuple[int, ...]  # random_scenario generator seeds (criterion 2)
    slow_streams: int  # stream seeds per slow-link scenario
    slow_transactions: int
    atomic_masters: int
    atomic_iterations: int
    atomic_skew: int  # the seed moves up to this many iterations from lock to exclusive


FULL = Size(
    corpus_ids=tuple(range(12)),
    corpus_streams=2,
    slow_ids=tuple(range(1000, 1004)),
    slow_streams=4,
    slow_transactions=1000,
    atomic_masters=4,
    atomic_iterations=200,
    atomic_skew=4,
)
TINY = Size(
    corpus_ids=(0, 1),
    corpus_streams=1,
    slow_ids=(1000,),
    slow_streams=1,
    slow_transactions=60,
    atomic_masters=2,
    atomic_iterations=9,
    atomic_skew=1,
)


def scenarios(workload: str, seed: int, size: Size = FULL) -> list:
    """The workload's scenarios, generated and validated from ``seed`` alone.

    Generator seeds (topology, socket families, tag policies, op mixes) are
    fixed per workload; the benchmark seed draws the run seeds, which drive
    every master's transaction stream, and the loop lengths. Each random
    topology runs under several stream seeds, because one stream's latency
    tail varies by up to 2x from seed to seed.
    """
    from nocsim import LinkParams, TransportMode, atomic_loop_scenario, random_scenario

    rng = random.Random(f"{workload}/{seed}")
    if workload == "mixed_corpus":
        out = []
        for gen_seed in size.corpus_ids:
            base = random_scenario(gen_seed)
            for _ in range(size.corpus_streams):
                seeded = base.with_seed(rng.randrange(1 << 30))
                for mode in (TransportMode.WORMHOLE, TransportMode.STORE_AND_FORWARD):
                    out.append(seeded.with_mode(mode))
        return out
    if workload == "slow_links":
        slowest = LinkParams(flit_payload_width=4, latency=3, rate_ratio=2)
        out = []
        for gen_seed in size.slow_ids:
            base = random_scenario(
                gen_seed, total_transactions=size.slow_transactions
            ).with_link_params(slowest)
            for _ in range(size.slow_streams):
                out.append(base.with_seed(rng.randrange(1 << 30)))
        return out
    if workload == "atomics":
        # the audit is quadratic in the loop length; a skew that keeps the
        # total fixed keeps its time nearly the same from seed to seed
        skew = rng.randint(-size.atomic_skew, size.atomic_skew)
        return [
            atomic_loop_scenario(
                kind,
                n_masters=size.atomic_masters,
                iterations=size.atomic_iterations + sign * skew,
                seed=rng.randrange(1 << 30),
            )
            for kind, sign in (("exclusive", 1), ("lock", -1))
        ]
    raise ValueError(f"unknown workload {workload!r}")


def percentile(sorted_values: list[int], p: float) -> int:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(rank) - 1]


@dataclass
class Pass:
    # host times scaled to nominal speed (``host_scale``)
    scenario_s: float
    # per scenario, in workload order
    engine_s: list[float]
    run_s: list[float]
    verify_s: list[float]
    digest: str
    cycles: int
    transactions: int
    flits: int
    latencies: list[int]
    credit_stall_cycles: int
    lock_stall_cycles: int
    tag_stall_cycles: int
    trace_events: int
    raw_run_s: float  # unscaled, summed over scenarios
    scale: float  # median host_scale of the pass
    runs: int
    failures: list[str]
    tracer: object = None


def run_pass(workload: str, seed: int, size: Size, oracle: dict, tracer=None) -> Pass:
    """Set up, run, audit and check every scenario of the workload once.

    ``oracle`` caches ``sequential_oracle`` memories by scenario index; it
    is filled on the first pass and outside every timed region. Each of the
    repeated set-ups is bracketed by calibration bursts, and so is
    each scenario's run and its audit.
    """
    from nocsim import Engine, check_invariants, sequential_oracle

    clock = time.perf_counter
    burst = calibrate()
    scales: list[float] = []
    builds: list[list[float]] = []  # per set-up: scenarios, then each engine
    while len(builds) < SETUP_REPEATS or sum(map(sum, builds)) < SETUP_MIN_S:
        t = clock()
        scs = scenarios(workload, seed, size)
        build = [clock() - t]
        engines = []
        for sc in scs:
            t = clock()
            engines.append(Engine(sc))
            build.append(clock() - t)
        previous, burst = burst, calibrate()
        scales.append(host_scale(previous, burst))
        builds.append([s * scales[-1] for s in build])
    scenario_s, *engine_s = (statistics.median(col) for col in zip(*builds))

    digest = hashlib.sha256()
    run_s: list[float] = []
    verify_s: list[float] = []
    raw_run_s = 0.0
    cycles = transactions = flits = events = 0
    credit = lock = tag = 0
    latencies: list[int] = []
    failures: list[str] = []
    for i, (sc, engine) in enumerate(zip(scs, engines)):
        if tracer is not None:
            tracer.attach(engine)
        t = clock()
        result = engine.run()
        t_run = clock() - t
        previous, burst = burst, calibrate()
        scales.append(host_scale(previous, burst))
        run_s.append(t_run * scales[-1])
        raw_run_s += t_run
        t = clock()
        audits = 0
        while True:
            violations = check_invariants(result.trace, sc, result.stats)
            audits += 1
            t_verify = clock() - t
            if t_verify >= VERIFY_MIN_S:
                break
        t_verify /= audits
        previous, burst = burst, calibrate()
        scales.append(host_scale(previous, burst))
        verify_s.append(t_verify * scales[-1])

        if i not in oracle:
            oracle[i] = sequential_oracle(sc)
        name = f"{workload}[{i}] {sc.run.mode.name.lower()}"
        if result.timed_out:
            failures.append(f"{name}: timed out at cycle {result.stats.cycles}")
        elif violations:
            failures.append(f"{name}: {violations[0]}")
        elif result.memories != oracle[i]:
            failures.append(f"{name}: memory differs from sequential_oracle")

        stats = result.stats
        digest.update(result.trace.to_csv().encode())
        digest.update(stats.to_text().encode())
        cycles += stats.cycles
        events += len(result.trace)
        for ms in stats.masters.values():
            transactions += ms.issued
            tag += ms.tag_stall_cycles
            latencies.extend(ms.latencies)
        flits += sum(ch["flits"] for ch in stats.channels.values())
        for stall in stats.port_stalls.values():
            credit += stall["credit"]
            lock += stall["lock"]

    latencies.sort()
    return Pass(
        scenario_s=scenario_s, engine_s=engine_s, run_s=run_s,
        verify_s=verify_s, digest=digest.hexdigest(), cycles=cycles,
        transactions=transactions, flits=flits, latencies=latencies,
        credit_stall_cycles=credit, lock_stall_cycles=lock, tag_stall_cycles=tag,
        trace_events=events, raw_run_s=raw_run_s, scale=statistics.median(scales),
        runs=len(scs), failures=failures, tracer=tracer,
    )


def median_total(passes: list[Pass], field: str) -> float:
    """Sum over scenarios of each scenario's median time across the passes.

    A host hiccup that slows part of one pass then moves only the scenarios
    it hit, and only if it hit them in most passes.
    """
    columns = zip(*(getattr(p, field) for p in passes))
    return sum(statistics.median(col) for col in columns)


def end_to_end(passes: list[Pass]) -> dict[str, tuple[float, str]]:
    first = passes[0]
    run_s = median_total(passes, "run_s")
    return {
        "sim_cycles_per_s": (first.cycles / run_s, "cycles/s"),
        "txn_per_s": (first.transactions / run_s, "txn/s"),
        "flits_per_s": (first.flits / run_s, "flits/s"),
        "setup_s": (statistics.median(p.scenario_s for p in passes)
                    + median_total(passes, "engine_s"), "s"),
        "verify_s": (median_total(passes, "verify_s"), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "sim_cycles": (first.cycles, "cycles"),
        "txn_latency_p50_cycles": (percentile(first.latencies, 50), "cycles"),
        "txn_latency_p99_cycles": (percentile(first.latencies, 99), "cycles"),
    }


def _ratio(part: int, whole: int) -> float:
    # a ratio over no attempts counts as all useful: nothing was wasted
    return part / whole if whole else 1.0


def layer_values(p: Pass) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, span times at nominal speed."""
    tr = p.tracer
    spans = tr.totals()
    ns = p.scale / 1e9

    def span(name):
        return spans.get(name, [0, 0, 0, 0])

    out: dict[str, tuple[float, str]] = {}

    def calls_busy(name, ratio=None):
        calls, busy, _, useful = span(name)
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.busy_s"] = (busy * ns, "s")
        if ratio:
            out[f"{name}.{ratio}"] = (_ratio(useful, calls), "ratio")

    calls, _, self_ns, useful = span("fabric.switch_step")
    out["fabric.switch_step.calls"] = (calls, "count")
    out["fabric.switch_step.self_s"] = (self_ns * ns, "s")
    out["fabric.switch_step.useful_ratio"] = (_ratio(useful, calls), "ratio")
    out["fabric.credit_stall_cycles"] = (p.credit_stall_cycles, "cycles")
    out["fabric.lock_stall_cycles"] = (p.lock_stall_cycles, "cycles")
    calls_busy("link.deliver")
    calls_busy("link.send")
    calls_busy("link.serialize")
    out["link.flits_per_packet"] = (_ratio(tr.flits, tr.head_flits), "flits/packet")
    calls_busy("niu.try_accept", "accept_ratio")
    out["niu.tag_stall_cycles"] = (p.tag_stall_cycles, "cycles")
    calls_busy("niu.step_inject", "useful_ratio")
    calls_busy("niu.step_egress", "useful_ratio")
    calls_busy("niu.target_step", "useful_ratio")
    calls_busy("workload.offer", "useful_ratio")
    out["workload.deliver.busy_s"] = (span("workload.deliver")[1] * ns, "s")
    out["workload.exclusive_success_ratio"] = (
        _ratio(tr.exclusive_ok, tr.exclusive_ok + tr.exclusive_failed), "ratio"
    )
    calls_busy("trace.record")
    out["trace.events"] = (p.trace_events, "count")
    out["trace.check_invariants.busy_s"] = (sum(p.verify_s), "s")
    out["scenario.build.busy_s"] = (p.scenario_s, "s")
    out["engine.build.busy_s"] = (sum(p.engine_s), "s")
    out["engine.loop.self_s"] = (span("engine.loop")[2] * ns, "s")
    out["engine.idle_cycle_share"] = (1 - tr.send_cycles / p.cycles, "ratio")
    return out


def per_layer(traced: list[Pass], untraced: list[Pass]) -> dict[str, tuple[float, str]]:
    per_pass = [layer_values(p) for p in traced]
    out = {
        name: (statistics.median(v[name][0] for v in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }
    ratio = median_total(traced, "run_s") / median_total(untraced, "run_s")
    out["tracing_overhead_ratio"] = (ratio, "ratio")
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool, size: Size = FULL):
    """Repeat passes for ``seconds``; return (warm-up, untraced, traced) passes.

    A new round of passes starts only if one as long as the last round still
    fits into ``seconds``, unless fewer than ``MIN_PASSES`` rounds were run.

    The warm-up pass fills the oracle cache and the allocator; it is checked
    like every other pass but timed by none of the metrics. A full
    collection after each pass frees the engines' reference cycles, so peak
    memory does not grow with the number of passes.
    """
    from tracer import Tracer

    oracle: dict = {}
    warmup = run_pass(workload, seed, size, oracle)
    gc.collect()
    untraced: list[Pass] = []
    traced: list[Pass] = []
    start = last = time.perf_counter()
    round_s = 0.0
    while len(untraced) < MIN_PASSES or last - start + round_s <= seconds:
        untraced.append(run_pass(workload, seed, size, oracle))
        gc.collect()
        if trace:
            tracer = Tracer()
            with tracer.hooks():
                traced.append(run_pass(workload, seed, size, oracle, tracer))
            gc.collect()
        now = time.perf_counter()
        round_s, last = now - last, now
    return warmup, untraced, traced


def git_commit() -> str:
    """HEAD's commit, or ``unknown`` outside a git clone or without git."""
    if not (ROOT / ".git").exists():  # keeps git from searching parent directories
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def report(workload, seed, seconds, passes, untraced, traced) -> bool:
    """Print metadata, digests and failures; True when every pass agreed."""
    digests = sorted({p.digest for p in passes})
    meta = {
        "workload": workload,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    print("pass_run_s " + json.dumps([round(sum(p.run_s), 4) for p in untraced]))
    print("pass_raw_run_s " + json.dumps([round(p.raw_run_s, 4) for p in untraced]))
    print("pass_host_scale " + json.dumps([round(p.scale, 4) for p in untraced]))
    for digest in digests:
        print(f"digest {workload} sha256={digest}")
    for failure in [f for p in passes for f in p.failures][:20]:
        print(f"FAILED {failure}")
    return len(digests) == 1


def write_spans(workload: str, seed: int, traced: list[Pass]) -> Path:
    """Dump the traced passes' span aggregates, kept in memory until now."""
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload}-{seed}.json"
    rows = [
        [
            {"caller": caller, "span": name, "calls": rec[0], "busy_ns": rec[1],
             "self_ns": rec[2], "useful": rec[3]}
            for (caller, name), rec in sorted(p.tracer.spans.items())
        ]
        for p in traced
    ]
    path.write_text(json.dumps({"workload": workload, "seed": seed, "passes": rows}))
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "nocsim" / "__init__.py").is_file():
        print(f"error: no simulator sources at {src / 'nocsim'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import nocsim

    if Path(nocsim.__file__).resolve().parent != (src / "nocsim").resolve():
        print(f"error: imported nocsim from {nocsim.__file__}, not {src}", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    warmup, untraced, traced = measure(args.workload, args.seed, args.seconds, trace)
    passes = [warmup] + untraced + traced
    attempted = sum(p.runs for p in passes)
    failed = sum(len(p.failures) for p in passes)
    correct = report(args.workload, args.seed, args.seconds, passes, untraced, traced)
    correct = correct and failed == 0
    if trace:
        path = write_spans(args.workload, args.seed, traced)
        print(f"spans written to {path.relative_to(ROOT)}")

    metrics = per_layer(traced, untraced) if trace else end_to_end(untraced)
    print(f"failed_share = {failed / attempted} ({failed} of {attempted} scenario runs)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
