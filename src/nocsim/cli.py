"""Batch command-line front end.

Exit codes are a stable contract:
  0  clean completion
  1  configuration / usage error
  2  timeout (deadlock or cycle budget exceeded)
  3  invariant violation detected in the trace
  4  comparison mismatch (compare-modes / compare-links)
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .engine import run as run_engine
from .errors import NocSimError, ScenarioError
from .fabric import TransportMode
from .link import LinkParams
from .scenario import Scenario, load_scenario
from .trace import check_invariants, compare_projections, transaction_projection

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_TIMEOUT = 2
EXIT_INVARIANT = 3
EXIT_MISMATCH = 4

_MODES = {
    "wormhole": TransportMode.WORMHOLE,
    "store_and_forward": TransportMode.STORE_AND_FORWARD,
}


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    if getattr(args, "mode", None):
        scenario = scenario.with_mode(_MODES[args.mode])
    if getattr(args, "seed", None) is not None:
        scenario = scenario.with_seed(args.seed)
    if getattr(args, "max_cycles", None) is not None:
        scenario = scenario.with_run(max_cycles=args.max_cycles)
    return scenario


def _write_outputs(result, out_dir: str, prefix: str = "") -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{prefix}trace.csv").write_text(result.trace.to_csv(), encoding="utf-8")
    (out / f"{prefix}stats.txt").write_text(result.stats.to_text(), encoding="utf-8")


def cmd_run(args) -> int:
    scenario = _apply_overrides(load_scenario(args.scenario), args)
    result = run_engine(scenario)
    if args.out:
        _write_outputs(result, args.out)
    if result.timed_out:
        print(f"TIMEOUT after {result.stats.cycles} cycles; stuck transactions:")
        for line in result.stuck:
            print(f"  {line}")
        return EXIT_TIMEOUT
    violations = check_invariants(result.trace, scenario, result.stats)
    if violations:
        print(f"{len(violations)} invariant violation(s):")
        for v in violations:
            print(f"  {v}")
        return EXIT_INVARIANT
    print(
        f"ok: {result.stats.completed_transactions} transactions in "
        f"{result.stats.cycles} cycles ({result.stats.mode}, seed {result.stats.seed})"
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    path = Path(args.scenario)
    files = sorted(path.glob("*.yaml")) if path.is_dir() else [path]
    if not files:
        print(f"no scenario files under {path}")
        return EXIT_CONFIG
    worst = EXIT_OK
    for f in files:
        scenario = _apply_overrides(load_scenario(str(f)), args).with_trace_level("full")
        result = run_engine(scenario)
        if result.timed_out:
            print(f"{f.name}: TIMEOUT ({len(result.stuck)} stuck)")
            worst = max(worst, EXIT_TIMEOUT)
            continue
        violations = check_invariants(result.trace, scenario, result.stats)
        if violations:
            print(f"{f.name}: {len(violations)} violation(s)")
            for v in violations:
                print(f"  {v}")
            worst = max(worst, EXIT_INVARIANT)
        else:
            print(f"{f.name}: clean ({result.stats.cycles} cycles)")
    return worst


def cmd_compare_modes(args) -> int:
    scenario = _apply_overrides(load_scenario(args.scenario), args)
    results = {}
    for name, mode in _MODES.items():
        leg = run_engine(scenario.with_mode(mode))
        if leg.timed_out:
            print(f"{name} leg timed out")
            return EXIT_TIMEOUT
        results[name] = leg
        if args.out:
            _write_outputs(leg, args.out, prefix=f"{name}-")
    pa = transaction_projection(results["wormhole"].trace)
    pb = transaction_projection(results["store_and_forward"].trace)
    divergence = compare_projections(pa, pb)
    if divergence:
        print(f"transport modes disagree: {divergence}")
        return EXIT_MISMATCH
    print("transport modes agree at the transaction level")
    return EXIT_OK


def _int_list(flag: str, text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise ScenarioError(
            f"{flag} takes comma-separated integers, got {text!r}"
        ) from None


def cmd_compare_links(args) -> int:
    scenario = _apply_overrides(load_scenario(args.scenario), args)
    widths = _int_list("--widths", args.widths)
    latencies = _int_list("--latencies", args.latencies)
    ratios = _int_list("--ratios", args.ratios)
    baseline = None
    for width in widths:
        for latency in latencies:
            for ratio in ratios:
                params = LinkParams(width, latency, ratio)
                result = run_engine(scenario.with_link_params(params))
                if result.timed_out:
                    print(f"timeout with link params {params}")
                    return EXIT_TIMEOUT
                snapshot = (transaction_projection(result.trace), result.memories)
                if baseline is None:
                    baseline = (params, snapshot)
                    continue
                divergence = compare_projections(baseline[1][0], snapshot[0])
                if divergence:
                    print(f"{params} vs {baseline[0]}: {divergence}")
                    return EXIT_MISMATCH
                if baseline[1][1] != snapshot[1]:
                    print(f"{params} vs {baseline[0]}: final memory images differ")
                    return EXIT_MISMATCH
    print(
        f"{len(widths) * len(latencies) * len(ratios)} link configurations agree "
        "on projections and final memory"
    )
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ScenarioError, so it exits 1 like any
    other configuration error rather than with argparse's 2 (a timeout)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ScenarioError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nocsim", description="layered network-on-chip simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_mode=True, scenario_help="scenario YAML file"):
        p.add_argument("scenario", help=scenario_help)
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        p.add_argument("--max-cycles", type=int, default=None)
        if with_mode:
            p.add_argument("--mode", choices=sorted(_MODES), default=None)

    p_run = sub.add_parser("run", help="run one scenario, write trace and stats")
    common(p_run)
    p_run.add_argument("--out", default=None, help="output directory for trace.csv / stats.txt")
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="run invariant checks over scenario file(s)")
    common(p_verify, with_mode=False, scenario_help="scenario YAML file or directory")
    p_verify.set_defaults(func=cmd_verify, mode=None)

    p_cmp = sub.add_parser(
        "compare-modes", help="check wormhole and store-and-forward agree"
    )
    common(p_cmp, with_mode=False)
    p_cmp.add_argument("--out", default=None)
    p_cmp.set_defaults(func=cmd_compare_modes)

    p_links = sub.add_parser(
        "compare-links", help="sweep link parameters, check projections and memory"
    )
    common(p_links)
    p_links.add_argument("--widths", default="4,8,16")
    p_links.add_argument("--latencies", default="1,3")
    p_links.add_argument("--ratios", default="1,2")
    p_links.set_defaults(func=cmd_compare_links)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ScenarioError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NocSimError as exc:
        print(f"simulation fault: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
