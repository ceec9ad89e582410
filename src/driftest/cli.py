"""Command-line surface: estimate from a file, simulate, verify.

Exit codes are a stable scripting contract: 0 success, 1 verification
failure, 2 usage or input error.  Every randomized command accepts --seed
and reproduces byte-identical output for identical invocations.  The
environment variable DRIFTEST_THREADS caps worker parallelism (default:
available cores); parallel runs aggregate deterministically.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import TYPE_CHECKING

from .adaptive import adaptive_estimate
from .windows import check_delta, load_stream

# harness and driftgen are imported by the commands that use them, so that
# `estimate` does not pay for them
if TYPE_CHECKING:
    from .harness import CoverageReport, SuiteReport

_SUITES = ("metric", "prop1", "prop2", "prop3", "prop45", "prop6", "all")

_SUITE_TRIALS = {"metric": 10000, "prop1": 200, "prop2": 2000,
                 "prop3": 2000, "prop45": 200, "prop6": 10000}


def _workers() -> int:
    raw = os.environ.get("DRIFTEST_THREADS", "").strip()
    try:
        return max(1, int(raw)) if raw else (os.cpu_count() or 1)
    except ValueError:
        raise ValueError(f"DRIFTEST_THREADS must be an integer, got {raw!r}") from None


def _open_out(path: str):
    if path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8", newline=""), True


def _summary(line: str, output: str) -> None:
    """Print a command's summary; to stderr when stdout carries the output."""
    print(line, file=sys.stderr if output == "-" else sys.stdout)


def cmd_estimate(args) -> int:
    stream = load_stream(args.input)
    result = adaptive_estimate(stream, args.delta)
    fh, close = _open_out(args.output)
    try:
        fh.write(result.to_json() + "\n")
    finally:
        if close:
            fh.close()
    _summary(f"estimate: T={stream.size} chosen_window={result.chosen_window} "
             f"stop={result.stop.kind}", args.output)
    return 0


def cmd_simulate(args) -> int:
    from . import harness
    from .driftgen import load_scenario

    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    rows = harness.run_trials(scenario, args.trials, args.delta,
                              workers=_workers())
    fh, close = _open_out(args.output)
    try:
        harness.write_trials_csv(rows, scenario, args.delta, fh)
    finally:
        if close:
            fh.close()
    _summary(f"simulate: kind={scenario.kind} T={scenario.t} trials={args.trials} "
             f"seed={scenario.seed} -> {args.output}", args.output)
    return 0


def _print_suite(report: SuiteReport) -> bool:
    detail = " ".join(f"{name}={count}" for name, count in report.per_inequality)
    skipped = f" skipped={report.skipped}" if report.skipped else ""
    verdict = "PASS" if report.passed else "FAIL"
    print(f"[{report.name}] checks={report.checks} violations={report.violations} "
          f"max_slack={report.max_slack:.3e} {detail}{skipped} -> {verdict}")
    return report.passed


def _print_coverage(name: str, report: CoverageReport, delta: float) -> bool:
    ok = report.passes(delta)
    detail = " ".join(f"{n}={c}" for n, c in report.per_inequality)
    print(f"[{name}] trials={report.trials} coverage={report.empirical_coverage:.4f} "
          f"threshold={report.threshold(delta):.4f} {detail} "
          f"-> {'PASS' if ok else 'FAIL'}")
    return ok


def _run_suite(suite: str, trials: int | None, delta: float, seed: int) -> bool:
    from . import driftgen, harness

    n = trials if trials is not None else _SUITE_TRIALS[suite]
    workers = _workers()
    if suite == "metric":
        return _print_suite(harness.verify_metric(n, seed=seed))
    if suite == "prop6":
        ok = _print_suite(harness.verify_prop6(n, seed=seed))
        return _print_suite(harness.verify_lambda_bounds(n, seed=seed)) and ok
    if suite in ("prop2", "prop3"):
        # prop2 and prop3 share this scenario, and with it the cached truth side
        scenario = driftgen.linear_drift(k=10, step_delta=1e-3, t=1024, seed=seed)
        if suite == "prop2":
            report = harness.verify_prop2(scenario, 256, n, delta, workers=workers)
        else:
            report = harness.verify_prop3(scenario, n, delta, workers=workers)
        return _print_coverage(suite, report, delta)
    ok = True
    for scenario in harness.default_families(seed):
        if suite == "prop1":
            report = harness.verify_prop1(scenario, n, workers=workers)
        else:
            report = harness.verify_prop45(scenario, n, delta, workers=workers)
        report = dataclasses.replace(report, name=f"{suite}:{scenario.kind}")
        ok = _print_suite(report) and ok
    return ok


def cmd_verify(args) -> int:
    suites = [s for s in _SUITES if s != "all"] if args.suite == "all" else [args.suite]
    ok = True
    for suite in suites:
        ok = _run_suite(suite, args.trials, args.delta, args.seed) and ok
    print("verify: PASS" if ok else "verify: FAIL")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftest",
        description="Estimate the current distribution of a drifting discrete stream.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="estimate from a sample-stream file")
    p.add_argument("--input", required=True, help="sample stream, one integer per line")
    p.add_argument("--output", required=True, help="estimate JSON path ('-' for stdout)")
    p.add_argument("--delta", type=float, default=0.05)
    p.set_defaults(fn=cmd_estimate)

    p = sub.add_parser("simulate", help="run seeded trials of a drift scenario")
    p.add_argument("--scenario", required=True, help="scenario config path")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=None,
                   help="override the scenario file's seed")
    p.add_argument("--output", required=True, help="trial CSV path ('-' for stdout)")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", required=True, choices=_SUITES)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # checked before any input is read or truth side built, and for
        # suites whose campaigns do not use delta
        check_delta(args.delta)
        # numpy's seeding rejects a negative seed without naming it, and
        # only in some suites
        if args.command == "verify" and args.seed < 0:
            raise ValueError("--seed must be a nonnegative integer")
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"driftest: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
