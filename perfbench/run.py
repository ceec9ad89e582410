"""Closed-loop benchmark of the driftest CLI, end to end or traced per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the CLI is run from
the checkout's ``src`` with one worker (``PINNED_ENV``).  One client runs one
CLI invocation at a time, each a fresh process timed from spawn to exit,
and checks its output.  Set-up (making the inputs and one warm-up
invocation) is repeated SETUP_REPEATS times and its median reported.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics.  With ``--trace 1`` untraced invocations alternate with traced
ones (``tracer.py``), and the last line holds the per-module metrics.  The
line before it is a record of the environment, the inputs, the invocation
counts and the output sha256.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

SETUP_REPEATS = 3
# a run must end within 180 s; invocations still running then are killed
RUN_DEADLINE_S = 170.0
CLI = "import sys; from driftest.cli import main; sys.exit(main())"
# One worker and no BLAS thread pool.  On a small shared machine extra
# threads measure the scheduler: on 2 vCPUs the idle OpenBLAS pool adds
# about 0.2 s and most of the jitter to a 1 s estimate invocation.
PINNED_ENV = {"DRIFTEST_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    output: bytes
    problems: list[str]
    trace: dict | None = None


class Client:
    """Runs CLI invocations one at a time and keeps every result."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.env.update(PINNED_ENV)
        self.attempts: list[Invocation] = []
        self.first_sha: str | None = None
        self.byte_mismatches = 0

    def invoke(self, prepared: workloads.Prepared, traced: bool = False) -> Invocation:
        spans_path = self.workdir / "spans.json"
        if traced:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(spans_path)]
        else:
            cmd = [sys.executable, "-c", CLI]
        for path in (prepared.output, spans_path):
            if path is not None:
                path.unlink(missing_ok=True)
        stdout_path = self.workdir / "stdout.txt"
        with open(stdout_path, "wb") as out, open(self.workdir / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd + prepared.argv, stdout=out, stderr=err,
                                    env=self.env, cwd=self.workdir)
            killer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)

        result_path = prepared.output or stdout_path
        output = result_path.read_bytes() if result_path.exists() else b""
        problems = [] if proc.returncode == 0 else [f"exit code {proc.returncode}"]
        problems += prepared.check(output)
        sha = hashlib.sha256(output).hexdigest()
        if self.first_sha is None:
            self.first_sha = sha
        elif sha != self.first_sha:
            self.byte_mismatches += 1
            problems.append("output bytes differ from the first invocation")
        trace = None
        if traced:
            try:
                trace = json.loads(spans_path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                problems.append("traced invocation wrote no spans")
        inv = Invocation(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                         output, problems, trace)
        self.attempts.append(inv)
        return inv

    @property
    def failed(self) -> int:
        return sum(1 for inv in self.attempts if inv.problems)


def layer_metrics(trace: dict, output: bytes) -> dict[str, tuple[float, str]]:
    """Per-module metrics of one traced invocation; 0 where a layer did not run."""
    tot = spans.totals(trace["spans"])

    def calls(name):
        return tot.get(name, {}).get("calls", 0)

    def self_s(name):
        return tot.get(name, {}).get("self_s", 0.0)

    def per(count, base):
        return count / base if base else 0.0

    trials = calls("driftgen.sample_stream")
    verify_self = sum((v["self_s"] for k, v in tot.items() if k.startswith("harness.verify_")), 0.0)
    return {
        "cli.import_s": (trace["import_s"], "s"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "windows.parse_stream_text.self_s": (self_s("windows.parse_stream_text"), "s"),
        "windows.build_ladder.calls": (calls("windows.build_ladder"), "count"),
        "windows.build_ladder.self_s": (self_s("windows.build_ladder"), "s"),
        "windows.build_ladder.per_trial": (per(calls("windows.build_ladder"), trials), "calls/trial"),
        "adaptive.adaptive_estimate.calls": (calls("adaptive.adaptive_estimate"), "count"),
        "adaptive.adaptive_estimate.self_s": (self_s("adaptive.adaptive_estimate"), "s"),
        "adaptive.realized_error_curve.self_s": (self_s("adaptive.realized_error_curve"), "s"),
        "adaptive.q_curve.self_s": (self_s("adaptive.q_curve"), "s"),
        "adaptive.drift_sequence.calls": (calls("adaptive.drift_sequence"), "count"),
        "adaptive.drift_sequence.per_scenario": (
            per(calls("adaptive.drift_sequence"), trace["scenarios"]), "calls/scenario"),
        "adaptive.drift_sequence.self_s": (self_s("adaptive.drift_sequence"), "s"),
        "dist.tv_distance.calls": (calls("dist.tv_distance"), "count"),
        "dist.tv_distance.self_s": (self_s("dist.tv_distance"), "s"),
        "dist.Pmf.calls": (trace["pmf_constructions"], "count"),
        "driftgen.sample_stream.calls": (trials, "count"),
        "driftgen.sample_stream.self_s": (self_s("driftgen.sample_stream"), "s"),
        "driftgen.segments.self_s": (self_s("driftgen.segments"), "s"),
        "driftgen.truth_pmfs.self_s": (self_s("driftgen.truth_pmfs"), "s"),
        "harness.run_trials.self_s": (self_s("harness.run_trials"), "s"),
        "harness.verify.self_s": (verify_self, "s"),
        "harness.prop45.checked_share": (workloads.prop45_checked_share(output), "share"),
    }


def git_commit() -> str | None:
    """The checkout's commit, read from .git inside it when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    """sha256 over the program's Python sources; names the code without .git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(env: dict) -> dict:
    try:
        scipy = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy, "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            **{name: env[name] for name in PINNED_ENV},
            "git_commit": git_commit(), "source_sha256": source_sha256(),
            "platform": platform.platform()}


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    client = Client(workdir, deadline)
    prepare = workloads.WORKLOADS[workload]

    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        prepared = prepare(seed, workdir)
        client.invoke(prepared)
        setup_times.append(time.perf_counter() - start)

    untraced: list[Invocation] = []
    traced: list[Invocation] = []
    start = time.perf_counter()
    while True:
        batch = [client.invoke(prepared)]
        if trace:
            batch.append(client.invoke(prepared, traced=True))
        untraced.append(batch[0])
        traced.extend(batch[1:])
        needed = sum(inv.wall_s for inv in batch)
        if (time.perf_counter() - start + needed > seconds
                or time.monotonic() + needed > deadline):
            break

    walls = [inv.wall_s for inv in untraced]
    attempted = len(client.attempts)
    end_to_end = {
        "setup_s": (statistics.median(setup_times), "s"),
        "invocation_s.p50": (statistics.median(walls), "s"),
        # a median, like the times: one slow invocation must not move it
        "items_per_s": (statistics.median(prepared.items(inv.output) / inv.wall_s
                                          for inv in untraced), "1/s"),
        "cpu_s.p50": (statistics.median(inv.cpu_s for inv in untraced), "s"),
        "peak_rss_mb": (max(inv.maxrss_kb for inv in untraced) / 1024.0, "MB"),
        "ok_share": (1.0 - client.failed / attempted, "share"),
    }
    per_layer = {}
    absent = []
    if trace:
        samples = [layer_metrics(inv.trace, inv.output) for inv in traced if inv.trace]
        for name in (samples[0] if samples else {}):
            per_layer[name] = (statistics.median(s[name][0] for s in samples),
                               samples[0][name][1])
        absent = traced[0].trace["absent"] if traced[0].trace else []
        per_layer["trace.overhead_s"] = (
            statistics.median(inv.wall_s for inv in traced) - end_to_end["invocation_s.p50"][0],
            "s")

    problems = sorted({p for inv in client.attempts for p in inv.problems})
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(client.env),
        "input": prepared.record,
        "argv": prepared.argv,
        "invocations": {"setup": SETUP_REPEATS, "measured": len(untraced),
                        "traced": len(traced), "attempted": attempted,
                        "failed": client.failed},
        "failed_share": client.failed / attempted,
        "setup_s": setup_times,
        "invocation_s": walls,
        "traced_invocation_s": [inv.wall_s for inv in traced],
        "output_sha256": client.first_sha,
        "byte_mismatches": client.byte_mismatches,
        "problems": problems[:20],
        "absent": absent,
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
    }
    metrics = per_layer if trace else end_to_end
    return {"record": record, "result": {
        "correct": client.failed == 0,
        "attempted": attempted,
        "failed": client.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "driftest" / "cli.py").is_file():
        print(f"perfbench: no driftest sources under {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps({"record": out["record"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
