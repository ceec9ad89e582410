"""The benchmark's workloads: inputs made from a seed, argv, checks, item counts.

Inputs are generated here with numpy alone, never with driftest, so a
change to the program cannot change what it is given.  The CLI receives
only the generated files and flags.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

ESTIMATE_T = 2**20
ZIPF_S = 3.0
# zipf support is truncated here; the dropped tail holds about 4e-13 mass
ZIPF_SUPPORT = 2**20

SIMULATE_T = 8192
SIMULATE_TRIALS = 8
SIMULATE_CONFIG = ("kind = rotating_support\nt = {t}\nseed = {seed}\n"
                   "k = 8\nperiod = 1\n")

VERIFY_TRIALS = 50


@dataclass(frozen=True)
class Prepared:
    """One workload's generated inputs and how to judge an invocation."""

    argv: list[str]
    # file the CLI writes; None when standard output is the output
    output: Path | None
    check: Callable[[bytes], list[str]]
    items: Callable[[bytes], int]
    record: dict


def zipf_samples(seed: int, n: int = ESTIMATE_T) -> np.ndarray:
    """n i.i.d. zipf(ZIPF_S) samples over 1..ZIPF_SUPPORT, by inverse CDF."""
    ranks = np.arange(1, ZIPF_SUPPORT + 1, dtype=np.float64)
    cdf = np.cumsum(ranks**-ZIPF_S)
    cdf /= cdf[-1]
    u = np.random.default_rng(seed).random(n)
    idx = np.minimum(np.searchsorted(cdf, u, side="right"), ZIPF_SUPPORT - 1)
    return idx.astype(np.int64) + 1


def prepare_estimate(seed: int, workdir: Path) -> Prepared:
    samples = zipf_samples(seed)
    stream = workdir / "stream.txt"
    stream.write_text("\n".join(map(str, samples.tolist())) + "\n", encoding="utf-8")
    output = workdir / "estimate.json"
    return Prepared(
        argv=["estimate", "--input", str(stream), "--output", str(output)],
        output=output,
        check=lambda out: checks.check_estimate(out, samples),
        items=lambda out: ESTIMATE_T,
        record={"T": ESTIMATE_T, "K": int(np.unique(samples).size),
                "input_bytes": stream.stat().st_size,
                "trials_per_invocation": None, "items": "input samples"})


def prepare_simulate(seed: int, workdir: Path) -> Prepared:
    config = workdir / "scenario.cfg"
    config.write_text(SIMULATE_CONFIG.format(t=SIMULATE_T, seed=seed), encoding="utf-8")
    output = workdir / "trials.csv"
    return Prepared(
        argv=["simulate", "--scenario", str(config),
              "--trials", str(SIMULATE_TRIALS), "--output", str(output)],
        output=output,
        check=lambda out: checks.check_simulate(
            out, SIMULATE_TRIALS, SIMULATE_T, "rotating_support"),
        items=lambda out: SIMULATE_TRIALS,
        # period 1 draws every step from 8 fresh symbols, so all T samples
        # of a trial are distinct
        record={"T": SIMULATE_T, "K": SIMULATE_T,
                "input_bytes": config.stat().st_size,
                "trials_per_invocation": SIMULATE_TRIALS, "items": "trials"})


def suite_lines(output: bytes) -> list[str]:
    """The per-suite result lines of verify's standard output."""
    text = output.decode("utf-8", errors="replace")
    return [line for line in text.splitlines() if line.startswith("[")]


def prop45_checked_share(output: bytes, trials: int = VERIFY_TRIALS) -> float:
    """Share of prop45 trials checked, from each family's skipped= count."""
    lines = [line for line in suite_lines(output) if line.startswith("[prop45")]
    if not lines:
        return 0.0
    skipped = sum(int(m.group(1)) for line in lines
                  for m in [re.search(r" skipped=(\d+)", line)] if m)
    attempted = trials * len(lines)
    return (attempted - skipped) / attempted


def prepare_verify(seed: int, workdir: Path) -> Prepared:
    return Prepared(
        argv=["verify", "--suite", "all", "--trials", str(VERIFY_TRIALS),
              "--seed", str(seed)],
        output=None,
        check=checks.check_verify,
        items=lambda out: VERIFY_TRIALS * len(suite_lines(out)),
        # each suite draws its own streams from --seed; there is no input file
        record={"T": None, "K": None, "input_bytes": 0,
                "trials_per_invocation": VERIFY_TRIALS,
                "items": "trials, summed over the suite result lines"})


WORKLOADS = {
    "estimate-zipf-1m": prepare_estimate,
    "simulate-rotating-8k": prepare_simulate,
    "verify-all": prepare_verify,
}
