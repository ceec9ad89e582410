"""Accepted inputs run in bounded memory and time; oversized ones are
rejected up front.

Each case runs the CLI in a child process whose address space is capped,
so a run that outgrew it would die with a MemoryError traceback (or be
killed) instead of exiting 0 or 2.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

resource = pytest.importorskip("resource")

ADDRESS_SPACE_LIMIT = 1536 * 2**20

# each config with the fragment of the error that must reject it, so that an
# earlier, unrelated rejection cannot pass for it
CONFIGS = {
    "iid": ("kind = iid\nt = 16\nk = 100000000000000000000\n", "key 'k': must lie in"),
    "iid_horizon": ("kind = iid\nt = 100000000000\nk = 4\n", "t must lie in"),
    # one row, but each of the 5 window averages spans all k symbols
    "iid_window_averages": ("kind = iid\nt = 16\nk = 20000000\n", "window averages"),
    "linear_drift": ("kind = linear_drift\nt = 64\nk = 3000000\nstep_delta = 1e-9\n",
                     "atoms"),
    "abrupt": ("kind = abrupt\nt = 100000000000\nk = 10\nchange_point = 1000\n",
               "t must lie in"),
    "rotating_support": ("kind = rotating_support\nt = 4\nk = 30000000\nperiod = 1\n",
                         "key 'k': must lie in"),
    "rotating_support_many_pmfs":
        ("kind = rotating_support\nt = 20000000\nk = 1\nperiod = 1\n", "atoms"),
    "geometric_drift":
        ("kind = geometric_drift\nt = 16\ngeo_p_start = 1e-7\ngeo_p_end = 1e-7\n", "atoms"),
    # every step its own parameter; the schedule is counted lazily, not listed
    "geometric_drift_long_ramp":
        ("kind = geometric_drift\nt = 20000000\ngeo_p_start = 0.9\ngeo_p_end = 0.8\n",
         "atoms"),
    "zipf_drift":
        ("kind = zipf_drift\nt = 4096\nzipf_s_start = 3.0\nzipf_s_end = 2.8\n", "atoms"),
    # about 17 atoms per step: the running total passes the bound near step 487,805
    "zipf_drift_long_ramp":
        ("kind = zipf_drift\nt = 20000000\nzipf_s_start = 10.0\nzipf_s_end = 9.0\n",
         "atoms"),
}


# the largest ladders and truths the bounds admit, each for one trial
ADMITTED = {
    # the largest dyadic window holds 2^24 samples
    "iid_largest_window": "kind = iid\nt = 20000000\nk = 4\n",
    # 5 window averages of k atoms each: at the bound
    "iid_window_averages": "kind = iid\nt = 16\nk = 4000000\n",
    # 571,000 rows of 11 atoms plus 24 per pmf: at the bound
    "linear_drift": "kind = linear_drift\nt = 571000\nk = 10\nstep_delta = 1e-6\n",
    "rotating_support": "kind = rotating_support\nt = 625000\nk = 8\nperiod = 1\n",
    "geometric_drift":
        "kind = geometric_drift\nt = 490000\ngeo_p_start = 0.9\ngeo_p_end = 0.8\n",
    # about 1.9 * 10^7 row atoms; the same ramp over 32,768 steps exits 2
    "zipf_drift": "kind = zipf_drift\nt = 16384\nzipf_s_start = 5.0\nzipf_s_end = 4.5\n",
}


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))


def _run_capped(*argv):
    """Run the CLI under the address-space cap; its process and wall seconds."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", DRIFTEST_THREADS="1")
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "driftest.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=_limit_address_space)
    return proc, time.monotonic() - start


def _simulate_one_trial(text, tmp_path):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(text + "seed = 0\n")
    return _run_capped("simulate", "--scenario", str(cfg), "--trials", "1", "--output", "-")


@pytest.mark.parametrize("name", sorted(ADMITTED))
def test_largest_admitted_scenario_runs_within_the_limits(name, tmp_path):
    text = ADMITTED[name]
    proc, elapsed = _simulate_one_trial(text, tmp_path)
    assert proc.returncode == 0, proc.stderr
    header, row = proc.stdout.splitlines()  # one trial
    t = dict(zip(header.split(","), row.split(",")))["T"]
    assert f"\nt = {t}\n" in text
    assert elapsed < 20.0


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_oversized_scenario_exits_two(name, tmp_path):
    text, reason = CONFIGS[name]
    proc, elapsed = _simulate_one_trial(text, tmp_path)
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("driftest: error:"), proc.stderr
    assert reason in lines[0], proc.stderr
    assert "Traceback" not in proc.stderr
    assert elapsed < 20.0


# the two routes: the byte route of a file of digit lines, blank lines and
# '\n' or '\r\n' ends, up to its widest (18-digit) lines, and the line
# route of a file with a '#' line
@pytest.mark.parametrize("edit", [
    lambda text: text, lambda text: "# a header line\n" + text,
    lambda text: text + "\n", lambda text: text.replace("\n", "\n\n"),
    lambda text: text.replace("\n", "\r\n"),
    lambda text: "".join(f"1{line:0>17}\n" for line in text.splitlines()),
], ids=["well_formed", "header", "trailing_blank", "blank_lines", "crlf", "eighteen_digits"])
def test_estimate_on_a_long_stream_runs_within_the_limits(edit, tmp_path):
    t = 2**22
    samples = np.random.default_rng(0).zipf(2.0, t) % 10**6
    stream = tmp_path / "stream.txt"
    stream.write_text(edit("\n".join(map(str, samples.tolist())) + "\n"))
    proc, elapsed = _run_capped("estimate", "--input", str(stream), "--output", "-")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["chosen_window"] <= t
    assert proc.stderr.startswith(f"estimate: T={t} "), proc.stderr
    assert elapsed < 20.0


def test_estimate_on_distinct_samples_runs_within_the_limits(tmp_path):
    # every window's support is its size: the walk compares 2^22-symbol
    # windows, and the estimate JSON holds 2^22 atoms
    t = 2**22
    stream = tmp_path / "stream.txt"
    stream.write_text("\n".join(map(str, np.random.default_rng(0).permutation(t).tolist()))
                      + "\n")
    out = tmp_path / "estimate.json"
    proc, elapsed = _run_capped("estimate", "--input", str(stream), "--output", str(out))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"estimate: T={t} chosen_window={t} stop=exhausted\n"
    with open(out, "rb") as fh:
        assert fh.read(64).startswith(b'{"chosen_window": 4194304, "estimate": {"atoms": [{')
        fh.seek(-2, os.SEEK_END)
        assert fh.read() == b"}\n"
    assert elapsed < 20.0
