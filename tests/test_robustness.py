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


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_oversized_scenario_exits_two(name, tmp_path):
    cfg = tmp_path / "scenario.cfg"
    text, reason = CONFIGS[name]
    cfg.write_text(text + "seed = 0\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", DRIFTEST_THREADS="1")
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "driftest.cli", "simulate", "--scenario", str(cfg),
         "--trials", "1", "--output", "-"],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=_limit_address_space)
    elapsed = time.monotonic() - start
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("driftest: error:"), proc.stderr
    assert reason in lines[0], proc.stderr
    assert "Traceback" not in proc.stderr
    assert elapsed < 20.0


# the two parser paths: one token per line, and the line loop a '#' header
# sends the same stream to
@pytest.mark.parametrize("header", ["", "# a header line\n"], ids=["well_formed", "header"])
def test_estimate_on_a_long_stream_runs_within_the_limits(header, tmp_path):
    t = 2**22
    samples = np.random.default_rng(0).zipf(2.0, t) % 10**6
    stream = tmp_path / "stream.txt"
    stream.write_text(header + "\n".join(map(str, samples.tolist())) + "\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", DRIFTEST_THREADS="1")
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "driftest.cli", "estimate", "--input", str(stream),
         "--output", "-"],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=_limit_address_space)
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["chosen_window"] <= t
    assert proc.stderr.startswith(f"estimate: T={t} "), proc.stderr
    assert elapsed < 20.0
