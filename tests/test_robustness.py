"""Accepted inputs run in bounded memory and time; oversized ones are
rejected up front.

Each case runs the CLI in a child process whose address space is capped,
so a run that outgrew it would die with a MemoryError traceback (or be
killed) instead of exiting 0 or 2.
"""

import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from manifest import check, file_chunks

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


# peak RSS bounds of admitted rows, in MB: the largest window's trial measured
# 820 MB (1,125 MB while the objective held T-length curves)
ADMITTED_PEAK_MB = {"iid_largest_window": 900}

# Forks the CLI and writes its peak RSS, in KiB, to the file named first.  A
# child forked from pytest itself would count pytest's own pages, which it
# shares until its exec, in its peak; this launcher is small.
_LAUNCHER = """
import os, sys
pid = os.fork()
if pid == 0:
    os.execv(sys.executable, [sys.executable, "-m", "driftest.cli", *sys.argv[2:]])
_, status, usage = os.wait4(pid, 0)
with open(sys.argv[1], "w") as fh:
    fh.write(str(usage.ru_maxrss))
sys.exit(os.waitstatus_to_exitcode(status))
"""


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))


def _run_launcher(launcher, path, argv, timeout):
    """Run a launcher under the address-space cap, in a session of its own.

    On a timeout the whole process group is killed, the child the launcher
    forked with it, and ``subprocess.TimeoutExpired`` is raised.
    """
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", DRIFTEST_THREADS="1")
    with subprocess.Popen([sys.executable, "-c", launcher, str(path), *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
                          preexec_fn=_limit_address_space, start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)


def _run_capped(*argv, rss_path):
    """Run the CLI under the address-space cap; its process, wall seconds and peak RSS in MB."""
    start = time.monotonic()
    proc = _run_launcher(_LAUNCHER, rss_path, argv, timeout=120)
    elapsed = time.monotonic() - start
    return proc, elapsed, int(rss_path.read_text()) / 1024


# the launcher's shape around a child that sleeps: it writes its own pid
# and its child's to the file named first
_SLEEPER = """
import os, sys
pid = os.fork()
if pid == 0:
    os.execv(sys.executable, [sys.executable, "-c", "import time; time.sleep(60)"])
with open(sys.argv[1], "w") as fh:
    fh.write(f"{os.getpid()} {pid}")
os.wait4(pid, 0)
"""


def _running(pid):
    """Whether a process runs: it exists, and is not a zombie waiting to be reaped."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_a_timed_out_run_leaves_no_process_behind(tmp_path):
    pids = tmp_path / "pids"
    with pytest.raises(subprocess.TimeoutExpired):
        _run_launcher(_SLEEPER, pids, [], timeout=1)
    deadline = time.monotonic() + 10
    launcher, child = map(int, pids.read_text().split())
    while (_running(launcher) or _running(child)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _running(launcher) and not _running(child)


def _simulate_one_trial(text, tmp_path):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(text + "seed = 0\n")
    return _run_capped("simulate", "--scenario", str(cfg), "--trials", "1", "--output", "-",
                       rss_path=tmp_path / "rss")


@pytest.mark.parametrize("name", sorted(ADMITTED))
def test_largest_admitted_scenario_runs_within_the_limits(name, tmp_path):
    text = ADMITTED[name]
    proc, elapsed, peak_mb = _simulate_one_trial(text, tmp_path)
    assert proc.returncode == 0, proc.stderr
    header, row = proc.stdout.splitlines()  # one trial
    t = dict(zip(header.split(","), row.split(",")))["T"]
    assert f"\nt = {t}\n" in text
    assert elapsed < 20.0
    if name in ADMITTED_PEAK_MB:
        assert peak_mb < ADMITTED_PEAK_MB[name]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_oversized_scenario_exits_two(name, tmp_path):
    text, reason = CONFIGS[name]
    proc, elapsed, _ = _simulate_one_trial(text, tmp_path)
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
    proc, elapsed, _ = _run_capped("estimate", "--input", str(stream), "--output", "-",
                                   rss_path=tmp_path / "rss")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["chosen_window"] <= t
    assert proc.stderr.startswith(f"estimate: T={t} "), proc.stderr
    assert elapsed < 20.0


# peak RSS bound of estimate on 2^22 distinct samples, in MB: measured 298.2 on 2
# shared vCPUs with Python 3.11 and numpy 2.4
# (365.6 while every ladder window copied its counts to int64)
DISTINCT_PEAK_MB = 340


def test_estimate_on_distinct_samples_runs_within_the_limits(tmp_path):
    # every window's support is its size: the walk compares 2^22-symbol
    # windows, and the estimate JSON holds 2^22 atoms
    t = 2**22
    stream = tmp_path / "stream.txt"
    stream.write_text("\n".join(map(str, np.random.default_rng(0).permutation(t).tolist()))
                      + "\n")
    out = tmp_path / "estimate.json"
    proc, elapsed, peak_mb = _run_capped("estimate", "--input", str(stream), "--output",
                                         str(out), rss_path=tmp_path / "rss")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"estimate: T={t} chosen_window={t} stop=exhausted\n"
    with open(out, "rb") as fh:
        assert fh.read(64).startswith(b'{"chosen_window": 4194304, "estimate": {"atoms": [{')
        fh.seek(-2, os.SEEK_END)
        assert fh.read() == b"}\n"
    assert elapsed < 20.0
    assert peak_mb < DISTINCT_PEAK_MB
    # the file holds what --output - would print
    check("driftest estimate --input {distinct_2^22} --output -", file_chunks(out))


# every trial's row is kept until the run ends, so a trial count past the
# cap is refused before any trial runs
@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_too_many_trials_exit_two(command, tmp_path):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("kind = iid\nt = 1\nk = 2\nseed = 0\n")
    argv = {"simulate": ["simulate", "--scenario", str(cfg), "--output", "-"],
            "verify": ["verify", "--suite", "prop1"]}[command]
    proc, elapsed, _ = _run_capped(*argv, "--trials", "500001", rss_path=tmp_path / "rss")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "driftest: error: trials must be at most 500000\n"
    assert proc.stdout == ""
    assert elapsed < 20.0
