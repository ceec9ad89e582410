"""Command-line contract: subcommands, exit codes, determinism."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from driftest.cli import main
from driftest.driftgen import abrupt, sample_stream
from reference import dump_stream

IID_CFG = "kind = iid\nt = 256\nseed = 9\nk = 5\n"
LINEAR_CFG = "kind = linear_drift\nt = 1024\nseed = 0\nk = 10\nstep_delta = 0.001\n"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(*argv):
    return main(list(argv))


def test_estimate_constant_stream(tmp_path, capsys):
    stream = tmp_path / "s.txt"
    stream.write_text("7\n" * 64)
    out = tmp_path / "est.json"
    assert run_cli("estimate", "--input", str(stream), "--output", str(out),
                   "--delta", "0.05") == 0
    obj = json.loads(out.read_text())
    assert obj["chosen_window"] == 64
    assert obj["estimate"]["atoms"] == [{"symbol": 7, "prob": 1.0}]
    assert "chosen_window=64" in capsys.readouterr().out


def test_estimate_empty_file(tmp_path, capsys):
    stream = tmp_path / "s.txt"
    stream.write_text("")
    assert run_cli("estimate", "--input", str(stream),
                   "--output", str(tmp_path / "o.json")) == 2
    assert "empty sample stream" in capsys.readouterr().err


def test_estimate_negative_sample_names_line(tmp_path, capsys):
    stream = tmp_path / "s.txt"
    stream.write_text("3\n4\n-2\n")
    assert run_cli("estimate", "--input", str(stream),
                   "--output", str(tmp_path / "o.json")) == 2
    assert "line 3" in capsys.readouterr().err


def test_estimate_sample_beyond_int64_names_line(tmp_path):
    stream = tmp_path / "s.txt"
    stream.write_text("3\n# comment\n99999999999999999999\n4\n")
    proc = subprocess.run(
        [sys.executable, "-m", "driftest.cli", "estimate", "--input", str(stream),
         "--output", "-"], capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "driftest: error: line 3: sample 99999999999999999999 exceeds the int64 range"]


def test_estimate_bad_delta(tmp_path, capsys):
    stream = tmp_path / "s.txt"
    stream.write_text("1\n")
    assert run_cli("estimate", "--input", str(stream),
                   "--output", str(tmp_path / "o.json"), "--delta", "1.5") == 2


def test_estimate_missing_input(tmp_path, capsys):
    assert run_cli("estimate", "--input", str(tmp_path / "nope.txt"),
                   "--output", "-") == 2


def test_estimate_deterministic_bytes(tmp_path):
    stream = tmp_path / "s.txt"
    stream.write_text("1\n2\n1\n2\n2\n1\n1\n2\n")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("estimate", "--input", str(stream), "--output", str(a)) == 0
    assert run_cli("estimate", "--input", str(stream), "--output", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_row_count_and_determinism(tmp_path, monkeypatch):
    monkeypatch.setenv("DRIFTEST_THREADS", "2")
    cfg = tmp_path / "scen.cfg"
    cfg.write_text(IID_CFG)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("simulate", "--scenario", str(cfg), "--trials", "10",
                   "--output", str(a)) == 0
    assert run_cli("simulate", "--scenario", str(cfg), "--trials", "10",
                   "--output", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().strip().splitlines()
    assert len(lines) == 11
    assert lines[0].startswith("trial,scenario,T,delta,")


def test_simulate_seed_override(tmp_path):
    cfg = tmp_path / "scen.cfg"
    cfg.write_text(IID_CFG)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("simulate", "--scenario", str(cfg), "--trials", "4",
                   "--seed", "123", "--output", str(a)) == 0
    assert run_cli("simulate", "--scenario", str(cfg), "--trials", "4",
                   "--output", str(b)) == 0
    assert a.read_bytes() != b.read_bytes()


def test_simulate_unknown_kind(tmp_path, capsys):
    cfg = tmp_path / "scen.cfg"
    cfg.write_text("kind = mystery\nt = 8\nseed = 0\n")
    assert run_cli("simulate", "--scenario", str(cfg), "--output", "-") == 2
    assert "unknown kind" in capsys.readouterr().err


def test_simulate_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "scen.cfg"
    cfg.write_text(IID_CFG + "mystery = 3\n")
    assert run_cli("simulate", "--scenario", str(cfg), "--output", "-") == 2
    assert "unknown key 'mystery'" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    (IID_CFG + "k = 9\n", "line 5: repeated key 'k'"),
    (IID_CFG + "period = 3\n", "iid does not use key 'period'"),
    ("kind = geometric_drift\nt = 64\nseed = 0\ngeo_p_start = 0.3\ngeo_p_end = 0.4\n"
     "k = 5\n", "geometric_drift does not use key 'k'"),
], ids=["repeated_k", "iid_period", "geometric_k"])
def test_simulate_repeated_or_unused_key_prints_one_error_line(tmp_path, text, message):
    cfg = tmp_path / "scen.cfg"
    cfg.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "driftest.cli", "simulate", "--scenario", str(cfg),
         "--trials", "2", "--output", "-"], capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [f"driftest: error: {message}"]


def test_verify_prop6_passes(capsys):
    assert run_cli("verify", "--suite", "prop6", "--trials", "400") == 0
    out = capsys.readouterr().out
    assert "[prop6]" in out and "PASS" in out and "verify: PASS" in out


def test_verify_metric_passes(capsys):
    assert run_cli("verify", "--suite", "metric", "--trials", "400") == 0


def test_verify_prop2_small(capsys, monkeypatch):
    monkeypatch.setenv("DRIFTEST_THREADS", "1")
    assert run_cli("verify", "--suite", "prop2", "--trials", "60",
                   "--delta", "0.1") == 0
    assert "coverage=" in capsys.readouterr().out


@pytest.mark.parametrize("suite", ["metric", "prop1", "prop2", "prop3",
                                   "prop45", "prop6", "all"])
@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_without_trials_is_usage_error(suite, trials, capsys, monkeypatch):
    monkeypatch.setenv("DRIFTEST_THREADS", "1")
    assert run_cli("verify", "--suite", suite, "--trials", trials) == 2
    captured = capsys.readouterr()
    assert "verify: PASS" not in captured.out
    assert captured.err.startswith("driftest: error:")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("delta", ["0", "-1", "nan"])
def test_simulate_bad_delta_prints_one_error_line(tmp_path, delta):
    cfg = tmp_path / "scen.cfg"
    cfg.write_text(IID_CFG)
    proc = subprocess.run(
        [sys.executable, "-m", "driftest.cli", "simulate", "--scenario", str(cfg),
         "--trials", "2", "--delta", delta, "--output", "-"],
        capture_output=True, text=True, env=dict(os.environ, DRIFTEST_THREADS="1"))
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("driftest: error:"), proc.stderr


def test_simulate_bad_delta_exits_before_the_truth_side_is_built(tmp_path, monkeypatch):
    # delta is rejected before this scenario's truth side is built
    from driftest import harness

    def built(scenario):
        raise AssertionError("the truth side was built")

    monkeypatch.setattr(harness, "segments", built)
    cfg = tmp_path / "scen.cfg"
    cfg.write_text("kind = geometric_drift\nt = 100000\nseed = 0\n"
                   "geo_p_start = 0.3\ngeo_p_end = 0.45\n")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "driftest.cli", "simulate", "--scenario", str(cfg),
         "--trials", "2", "--delta", "0", "--output", "-"],
        capture_output=True, text=True, env=dict(os.environ, DRIFTEST_THREADS="2"))
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "driftest: error: delta must lie strictly between 0 and 1"]
    assert elapsed < 2.0
    # the truth side now builds in well under 2 s, so check the order in-process too
    assert run_cli("simulate", "--scenario", str(cfg), "--trials", "2", "--delta", "0",
                   "--output", "-") == 2


def test_estimate_bad_delta_is_reported_before_a_missing_input(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "driftest.cli", "estimate",
         "--input", str(tmp_path / "nope.txt"), "--output", "-", "--delta", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "driftest: error: delta must lie strictly between 0 and 1"]


# stdout of `driftest verify --suite all --trials 5 --seed 0`
VERIFY_ALL_5_SEED_0 = """\
[metric] checks=20 violations=0 max_slack=0.000e+00 identity=0 symmetry=0 triangle=0 range=0 -> PASS
[prop1:iid] checks=72 violations=0 max_slack=0.000e+00 decomposition=0 averaging=0 -> PASS
[prop1:linear_drift] checks=66 violations=0 max_slack=0.000e+00 decomposition=0 averaging=0 -> PASS
[prop1:abrupt] checks=96 violations=0 max_slack=0.000e+00 decomposition=0 averaging=0 -> PASS
[prop1:rotating_support] checks=72 violations=0 max_slack=0.000e+00 decomposition=0 averaging=0 -> PASS
[prop1:geometric_drift] checks=60 violations=0 max_slack=0.000e+00 decomposition=0 averaging=0 -> PASS
[prop1:zipf_drift] checks=60 violations=0 max_slack=0.000e+00 decomposition=0 averaging=0 -> PASS
[prop2] trials=5 coverage=1.0000 threshold=0.6576 deviation_bound=0 complexity_bound=0 -> PASS
[prop3] trials=5 coverage=1.0000 threshold=0.6576 deviation_bound=0 complexity_bound=0 -> PASS
[prop45:iid] checks=55 violations=0 max_slack=-2.149e+00 continue_factor5=0 stop_factor2=0 -> PASS
[prop45:linear_drift] checks=50 violations=0 max_slack=-4.710e+00 continue_factor5=0 stop_factor2=0 -> PASS
[prop45:abrupt] checks=75 violations=0 max_slack=-2.170e-01 continue_factor5=0 stop_factor2=0 -> PASS
[prop45:rotating_support] checks=55 violations=0 max_slack=-4.436e+00 continue_factor5=0 stop_factor2=0 -> PASS
[prop45:geometric_drift] checks=45 violations=0 max_slack=-4.042e+00 continue_factor5=0 stop_factor2=0 -> PASS
[prop45:zipf_drift] checks=45 violations=0 max_slack=-3.325e+00 continue_factor5=0 stop_factor2=0 -> PASS
[prop6] checks=10 violations=0 max_slack=0.000e+00 tv_lipschitz=0 budget_ratio=0 -> PASS
[lambda_bounds] checks=15 violations=0 max_slack=3.469e-18 support_bound=0 half_norm_bound=0 monotone=0 -> PASS
verify: PASS
"""


def test_verify_all_output_is_stable(capsys, monkeypatch):
    monkeypatch.setenv("DRIFTEST_THREADS", "1")
    assert run_cli("verify", "--suite", "all", "--trials", "5", "--seed", "0") == 0
    assert capsys.readouterr().out == VERIFY_ALL_5_SEED_0


def test_estimate_golden_json_where_the_stop_test_fires(tmp_path, capsys):
    # the README's quick-start stream, pinned byte for byte
    stream = tmp_path / "s.txt"
    scenario = abrupt(k=10, change_point=8192, t=32768, seed=7)
    dump_stream(sample_stream(scenario, 0), stream)
    out = tmp_path / "est.json"
    assert run_cli("estimate", "--input", str(stream), "--output", str(out)) == 0
    golden = GOLDEN / "estimate_abrupt_k10_cp8192_t32768_seed7.json"
    assert out.read_bytes() == golden.read_bytes()
    assert json.loads(out.read_text())["stop"]["kind"] == "violation"
    summary = "estimate: T=32768 chosen_window=16384 stop=violation\n"
    assert capsys.readouterr().out == summary


def test_simulate_golden_csv(tmp_path, monkeypatch):
    monkeypatch.setenv("DRIFTEST_THREADS", "1")
    cfg = tmp_path / "scen.cfg"
    cfg.write_text(LINEAR_CFG)
    out = tmp_path / "trials.csv"
    assert run_cli("simulate", "--scenario", str(cfg), "--trials", "3",
                   "--output", str(out)) == 0
    golden = GOLDEN / "simulate_linear_k10_step1e-3_t1024_seed0.csv"
    assert out.read_bytes() == golden.read_bytes()


# the moving- and infinite-support truths, and a linear drift with a frozen prefix
GOLDEN_SCENARIOS = {
    "simulate_rotating_k8_period1_t8192_seed0.csv":
        ("kind = rotating_support\nt = 8192\nseed = 0\nk = 8\nperiod = 1\n", 2),
    "simulate_geometric_p0.3-0.45_t512_seed0.csv":
        ("kind = geometric_drift\nt = 512\nseed = 0\ngeo_p_start = 0.3\ngeo_p_end = 0.45\n",
         3),
    "simulate_zipf_s5.0-4.5_t512_seed0.csv":
        ("kind = zipf_drift\nt = 512\nseed = 0\nzipf_s_start = 5.0\nzipf_s_end = 4.5\n", 3),
    "simulate_linear_k10_step1e-2_t512_seed0.csv":
        ("kind = linear_drift\nt = 512\nseed = 0\nk = 10\nstep_delta = 0.01\n", 3),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
def test_simulate_golden_csv_per_truth_kind(name, tmp_path, monkeypatch):
    monkeypatch.setenv("DRIFTEST_THREADS", "1")
    text, trials = GOLDEN_SCENARIOS[name]
    cfg = tmp_path / "scen.cfg"
    cfg.write_text(text)
    out = tmp_path / "trials.csv"
    assert run_cli("simulate", "--scenario", str(cfg), "--trials", str(trials),
                   "--output", str(out)) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_verify_all_golden_stdout(capsys, monkeypatch):
    monkeypatch.setenv("DRIFTEST_THREADS", "1")
    assert run_cli("verify", "--suite", "all", "--trials", "20", "--seed", "0") == 0
    golden = GOLDEN / "verify_all_trials20_seed0.txt"
    assert capsys.readouterr().out.encode() == golden.read_bytes()


def test_estimate_to_stdout_is_only_the_json(tmp_path, capsys):
    stream = tmp_path / "s.txt"
    stream.write_text("1\n2\n1\n2\n2\n1\n1\n2\n")
    out = tmp_path / "est.json"
    assert run_cli("estimate", "--input", str(stream), "--output", str(out)) == 0
    capsys.readouterr()
    assert run_cli("estimate", "--input", str(stream), "--output", "-") == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out) == json.loads(out.read_text())
    assert captured.out == out.read_text()
    assert captured.err == "estimate: T=8 chosen_window=8 stop=exhausted\n"


def test_simulate_to_stdout_is_only_the_csv(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DRIFTEST_THREADS", "1")
    cfg = tmp_path / "scen.cfg"
    cfg.write_text(IID_CFG)
    out = tmp_path / "trials.csv"
    assert run_cli("simulate", "--scenario", str(cfg), "--trials", "3",
                   "--output", str(out)) == 0
    capsys.readouterr()
    assert run_cli("simulate", "--scenario", str(cfg), "--trials", "3",
                   "--output", "-") == 0
    captured = capsys.readouterr()
    assert captured.out == out.read_text()
    lines = captured.out.splitlines()
    assert lines[0].startswith("trial,") and len(lines) == 1 + 3
    assert captured.err == "simulate: kind=iid T=256 trials=3 seed=9 -> -\n"


@pytest.mark.parametrize("suite", ["metric", "prop1", "prop2", "prop3",
                                   "prop45", "prop6", "all"])
@pytest.mark.parametrize("delta", ["1.5", "0", "nan"])
def test_verify_rejects_delta_before_any_suite_runs(suite, delta, capsys, monkeypatch):
    monkeypatch.setenv("DRIFTEST_THREADS", "1")
    assert run_cli("verify", "--suite", suite, "--trials", "2", "--delta", delta) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "driftest: error: delta must lie strictly between 0 and 1"]


@pytest.mark.parametrize("suite", ["metric", "prop1", "prop2", "prop3",
                                   "prop45", "prop6", "all"])
def test_verify_rejects_a_negative_seed_before_any_suite_runs(suite, capsys, monkeypatch):
    monkeypatch.setenv("DRIFTEST_THREADS", "1")
    assert run_cli("verify", "--suite", suite, "--trials", "2", "--seed", "-1") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "driftest: error: --seed must be a nonnegative integer"]


@pytest.mark.parametrize("argv", [("verify", "--suite", "metric", "--trials", "2"),
                                  ("simulate", "--trials", "2", "--output", "-")])
def test_bad_thread_count_names_the_variable(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DRIFTEST_THREADS", "abc")
    cfg = tmp_path / "scen.cfg"
    cfg.write_text(IID_CFG)
    if argv[0] == "simulate":
        argv += ("--scenario", str(cfg))
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "driftest: error: DRIFTEST_THREADS must be an integer, got 'abc'"]


def test_verify_unknown_suite_is_usage_error():
    with pytest.raises(SystemExit) as err:
        run_cli("verify", "--suite", "prop99")
    assert err.value.code == 2


def test_verify_failure_exits_one(monkeypatch, capsys):
    from driftest import harness

    def broken(pairs, seed=0, tol=1e-12):
        return harness.SuiteReport("prop6", pairs, 3, 0.5)

    monkeypatch.setattr(harness, "verify_prop6", broken)
    assert run_cli("verify", "--suite", "prop6", "--trials", "50") == 1
    assert "verify: FAIL" in capsys.readouterr().out


def test_cli_import_does_not_load_scipy():
    import driftest
    src = os.path.dirname(os.path.dirname(driftest.__file__))
    env = dict(os.environ, PYTHONPATH=src, DRIFTEST_THREADS="1")
    code = ("import sys, driftest.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    # every suite, zipf included, with scipy made unimportable
    code = ("import sys; sys.modules['scipy'] = None; from driftest.cli import main; "
            "sys.exit(main(['verify', '--suite', 'all', '--trials', '5', '--seed', '0']))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == VERIFY_ALL_5_SEED_0


def test_cli_import_loads_only_the_estimate_layers():
    import driftest
    src = os.path.dirname(os.path.dirname(driftest.__file__))
    env = dict(os.environ, PYTHONPATH=src, DRIFTEST_THREADS="1")
    code = ("import sys, driftest.cli; "
            "print(sorted(m for m in sys.modules if m.startswith(('driftest', 'concurrent'))))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(["driftest", "driftest.adaptive", "driftest.cli",
                                       "driftest.dist", "driftest.windows"])
    # the harness's public names still resolve from the package, on first use
    code = ("import driftest; from driftest import write_trials_csv; "
            "from driftest.harness import run_trials; "
            "assert driftest.run_trials is run_trials; print(write_trials_csv.__module__)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "driftest.harness"


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "driftest.cli", "verify",
                           "--suite", "metric", "--trials", "5"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "verify: PASS" in proc.stdout


def test_bench_is_not_a_subcommand(capsys):
    with pytest.raises(SystemExit) as err:
        run_cli("bench", "--t", "16")
    assert err.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err
