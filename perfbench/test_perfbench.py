"""Tests of the benchmark's own logic: inputs, output checks, span arithmetic."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _inputs(name, seed, directory):
    directory.mkdir()
    prepared = workloads.WORKLOADS[name](seed, directory)
    files = {p.name: p.read_bytes() for p in sorted(directory.iterdir())}
    # paths differ per directory; compare the arguments that are not paths
    flags = [a for a in prepared.argv if not a.startswith(str(directory))]
    return files, flags


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_repeat_for_equal_seeds_and_differ_otherwise(name, tmp_path):
    first = _inputs(name, 5, tmp_path / "a")
    assert _inputs(name, 5, tmp_path / "b") == first
    assert _inputs(name, 6, tmp_path / "c") != first


def test_zipf_samples_shape():
    samples = workloads.zipf_samples(0, n=4096)
    assert samples.dtype == np.int64 and samples.size == 4096
    assert samples.min() >= 1
    # zipf(3): the first rank holds 1/zeta(3) = 0.83 of the mass
    assert 0.80 < np.mean(samples == 1) < 0.86


def _estimate_json(samples, r, xis=(2.0, 1.0)):
    syms, counts = np.unique(samples[samples.size - r:], return_counts=True)
    return {
        "chosen_window": r,
        "estimate": {"atoms": [{"symbol": int(s), "prob": float(c / r)}
                               for s, c in zip(syms, counts)]},
        "accepted": [{"j": j, "r": 2**j, "phi": 0.0, "xi": xi} for j, xi in enumerate(xis)],
        "stop": {"kind": "exhausted"},
        "comparisons": [],
    }


def test_estimate_check_accepts_correct_output():
    samples = np.array([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5], dtype=np.int64)
    out = json.dumps(_estimate_json(samples, 8)).encode()
    assert checks.check_estimate(out, samples) == []


def test_estimate_check_rejects_one_perturbed_probability():
    samples = np.array([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5], dtype=np.int64)
    obj = _estimate_json(samples, 8)
    obj["estimate"]["atoms"][1]["prob"] += 1e-9
    assert checks.check_estimate(json.dumps(obj).encode(), samples)


def test_estimate_check_rejects_non_dyadic_window():
    samples = np.array([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5], dtype=np.int64)
    obj = _estimate_json(samples, 6)
    assert checks.check_estimate(json.dumps(obj).encode(), samples)


def test_estimate_check_rejects_non_decreasing_xi():
    samples = np.array([1, 2, 1, 2], dtype=np.int64)
    obj = _estimate_json(samples, 4, xis=(2.0, 2.0))
    assert checks.check_estimate(json.dumps(obj).encode(), samples)


def test_simulate_check():
    row = "{i},rotating_support,16,0.05,16,0.5,0.25,4,0.5,0.75,1.0,16,true"
    good = "\n".join([checks.CSV_HEADER, row.format(i=0), row.format(i=1)]) + "\n"
    assert checks.check_simulate(good.encode(), 2, 16, "rotating_support") == []
    assert checks.check_simulate(good.encode(), 3, 16, "rotating_support")
    swapped = good.replace(",0.5,0.25,", ",0.25,0.5,")
    assert checks.check_simulate(swapped.encode(), 2, 16, "rotating_support")
    assert checks.check_simulate(good.replace("trial,", "run,").encode(), 2, 16,
                                 "rotating_support")


def test_verify_check_and_prop45_share():
    out = (b"[prop45:iid] checks=5 violations=0 max_slack=-1 skipped=5 -> PASS\n"
           b"[prop45:abrupt] checks=5 violations=0 max_slack=-1 -> PASS\n"
           b"verify: PASS\n")
    assert checks.check_verify(out) == []
    assert checks.check_verify(out.replace(b"verify: PASS", b"verify: FAIL"))
    assert workloads.prop45_checked_share(out, trials=50) == pytest.approx(0.95)
    assert workloads.prop45_checked_share(b"verify: PASS\n") == 0.0


def test_self_time_on_nested_span_tree():
    tree = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.x", 1.5, 2.0, 1),
        ("a.y", 2.5, 3.5, 1),
        ("b", 5.0, 9.0, 0),
        ("a", 6.0, 7.0, 4),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 1.5, 0.5, 1.0, 3.0, 1.0])
    tot = spans.totals(tree)
    assert tot["a"] == {"calls": 2, "self_s": pytest.approx(2.5)}
    assert sum(v["self_s"] for v in tot.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    tree = [("p", 0.0, 4.0, -1), ("c", 1.0, 3.0, 0), ("c", 2.0, 5.0, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(1.0)


def test_tracer_records_module_spans(tmp_path):
    stream = tmp_path / "s.txt"
    stream.write_text("1\n2\n" * 32)
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, DRIFTEST_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(HERE.parent / "src"),
                                           os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, str(HERE / "tracer.py"), str(spans_path), "estimate",
         "--input", str(stream), "--output", str(tmp_path / "e.json")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(spans_path.read_text())
    assert trace["absent"] == [] and trace["exit_code"] == 0
    tot = spans.totals(trace["spans"])
    assert tot["cli.main"]["calls"] == 1
    assert tot["windows.parse_stream_text"]["calls"] == 1
    assert tot["windows.build_ladder"]["calls"] == 1
    assert tot["adaptive.adaptive_estimate"]["calls"] == 1
    assert trace["pmf_constructions"] == 1
