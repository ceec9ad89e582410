"""Trial runner, coverage suites, campaigns, and the scaling study."""

import concurrent.futures
import io
import json
import math
import tracemalloc

import numpy as np
import pytest

import driftest
from driftest import Pmf, dist, driftgen, harness, run_trials, tv_distance, write_trials_csv
from driftest.adaptive import adaptive_estimate, walk_ladder
from driftest.driftgen import (abrupt, iid, linear_drift, rotating_support,
                               sample_stream, segments)
from driftest.windows import build_ladder, ladder_phis, ladder_xis
from driftest.harness import (CSV_HEADER, CoverageReport, SuiteReport,
                              random_pmf, scaling_experiment,
                              scaling_horizon, verify_lambda_bounds,
                              verify_metric, verify_prop1, verify_prop2,
                              verify_prop3, verify_prop45, verify_prop6,
                              write_scaling_data)
import reference as ref

LINEAR = linear_drift(k=10, step_delta=1e-3, t=1024, seed=0)


def test_point_mass_scenario_has_zero_error():
    rows = run_trials(iid(k=1, t=64, seed=1), 10, 0.05)
    assert all(m.err_adaptive == 0.0 for m in rows)
    assert all(m.chosen_r == 64 for m in rows)


def test_oracle_never_beaten():
    for scenario in (LINEAR, abrupt(k=10, change_point=64, t=512, seed=2)):
        for m in run_trials(scenario, 25, 0.05):
            assert m.err_oracle <= m.err_adaptive + 1e-15
            assert m.err_oracle <= m.err_full_window + 1e-15
            assert m.err_oracle <= m.err_last_sample + 1e-15
            assert 0.0 <= m.err_oracle <= m.err_last_sample <= 1.0 + 1e-12
            assert 1 <= m.r_oracle <= scenario.t
            assert 1 <= m.chosen_r <= scenario.t


def test_adaptive_error_matches_direct_tv():
    scenario = LINEAR
    rows = run_trials(scenario, 5, 0.05)
    current = segments(scenario).current
    for m in rows:
        stream = sample_stream(scenario, m.trial)
        result = adaptive_estimate(stream, 0.05)
        assert m.chosen_r == result.chosen_window
        assert m.err_adaptive == pytest.approx(
            tv_distance(current, result.estimate), abs=1e-12)


def test_oracle_ties_go_to_larger_window():
    # the exact realized error is 7/8 for every window r <= 8
    rows = run_trials(rotating_support(k=8, period=1, t=8192, seed=0), 2, 0.05)
    assert [(m.r_oracle, m.err_oracle) for m in rows] == [(8, 0.875)] * 2


def _count_calls(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)
    return calls


def _count_averages(monkeypatch):
    """Every window average the truths build, one entry each."""
    built = []
    averages = driftgen._WindowSums.averages

    def counted(sums):
        out = averages(sums)
        built.extend(out)
        return out
    monkeypatch.setattr(driftgen._WindowSums, "averages", counted)
    return built


def _count_blocks(monkeypatch):
    """What the trial passes draw, ladder and take phis of, one entry per trial.

    The block calls are wrapped: each (scenario, trial) drawn; each trial's
    window indices, once every size of its block is sorted; and the size of
    each window whose phi is taken.
    """
    draws, ladders, phis = [], [], []
    sample_streams, block_phis = harness.sample_streams, harness.block_phis

    def sampled(scenario, lo, hi):
        draws.extend((scenario, trial) for trial in range(lo, hi))
        return sample_streams(scenario, lo, hi)

    class Counted(harness.LadderBlock):
        def __init__(self, streams, js=None):
            super().__init__(streams, js)
            self.sorted = set()

        def runs(self, c):
            if c not in self.sorted:
                self.sorted.add(c)
                if len(self.sorted) == len(self.js):
                    ladders.extend([self.js] * self.rows)
            return super().runs(c)

    def phied(probs, bounds, size):
        phis.extend(np.broadcast_to(size, bounds.size - 1).tolist())
        return block_phis(probs, bounds, size)

    monkeypatch.setattr(harness, "sample_streams", sampled)
    monkeypatch.setattr(harness, "LadderBlock", Counted)
    monkeypatch.setattr(harness, "block_phis", phied)
    return draws, ladders, phis


def _window_sizes(draws):
    """The sizes of every window of the ladders of these (scenario, trial) draws."""
    return sorted(2**j for scenario, _ in draws for j in range(scenario.t.bit_length()))


def test_one_ladder_per_trial(monkeypatch):
    from driftest import adaptive
    _, ladders, _ = _count_blocks(monkeypatch)
    estimates = _count_calls(monkeypatch, adaptive, "build_ladder")
    run_trials(LINEAR, 5, 0.05)
    assert len(ladders) + len(estimates) == 5
    report = verify_prop45(abrupt(k=10, change_point=64, t=512, seed=3), 6, 0.05)
    assert report.skipped < 6
    assert len(ladders) + len(estimates) == 5 + 6
    # every window of each trial's ladder, t = 1024 and then t = 512
    assert ladders == [list(range(11))] * 5 + [list(range(10))] * 6


def test_run_drift_is_measured_once_per_scenario(monkeypatch):
    # the rows' TVs to the current pmf, which the per-run drift is the running
    # max of: this truth's 26 rows are one chunk, so one call measures them all
    calls = _count_calls(monkeypatch, driftgen, "block_tvs")
    scenario = rotating_support(k=3, period=5, t=128, seed=424242)
    run_trials(scenario, 3, 0.05)
    run_trials(scenario, 2, 0.1)
    assert len(calls) == 1
    assert segments(scenario).run_drift.size == 26


class _RecordingPool:
    """Stand-in for ProcessPoolExecutor that runs each block inline."""

    sizes = []
    submits = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.submits.append(args)
        result = fn(*args)

        class Done:
            def result(self):
                return result
        return Done()


def _record_pool(monkeypatch, cpus):
    """Run pools inline through _RecordingPool, with the affinity mask `cpus`."""
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: cpus, raising=False)
    _RecordingPool.sizes.clear()
    _RecordingPool.submits.clear()


def test_fan_out_caps_workers_at_usable_cpus(monkeypatch):
    _record_pool(monkeypatch, {0, 5, 7})
    # the affinity mask counts, not the host's CPU count
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 128)
    out = harness._fan_out(lambda lo, hi: list(range(lo, hi)), (), 2000, 2000)
    assert _RecordingPool.sizes == [3]
    assert [(lo, hi) for _, _, lo, hi, _ in _RecordingPool.submits] == [
        (0, 666), (666, 1333), (1333, 2000)]
    assert out == list(range(2000))
    # without an affinity mask the CPU count caps; one core, or an unknown
    # count, runs inline without a pool
    monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
    assert harness._usable_cpus() == 128
    for cores in (1, None):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cores)
        assert harness._fan_out(lambda lo, hi: list(range(lo, hi)), (), 10, 8) == list(range(10))
    assert _RecordingPool.sizes == [3]
    assert len(_RecordingPool.submits) == 3


def test_scaling_experiment_independent_of_workers(monkeypatch):
    _record_pool(monkeypatch, {0, 1})
    serial = scaling_experiment(k=3, deltas=[1e-3, 1e-2], trials=7, seed=0, workers=1)
    assert _RecordingPool.sizes == []
    split = scaling_experiment(k=3, deltas=[1e-3, 1e-2], trials=7, seed=0, workers=2)
    assert _RecordingPool.sizes == [2, 2]
    # the mean is summed over trials in order, not over per-worker totals
    assert split == serial


def test_prop2_independent_of_workers(monkeypatch):
    _record_pool(monkeypatch, {0, 1})
    serial = verify_prop2(LINEAR, 256, 9, 0.1, workers=1)
    split = verify_prop2(LINEAR, 256, 9, 0.1, workers=3)
    assert _RecordingPool.sizes == [2]
    assert split == serial


def test_run_trials_deterministic_across_workers():
    serial = run_trials(LINEAR, 12, 0.05, workers=1)
    parallel = run_trials(LINEAR, 12, 0.05, workers=3)
    assert serial == parallel


def test_csv_format_and_determinism():
    rows = run_trials(LINEAR, 4, 0.05)
    out1, out2 = io.StringIO(), io.StringIO()
    write_trials_csv(rows, LINEAR, 0.05, out1)
    write_trials_csv(rows, LINEAR, 0.05, out2)
    text = out1.getvalue()
    assert text == out2.getvalue()
    lines = text.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[1] == "linear_drift"
    assert first[2] == "1024"
    assert first[12] in ("true", "false")
    # every float field round-trips
    for idx in (3, 5, 6, 8, 9, 10):
        float(first[idx])


def test_prop2_coverage_on_point_mass_is_exact():
    report = verify_prop2(iid(k=1, t=64, seed=3), 16, 50, 0.1)
    assert report.violations == 0
    assert report.empirical_coverage == 1.0


def test_prop2_rejects_bad_window():
    with pytest.raises(ValueError):
        verify_prop2(LINEAR, 100, 10, 0.1)  # not a power of two
    with pytest.raises(ValueError):
        verify_prop2(LINEAR, 2048, 10, 0.1)  # beyond the horizon
    with pytest.raises(ValueError):
        verify_prop2(LINEAR, 256, 10, 1.5)


def test_prop2_near_one_delta_still_covers():
    report = verify_prop2(LINEAR, 256, 200, 0.9999)
    assert report.passes(0.9999)


def test_prop3_deterministic_and_covering():
    a = verify_prop3(LINEAR, 100, 0.1)
    b = verify_prop3(LINEAR, 100, 0.1, workers=4)
    assert a == b
    assert a.passes(0.1)
    assert dict(a.per_inequality).keys() == {"deviation_bound", "complexity_bound"}


def test_coverage_report_json_and_threshold():
    report = CoverageReport(2000, 10, (("a", 4), ("b", 6)))
    assert report.empirical_coverage == pytest.approx(0.995)
    assert report.threshold(0.1) == pytest.approx(
        0.9 - 3 * math.sqrt(0.09 / 2000), abs=1e-12)
    obj = json.loads(json.dumps(report.to_json_obj()))
    assert obj["trials"] == 2000
    assert obj["per_inequality"] == {"a": 4, "b": 6}


def test_prop1_zero_violations_and_slack():
    report = verify_prop1(LINEAR, 20)
    assert report.passed
    assert report.max_slack <= 1e-12
    assert report.checks == 20 * 11 + 11


def test_prop45_exercises_both_branches():
    stopper = abrupt(k=10, change_point=8192, t=32768, seed=14)
    report = verify_prop45(stopper, 10, 0.05)
    assert report.passed
    assert report.checks > 0
    # this scenario stops in every trial, so the stop branch really ran
    result = adaptive_estimate(sample_stream(stopper, 0), 0.05)
    assert result.stop.kind == "violation"


def test_prop45_skips_trials_outside_event():
    report = verify_prop45(LINEAR, 10, 0.05)
    assert report.skipped + 10 - report.skipped == 10
    assert report.passed


def test_prop6_campaign():
    report = verify_prop6(1500, seed=5)
    assert report.passed
    assert report.max_slack <= 1e-12
    assert report.checks == 3000


def test_prop6_edge_identical_pmfs():
    # equal pmfs: lhs of the lipschitz bound is 0; r == s: ratio bound is 1
    rng = np.random.default_rng(6)
    from driftest.dist import lambda_complexity
    for _ in range(50):
        p = random_pmf(rng)
        r = int(rng.integers(1, 2**16))
        assert abs(lambda_complexity(p, r) - lambda_complexity(p, r)) <= 0.0
        assert lambda_complexity(p, r) <= math.sqrt(1.0) * lambda_complexity(p, r)


def test_lambda_bounds_campaign():
    report = verify_lambda_bounds(1500, seed=7)
    assert report.passed
    assert report.max_slack <= 1e-12


def test_metric_campaign():
    report = verify_metric(1500, seed=8)
    assert report.passed
    assert report.max_slack <= 1e-12
    assert dict(report.per_inequality).keys() == {
        "identity", "symmetry", "triangle", "range"}


def test_random_pmf_is_valid():
    rng = np.random.default_rng(9)
    for _ in range(300):
        p = random_pmf(rng)
        assert np.all(p.probs > 0)
        assert abs(float(np.sum(p.probs)) - 1.0) <= 1e-9


def test_suffix_average_equals_explicit_mean():
    truth = list(ref.truth_pmfs(LINEAR))
    columnar = segments(LINEAR)
    for r in (1, 7, 256, 1024):
        assert tv_distance(ref.window_average(columnar, r),
                           ref.mean_pmf(truth[len(truth) - r:])) < 1e-12


def test_scaling_horizon_sizing():
    assert scaling_horizon(10, 1e-4) == 8000
    with pytest.raises(ValueError):
        scaling_horizon(10, 0.5)  # horizon below the asymptotic-regime floor
    with pytest.raises(ValueError):
        scaling_horizon(10, 0.0)


def test_scaling_smoke_and_output(tmp_path):
    result = scaling_experiment(10, [3e-3, 1e-2], trials=5, seed=1)
    assert len(result.points) == 2
    assert result.points[0].mean_error < result.points[1].mean_error
    out = io.StringIO()
    write_scaling_data(result, out)
    lines = out.getvalue().strip().splitlines()
    assert lines[0].startswith("#")
    assert len(lines) == 3
    x, y = lines[1].split()
    assert float(x) == pytest.approx(math.log10(3e-3))
    assert float(y) == pytest.approx(math.log10(result.points[0].mean_error))


def test_scaling_needs_two_points():
    with pytest.raises(ValueError):
        scaling_experiment(10, [1e-3], trials=2)


def test_scaling_error_grows_with_support_size():
    # doubling the alphabet at a fixed drift rate raises the mean error
    small = scaling_experiment(10, [1e-4, 3e-4], trials=5, seed=4)
    large = scaling_experiment(20, [1e-4, 3e-4], trials=5, seed=4)
    assert large.points[0].mean_error > small.points[0].mean_error


def test_suite_report_json():
    report = SuiteReport("x", 10, 1, 2.5e-3, (("a", 1),), skipped=2)
    obj = report.to_json_obj()
    assert obj == {"name": "x", "checks": 10, "violations": 1,
                   "max_slack": 2.5e-3, "per_inequality": {"a": 1}, "skipped": 2}
    assert not report.passed


# --- the one tally behind every exact suite ---------------------------------

STOPPER = abrupt(k=10, change_point=8192, t=32768, seed=14)


def test_suite_report_tallies_named_slacks():
    report = harness._suite_report("x", {"a": [0.5, -1.0, 2e-12], "b": [], "c": [1e-12]},
                                   1e-12, skipped=3)
    assert report == SuiteReport("x", 4, 2, 0.5, (("a", 2), ("b", 0), ("c", 0)), 3)
    empty = harness._suite_report("y", {"a": []}, 1e-12)
    assert (empty.checks, empty.violations, empty.max_slack) == (0, 0, -math.inf)


def _prop45_evaluations(scenario, trials, delta):
    """Continue and stop evaluations, replayed from the decision traces."""
    side = segments(scenario)
    continued = stopped = 0
    for trial in range(trials):
        stream = sample_stream(scenario, trial)
        if not all(ref.prop3_held(stream, delta, side)):
            continue
        ladder = build_ladder(stream)
        phis = ladder_phis(ladder)
        result = walk_ladder(ladder, phis, ladder_xis(phis, delta))
        continued += max(0, len(result.accepted) - 1)
        if result.stop.kind == "violation":
            stopped += side.depth + 1 - result.stop.j
    return {"continue_factor5": continued, "stop_factor2": stopped}


def test_every_evaluation_is_one_check():
    # at tol = -inf every finite slack is a violation, so each inequality's
    # count is its number of evaluations
    n = 9
    expected = [
        (verify_metric(n, seed=1, tol=-math.inf),
         dict.fromkeys(("identity", "symmetry", "triangle", "range"), n)),
        (verify_prop6(n, seed=1, tol=-math.inf),
         dict.fromkeys(("tv_lipschitz", "budget_ratio"), n)),
        (verify_lambda_bounds(n, seed=1, tol=-math.inf),
         dict.fromkeys(("support_bound", "half_norm_bound", "monotone"), n)),
        (verify_prop1(LINEAR, 4, tol=-math.inf),
         {"decomposition": 4 * 11, "averaging": 11}),
        (verify_prop45(STOPPER, 4, 0.05, tol=-math.inf),
         _prop45_evaluations(STOPPER, 4, 0.05)),
    ]
    assert expected[-1][1]["stop_factor2"] > 0
    for report, counts in expected:
        assert dict(report.per_inequality) == counts
        assert report.violations == report.checks == sum(counts.values())
        assert report.max_slack > -math.inf


@pytest.mark.parametrize("suite", ["metric", "prop6", "lambda_bounds"])
def test_campaigns_reject_zero_trials(suite):
    verify = getattr(harness, f"verify_{suite}")
    with pytest.raises(ValueError, match="trials must be >= 1"):
        verify(0)


def test_prop1_and_prop45_independent_of_workers():
    for scenario in (LINEAR, STOPPER):
        assert verify_prop1(scenario, 6, workers=1) == verify_prop1(scenario, 6, workers=3)
        assert (verify_prop45(scenario, 6, 0.05, workers=1)
                == verify_prop45(scenario, 6, 0.05, workers=3))


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workers", [1, 2])
def test_shared_pass_equals_per_suite_runs(seed, workers):
    # unequal trial counts, so that some trials serve only some suites
    counts = {"prop1": 4, "prop2": 9, "prop3": 7, "prop45": 5}
    for scenario in harness.default_families(seed):
        suites = counts if scenario.kind == "linear_drift" else {
            name: counts[name] for name in ("prop45", "prop1")}
        shared = harness.verify_trial_suites(scenario, suites, 0.05, 256, workers=workers)
        want = {"prop1": lambda: ref.verify_prop1(scenario, counts["prop1"], workers=workers),
                "prop2": lambda: ref.verify_prop2(scenario, 256, counts["prop2"], 0.05,
                                                  workers=workers),
                "prop3": lambda: ref.verify_prop3(scenario, counts["prop3"], 0.05,
                                                  workers=workers),
                "prop45": lambda: ref.verify_prop45(scenario, counts["prop45"], 0.05,
                                                    workers=workers)}
        alone = {"prop1": lambda: verify_prop1(scenario, counts["prop1"], workers=workers),
                 "prop2": lambda: verify_prop2(scenario, 256, counts["prop2"], 0.05,
                                               workers=workers),
                 "prop3": lambda: verify_prop3(scenario, counts["prop3"], 0.05,
                                               workers=workers),
                 "prop45": lambda: verify_prop45(scenario, counts["prop45"], 0.05,
                                                 workers=workers)}
        assert list(shared) == list(suites)
        for name in suites:
            expected = want[name]()
            assert shared[name] == expected
            assert alone[name]() == expected


def test_verify_all_draws_and_ladders_each_trial_once(monkeypatch, capsys):
    from driftest.cli import main
    monkeypatch.setenv("DRIFTEST_THREADS", "1")
    draws, ladders, phis = _count_blocks(monkeypatch)
    assert main(["verify", "--suite", "all", "--trials", "3", "--seed", "0"]) == 0
    # prop2 and prop3 run on the linear family of prop1 and prop45
    pairs = [(scenario, trial) for scenario in harness.default_families(0) for trial in range(3)]
    assert sorted(map(repr, draws)) == sorted(map(repr, pairs))
    assert len(ladders) == len(pairs)
    # every window's phi once
    assert sorted(phis) == _window_sizes(pairs)
    # a single suite draws only its own trials; prop2 alone sorts and
    # reads only its one window (r = 256, window 8), and prop1 reads no phi
    for suite, trials in (("prop1", 2), ("prop2", 5), ("prop45", 2)):
        draws.clear()
        ladders.clear()
        phis.clear()
        assert main(["verify", "--suite", suite, "--trials", str(trials)]) == 0
        families = 1 if suite == "prop2" else 6
        assert len(draws) == families * trials
        assert len(ladders) == len(draws)
        assert all((js == [8]) == (suite == "prop2") for js in ladders)
        assert sorted(phis) == {"prop1": [], "prop2": [256] * len(draws),
                                "prop45": _window_sizes(draws)}[suite]
    capsys.readouterr()


@pytest.mark.parametrize("chunk", [1024, 2048, 3072, 1 << 15])
@pytest.mark.parametrize("workers", [1, 2])
def test_blocks_equal_per_suite_runs(chunk, workers, monkeypatch):
    # at t = 1024 the blocks hold 1, 2, 3 and all trials, and they must
    # not straddle the suites' unequal counts
    monkeypatch.setattr(harness, "CHUNK_ELEMENTS", chunk)
    counts = {"prop1": 4, "prop2": 9, "prop3": 7, "prop45": 5}
    scenario = LINEAR
    assert harness._block_size(scenario) == min(chunk // 1024, 32)
    shared = harness.verify_trial_suites(scenario, counts, 0.05, 256, workers=workers)
    assert shared == {
        "prop1": ref.verify_prop1(scenario, counts["prop1"]),
        "prop2": ref.verify_prop2(scenario, 256, counts["prop2"], 0.05),
        "prop3": ref.verify_prop3(scenario, counts["prop3"], 0.05),
        "prop45": ref.verify_prop45(scenario, counts["prop45"], 0.05)}
    assert run_trials(scenario, 5, 0.05, workers=workers) == ref.run_trials(scenario, 5, 0.05)


# tracemalloc peak of one default family's trial suites, in float64 arrays of
# CHUNK_ELEMENTS: measured 2.9-4.4 (abrupt, t = 32,768, one trial per block,
# peaks highest; the parent commit's per-trial passes measured 0.4-4.4)
BLOCK_PEAK_ARRAYS = 6


@pytest.mark.parametrize("family", range(6))
def test_trial_suites_peak_within_a_multiple_of_the_block_bound(family):
    scenario = harness.default_families(0)[family]
    counts = {"prop1": 40, "prop45": 40}
    if scenario.kind == "linear_drift":
        counts.update(prop2=40, prop3=40)
    truth = segments(scenario)
    truth.window_lambdas, truth.window_deltas  # the truth side is built once per scenario
    harness.verify_trial_suites(scenario, {"prop1": 1}, 0.05)  # first-call allocations
    tracemalloc.start()
    try:
        harness.verify_trial_suites(scenario, counts, 0.05)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < BLOCK_PEAK_ARRAYS * harness.CHUNK_ELEMENTS * 8


@pytest.mark.parametrize("family", range(6))
def test_kernel_calls_per_block_do_not_grow_with_its_trials(family, monkeypatch):
    # the TVs to the window averages and to the current pmf take at most one
    # call per window size each, and the walk, whose TVs are integer sums,
    # none: a bound in the window sizes, however many trials
    scenario = harness.default_families(0)[family]
    calls = []
    block_tvs = harness.block_tvs
    monkeypatch.setattr(harness, "block_tvs", lambda *args: (calls.append(1),
                                                             block_tvs(*args))[1])
    walks = []
    walk_block = harness.walk_block
    monkeypatch.setattr(harness, "walk_block", lambda *args: (
        walks.append(len(calls)), walk_block(*args), walks.append(len(calls)))[1])
    sizes = segments(scenario).depth + 1
    suites = (("prop1", 64), ("prop3", 64), ("prop45", 64), ("metrics", 64))
    for trials in sorted({1, 2, harness._block_size(scenario)}):
        calls.clear()
        walks.clear()
        harness._suite_block(scenario, 0.05, None, suites, 0, trials)
        assert 2 <= len(calls) <= 2 * sizes
        assert len(walks) == 2 and walks[0] == walks[1]


def test_blocks_cut_at_the_suite_counts():
    blocks = []

    def record(lo, hi):
        blocks.append((lo, hi))
        return list(range(lo, hi))

    assert harness._fan_out(record, (), 9, 1, 3, (4, 9, 7, 5)) == list(range(9))
    assert blocks == [(0, 3), (3, 4), (4, 5), (5, 7), (7, 9)]


def test_trial_suites_reject_a_bad_window_or_count():
    with pytest.raises(ValueError, match="power of two"):
        harness.verify_trial_suites(LINEAR, {"prop2": 3, "prop3": 3}, 0.05, 300)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        harness.verify_trial_suites(LINEAR, {"prop1": 3, "prop3": 0}, 0.05)


def test_coverage_suites_share_one_truth_side(monkeypatch):
    calls = _count_averages(monkeypatch)
    scenario = linear_drift(k=10, step_delta=1e-3, t=1024, seed=31337)
    verify_prop2(scenario, 256, 3, 0.05)
    verify_prop3(scenario, 3, 0.05)
    # one average per dyadic window size, for both suites together
    assert len(calls) == 11


def test_prop1_and_prop45_share_one_truth_side(monkeypatch):
    calls = _count_averages(monkeypatch)
    scenario = iid(k=5, t=300, seed=271828)
    verify_prop1(scenario, 2)
    verify_prop45(scenario, 2, 0.05)
    # one average per dyadic window size, 2^0 .. 2^8
    assert len(calls) == 8 + 1


def test_truth_side_is_shared_across_deltas(monkeypatch):
    calls = _count_averages(monkeypatch)
    scenario = linear_drift(k=10, step_delta=1e-3, t=512, seed=161803)
    loose, tight = run_trials(scenario, 1, 0.05), run_trials(scenario, 1, 0.2)
    assert len(calls) == 9 + 1
    # the objective q still depends on delta: a larger delta lowers it
    assert tight[0].q_star < loose[0].q_star


@pytest.mark.parametrize("suite, trials, delta, message", [
    ("run_trials", 5, 1.5, "delta must lie"),
    ("run_trials", 0, 0.05, "trials must be >= 1"),
    ("prop2", 5, 0.0, "delta must lie"),
    ("prop2", 0, 0.05, "trials must be >= 1"),
    ("prop3", 5, 1.0, "delta must lie"),
    ("prop3", -1, 0.05, "trials must be >= 1"),
    ("prop45", 5, -0.5, "delta must lie"),
    ("prop45", 0, 0.05, "trials must be >= 1"),
    ("prop1", 0, 0.05, "trials must be >= 1"),
    ("run_trials", harness.MAX_TRIALS + 1, 0.05, "trials must be at most 500000"),
    ("prop2", harness.MAX_TRIALS + 1, 0.05, "trials must be at most"),
    ("prop1", harness.MAX_TRIALS + 1, 0.05, "trials must be at most"),
])
def test_bad_arguments_are_rejected_before_the_truth_side(suite, trials, delta, message,
                                                          monkeypatch):
    def built(scenario):
        raise AssertionError("the truth side was built")

    monkeypatch.setattr(harness, "segments", built)
    scenario = harness.default_families(0)[5]
    call = {
        "run_trials": lambda: run_trials(scenario, trials, delta),
        "prop2": lambda: verify_prop2(scenario, 64, trials, delta),
        "prop3": lambda: verify_prop3(scenario, trials, delta),
        "prop45": lambda: verify_prop45(scenario, trials, delta),
        "prop1": lambda: verify_prop1(scenario, trials),
    }[suite]
    with pytest.raises(ValueError, match=message):
        call()


def test_trial_suites_sort_no_union(monkeypatch):
    # every TV of a trial pass lies on its union laid out without a sort
    # (block_tvs), none on tv_distance's sorted union
    def refuse(p, q):
        raise AssertionError("a trial pass called tv_distance")

    for module in (dist, harness, driftest):
        monkeypatch.setattr(module, "tv_distance", refuse)
    for scenario in harness.default_families(0):
        reports = harness.verify_trial_suites(
            scenario, {"prop1": 4, "prop2": 4, "prop3": 4, "prop45": 4}, 0.05)
        assert reports["prop1"].checks > 0
