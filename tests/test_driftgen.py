"""Scenario generators: truth sequences, samplers, and the config format."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from driftest import dist, driftgen
from driftest.adaptive import drift_sequence
from driftest.dist import Pmf, tv_distance
from driftest.driftgen import (TAIL_TOL, DriftScenario, abrupt,
                               geometric_drift, iid, linear_drift,
                               parse_scenario_config, rotating_support,
                               sample_stream, scenario_delta, segments,
                               true_pmf, truth_pmfs, zipf_drift)
from driftest.harness import default_families
import reference as ref


def same_pmf(p, q):
    return np.array_equal(p.symbols, q.symbols) and np.array_equal(p.probs, q.probs)


ALL_FAMILIES = [
    iid(k=4, t=64, seed=1),
    linear_drift(k=5, step_delta=0.01, t=128, seed=2),
    abrupt(k=6, change_point=16, t=64, seed=3),
    rotating_support(k=3, period=10, t=64, seed=4),
    geometric_drift(0.3, 0.5, t=32, seed=5),
    zipf_drift(5.0, 4.0, t=32, seed=6),
]


def test_iid_uniform():
    s = iid(k=4, t=16, seed=0)
    for t in (1, 7, 16):
        assert true_pmf(s, t).as_dict() == {0: 0.25, 1: 0.25, 2: 0.25, 3: 0.25}


def test_linear_drift_hand_trace():
    # source holds full mass 10 steps before the horizon and drains 0.1/step
    s = linear_drift(k=1, step_delta=0.1, t=11, seed=0)
    assert true_pmf(s, 1).as_dict() == {0: 1.0}
    assert true_pmf(s, 3).as_dict() == pytest.approx({0: 0.8, 1: 0.2})
    assert tv_distance(true_pmf(s, 3), true_pmf(s, 1)) == pytest.approx(0.2)
    assert true_pmf(s, 11).as_dict() == {1: 1.0}


def test_linear_drift_per_step_tv_is_exact():
    s = linear_drift(k=10, step_delta=1e-3, t=1024, seed=0)
    # active zone: the most recent 1/step_delta steps
    for t in (30, 500, 1000, 1023):
        step = tv_distance(true_pmf(s, t + 1), true_pmf(s, t))
        assert step == pytest.approx(1e-3, abs=1e-12)


def test_linear_drift_delta_curve():
    s = linear_drift(k=10, step_delta=1e-3, t=1024, seed=0)
    for r in (1, 2, 256, 1000):
        assert scenario_delta(s, r) == pytest.approx((r - 1) * 1e-3, abs=1e-12)
    assert scenario_delta(s, 1024) == pytest.approx(1.0, abs=1e-12)


def test_linear_drift_zero_rate_reduces_to_iid():
    s = linear_drift(k=4, step_delta=0.0, t=32, seed=0)
    uniform = Pmf.uniform(range(1, 5))
    assert all(true_pmf(s, t).as_dict() == uniform.as_dict() for t in range(1, 33))
    assert scenario_delta(s, 32) == 0.0


def test_abrupt_piecewise():
    s = abrupt(k=10, change_point=256, t=4096, seed=0)
    assert true_pmf(s, 3840).as_dict() == Pmf.uniform(range(10)).as_dict()
    assert true_pmf(s, 3841).as_dict() == Pmf.uniform(range(100, 110)).as_dict()
    assert scenario_delta(s, 256) == 0.0
    assert scenario_delta(s, 257) == pytest.approx(1.0, abs=1e-12)


def test_rotating_support_shifts_blocks():
    s = rotating_support(k=3, period=4, t=12, seed=0)
    assert true_pmf(s, 1).symbols.tolist() == [0, 1, 2]
    assert true_pmf(s, 5).symbols.tolist() == [3, 4, 5]
    assert true_pmf(s, 12).symbols.tolist() == [6, 7, 8]
    # drift is zero within the current block's age, then jumps to one
    assert scenario_delta(s, 4) == 0.0
    assert scenario_delta(s, 5) == pytest.approx(1.0, abs=1e-12)


def test_every_family_produces_valid_pmfs():
    for scenario in ALL_FAMILIES:
        for _, probs in truth_pmfs(scenario):
            assert np.all(probs > 0)
            assert np.all(np.abs(np.sum(probs, axis=1) - 1.0) <= 1e-9)


def test_every_family_has_monotone_drift():
    for scenario in ALL_FAMILIES:
        curve = drift_sequence(segments(scenario))
        assert curve[0] == 0.0
        assert np.all(np.diff(curve) >= -1e-15)


def test_segments_expand_to_truth():
    for scenario in ALL_FAMILIES:
        truth = segments(scenario)
        expanded = np.repeat(truth.rows, truth.counts)
        assert expanded.size == scenario.t
        assert np.array_equal(np.unique(truth.rows), np.arange(truth.widths.size))
        for t, row in enumerate(expanded.tolist(), start=1):
            assert same_pmf(truth.pmf(row), true_pmf(scenario, t))


def test_geometric_truncation():
    pmf = true_pmf(geometric_drift(0.3, 0.3, t=1, seed=0), 1)
    # dropped tail is far below the truncation threshold once absorbed
    assert pmf.prob(0) >= 0.3
    assert float(np.sum(pmf.probs)) == pytest.approx(1.0, abs=1e-12)
    tail = 0.7 ** pmf.support_size
    assert tail < TAIL_TOL
    # remainder went to the largest atom
    assert pmf.prob(0) - 0.3 == pytest.approx(tail, rel=1e-3)


def test_geometric_point_mass_limit():
    pmf = true_pmf(geometric_drift(1.0, 1.0, t=1, seed=0), 1)
    assert pmf.as_dict() == {0: 1.0}


def test_zipf_truncation():
    pmf = true_pmf(zipf_drift(4.0, 4.0, t=1, seed=0), 1)
    assert pmf.symbols[0] == 1
    assert float(np.sum(pmf.probs)) == pytest.approx(1.0, abs=1e-12)
    # atom masses follow the power law away from the absorbing atom
    assert pmf.prob(2) / pmf.prob(4) == pytest.approx(2.0**4, rel=1e-12)
    with pytest.raises(ValueError):
        truth_pmfs(zipf_drift(1.5, 1.5, t=1, seed=0))


def test_schedules_interpolate_endpoints():
    s = geometric_drift(0.3, 0.5, t=5, seed=0)
    assert true_pmf(s, 1).prob(0) >= 0.3
    assert true_pmf(s, 5).prob(0) >= 0.5
    mid = true_pmf(s, 3)
    assert 0.39 <= mid.prob(0) <= 0.41
    z = zipf_drift(5.0, 4.0, t=5, seed=0)
    assert true_pmf(z, 3).prob(2) / true_pmf(z, 3).prob(4) == pytest.approx(
        2.0**4.5, rel=1e-12)


def test_sampler_point_mass_is_constant():
    s = iid(k=1, t=50, seed=7)
    assert np.all(sample_stream(s, 0) == 0)


def test_sampler_determinism():
    for scenario in ALL_FAMILIES:
        a = sample_stream(scenario, 3)
        b = sample_stream(scenario, 3)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, sample_stream(scenario, 4))


def test_sampler_iid_frequencies():
    s = iid(k=4, t=100_000, seed=8)
    freq = np.bincount(sample_stream(s, 0), minlength=4) / 100_000
    assert np.all(np.abs(freq - 0.25) < 0.01)


@pytest.mark.parametrize("scenario,slice_len", [
    (iid(k=20, t=100_000, seed=9), 100_000),
    (geometric_drift(0.25, 0.25, t=100_000, seed=10), 100_000),
    (zipf_drift(3.0, 3.0, t=100_000, seed=11), 100_000),
    (abrupt(k=10, change_point=50_000, t=100_000, seed=12), 50_000),
])
def test_sampler_frequencies_within_four_sigma(scenario, slice_len):
    # stationary slice at the end of each stream; symbols with mass >= 1e-3
    # should nearly all land within four binomial standard deviations
    stream = sample_stream(scenario, 0)[-slice_len:]
    pmf = true_pmf(scenario, scenario.t)
    counts = {int(s): c for s, c in zip(*np.unique(stream, return_counts=True))}
    checked, ok = 0, 0
    for sym, p in pmf.as_dict().items():
        if p < 1e-3:
            continue
        sigma = np.sqrt(p * (1 - p) / slice_len)
        checked += 1
        ok += abs(counts.get(sym, 0) / slice_len - p) <= 4 * sigma
    assert checked > 0
    assert ok / checked >= 0.99


SAMPLED = [
    iid(k=20, t=2048, seed=31),
    linear_drift(k=10, step_delta=1e-3, t=1024, seed=32),
    # uniform kinds: every segment has the same probability vector
    abrupt(k=10, change_point=300, t=4096, seed=33),
    rotating_support(k=8, period=300, t=2048, seed=34),
    rotating_support(k=5, period=7, t=1000, seed=35),
    rotating_support(k=8, period=1, t=4096, seed=36),
    # one probability vector per step
    geometric_drift(0.3, 0.45, t=512, seed=37),
    zipf_drift(5.0, 4.5, t=256, seed=38),
    # flat schedules collapse to a single segment
    geometric_drift(0.3, 0.3, t=700, seed=39),
    zipf_drift(4.0, 4.0, t=900, seed=40),
    # edges of the uniform kinds: a one-step segment at either end, the
    # widest abrupt block, a last block cut to 5 of its 10 steps, one symbol
    abrupt(k=7, change_point=1, t=50, seed=42),
    abrupt(k=7, change_point=49, t=50, seed=43),
    abrupt(k=99, change_point=500, t=2000, seed=44),
    rotating_support(k=3, period=10, t=95, seed=45),
    iid(k=1, t=64, seed=46),
    rotating_support(k=1, period=3, t=64, seed=47),
]


@pytest.mark.parametrize("scenario", SAMPLED)
def test_sampler_matches_per_segment_reference(scenario):
    for trial in range(4):
        got = sample_stream(scenario, trial)
        assert got.dtype == np.int64
        assert np.array_equal(got, ref.sample_stream(scenario, trial))


# every kind, draws past the geometric CDF prefix, and horizons that are not powers of two
BLOCKED = SAMPLED + [geometric_drift(0.08, 0.05, t=300, seed=65),
                     zipf_drift(5.0, 4.5, t=333, seed=66)]


@pytest.mark.parametrize("scenario", BLOCKED)
def test_sample_streams_rows_equal_the_per_segment_reference(scenario):
    block = driftgen.sample_streams(scenario, 2, 6)
    assert block.shape == (4, scenario.t) and block.dtype == np.int64
    for row, trial in zip(block, range(2, 6)):
        assert np.array_equal(row, ref.sample_stream(scenario, trial))
        assert np.array_equal(row, sample_stream(scenario, trial))
    if scenario.kind == "geometric_drift" and scenario.geo_p_start < 0.1:
        assert np.sum(block >= driftgen._CDF_PREFIX) > 40


UNIFORM_KINDS = ("iid", "abrupt", "rotating_support")


# the uniform kinds, then the flat schedules, whose truth is one row
@pytest.mark.parametrize("scenario", [s for s in SAMPLED if s.kind in UNIFORM_KINDS]
                         + [s for s in SAMPLED if s.kind not in UNIFORM_KINDS
                            and segments(s).widths.size == 1])
def test_uniform_kinds_share_one_probability_vector(scenario):
    # the sampler ranks every step of these truths by one CDF and adds the
    # row's first symbol, which needs consecutive symbols and equal probs
    ((_, probs),) = truth_pmfs(scenario)
    if scenario.kind in UNIFORM_KINDS:
        assert probs.shape[1] == scenario.k
    assert np.all(probs == probs[0])


@pytest.mark.parametrize("scenario", SAMPLED + ALL_FAMILIES)
def test_drift_curve_matches_per_step_reference(scenario):
    want = ref.drift_sequence_per_step(ref.truth_pmfs(scenario))
    got = drift_sequence(segments(scenario))
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert [scenario_delta(scenario, r) for r in range(1, scenario.t + 1)] == want.tolist()


@pytest.mark.parametrize("k", [1, 2, 3, 7, 8, 10, 20, 1000, 10**5])
def test_uniform_ranks_equal_the_cdf_search(k):
    # draws at every CDF step, a float either side of it, and at each i/k
    probs = np.full(k, 1.0 / k)
    cdf = driftgen._cdf(probs)
    u = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0), np.arange(k) / k,
                        np.random.default_rng(k).random(4096)])
    u = u[u < 1.0]
    got = driftgen._uniform_ranks(probs, u)
    assert got.dtype == np.int64
    assert np.array_equal(got, driftgen._inverse_cdf(probs, u))


def test_zipf_refusal_names_the_count_cap():
    # exponent 2.6 needs 19,955,797 atoms, within the truth bound but past
    # the 2^24 atoms the count search goes to
    with pytest.raises(ValueError, match="zipf exponent 2.6 needs more than 16777216 atoms"):
        segments(zipf_drift(2.6, 2.6, t=8))
    with pytest.raises(ValueError, match="needs more than 16777216 atoms"):
        ref.zipf_atoms(2.6)


def test_sample_stream_keeps_no_atom_copy():
    # every step of a zipf drift has its own pmf with thousands of atoms;
    # sampling must read them, not copy them or cache their CDFs
    scenario = zipf_drift(5.0, 4.5, t=512, seed=41)
    atoms = sum(probs.size for _, probs in truth_pmfs(scenario))
    assert atoms > 1000 * scenario.t
    sample_stream(scenario, 0)  # first-call allocations stay out of the count
    tracemalloc.start()
    try:
        stream = sample_stream(scenario, 1)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < atoms  # one byte per atom; a copy would take eight
    # numpy keeps a few small freed blocks for reuse; a cached CDF of all
    # rows would take 8 bytes per atom
    assert retained < stream.nbytes + 16 * 1024


@pytest.mark.parametrize("scenario", ALL_FAMILIES, ids=lambda s: s.kind)
def test_true_pmf_is_the_truth_sequence_entry(scenario):
    truth = ref.truth_pmfs(scenario)
    assert len(truth) == scenario.t
    for t in range(1, scenario.t + 1):
        assert same_pmf(true_pmf(scenario, t), truth[t - 1])


def test_true_pmf_does_not_build_the_truth_sequence():
    scenario = iid(k=4, t=4_000_000, seed=0)
    tracemalloc.start()
    try:
        current = true_pmf(scenario, scenario.t)
        first = true_pmf(scenario, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert same_pmf(current, first)
    # a T-length tuple of references alone would take 32 MB
    assert peak < 2 * 2**20


def test_true_pmf_range_validation():
    s = iid(k=2, t=8, seed=0)
    with pytest.raises(ValueError):
        true_pmf(s, 0)
    with pytest.raises(ValueError):
        true_pmf(s, 9)
    with pytest.raises(ValueError):
        scenario_delta(s, 9)


def test_scenario_validation():
    with pytest.raises(ValueError, match="unknown kind"):
        DriftScenario("bogus", 8, 0)
    with pytest.raises(ValueError, match="requires key 'k'"):
        DriftScenario("iid", 8, 0)
    with pytest.raises(ValueError, match="change_point"):
        abrupt(k=4, change_point=8, t=8)
    with pytest.raises(ValueError, match="step_delta"):
        linear_drift(k=4, step_delta=-0.1, t=8)
    with pytest.raises(ValueError, match="geo_p_start"):
        geometric_drift(0.0, 0.5, t=8)
    with pytest.raises(ValueError, match="zipf_s_end"):
        zipf_drift(3.0, 1.0, t=8)
    with pytest.raises(ValueError, match="period"):
        rotating_support(k=4, period=0, t=8)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.1"])
def test_step_delta_must_be_finite_and_nonnegative(value):
    message = "key 'step_delta': must be finite and >= 0"
    with pytest.raises(ValueError, match=message):
        linear_drift(k=4, step_delta=float(value), t=8)
    with pytest.raises(ValueError, match=message):
        parse_scenario_config(f"kind = linear_drift\nt = 8\nseed = 0\nk = 4\n"
                              f"step_delta = {value}\n")


@pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
@pytest.mark.parametrize("key", ["zipf_s_start", "zipf_s_end"])
def test_zipf_exponents_must_be_finite(key, value):
    message = f"key '{key}': exponent must be finite and exceed 1"
    params = {"zipf_s_start": "3.0", "zipf_s_end": "3.0", key: value}
    with pytest.raises(ValueError, match=message):
        zipf_drift(float(params["zipf_s_start"]), float(params["zipf_s_end"]), t=8)
    with pytest.raises(ValueError, match=message):
        parse_scenario_config("kind = zipf_drift\nt = 8\nseed = 0\n" + "".join(
            f"{name} = {text}\n" for name, text in params.items()))


@pytest.mark.parametrize("kind, start_key, end_key, start, end, t", [
    ("zipf_drift", "zipf_s_start", "zipf_s_end", 1e17, 3.0, 4),
    ("zipf_drift", "zipf_s_start", "zipf_s_end", 1e17, 3.0, 1000),
    ("zipf_drift", "zipf_s_start", "zipf_s_end", 1e20, 5.0, 5),
    ("zipf_drift", "zipf_s_start", "zipf_s_end", 1e308, 900.0, 6),
    ("zipf_drift", "zipf_s_start", "zipf_s_end", 1e16, 3.0, 4),
    ("geometric_drift", "geo_p_start", "geo_p_end", 1.0, 1e-300, 5),
], ids=["zipf_1e17_t4", "zipf_1e17_t1000", "zipf_1e20", "zipf_1e308", "zipf_1e16_ends_at_4",
        "geometric_ends_at_0"])
def test_a_ramp_that_misses_its_end_point_is_rejected(kind, start_key, end_key, start, end, t):
    # start + ramp * (t - 1) cancels to another value than the configured end
    message = f"key '{end_key}': a ramp from {start!r} over {t} steps ends at "
    with pytest.raises(ValueError, match=re.escape(message)):
        DriftScenario(kind, t, 0, **{start_key: start, end_key: end})
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_scenario_config(f"kind = {kind}\nt = {t}\nseed = 0\n"
                              f"{start_key} = {start!r}\n{end_key} = {end!r}\n")
    # one step, or a flat schedule, has no ramp to miss
    DriftScenario(kind, 1, 0, **{start_key: start, end_key: end})
    DriftScenario(kind, t, 0, **{start_key: end, end_key: end})


def test_config_parsing():
    scenario = parse_scenario_config(
        "# demo\nkind = linear_drift\nt = 128\nseed = 9\nk = 10\nstep_delta = 0.001\n")
    assert scenario == linear_drift(k=10, step_delta=1e-3, t=128, seed=9)


@pytest.mark.parametrize("text, message", [
    ("kind = iid\nt = 8\nseed = 0\nk = 4\nk = 9\n", "line 5: repeated key 'k'"),
    ("kind = iid\nt = 8\n# comment\nt = 8\nseed = 0\nk = 4\n", "line 4: repeated key 't'"),
    ("kind = iid\nkind = abrupt\nt = 8\nseed = 0\nk = 4\n",
     "line 2: repeated key 'kind'"),
    ("kind = geometric_drift\nt = 8\nseed = 0\ngeo_p_start = 0.3\ngeo_p_end = 0.4\nk = 5\n",
     "geometric_drift does not use key 'k'"),
    ("kind = iid\nt = 8\nseed = 0\nk = 4\nperiod = 3\n", "iid does not use key 'period'"),
    ("kind = abrupt\nt = 8\nseed = 0\nk = 4\nchange_point = 2\nstep_delta = 0.1\n",
     "abrupt does not use key 'step_delta'"),
], ids=["repeated_k", "repeated_t", "repeated_kind", "geometric_k", "iid_period",
        "abrupt_step_delta"])
def test_config_rejects_repeated_and_unused_keys(text, message):
    with pytest.raises(ValueError, match=message):
        parse_scenario_config(text)


def test_constructors_reject_keys_the_kind_does_not_use():
    with pytest.raises(ValueError, match="iid does not use key 'period'"):
        DriftScenario("iid", 8, 0, k=4, period=3)
    with pytest.raises(ValueError, match="zipf_drift does not use key 'geo_p_end'"):
        DriftScenario("zipf_drift", 8, 0, zipf_s_start=3.0, zipf_s_end=3.0, geo_p_end=0.5)


def test_config_errors():
    with pytest.raises(ValueError, match="unknown key 'bogus'"):
        parse_scenario_config("kind = iid\nt = 8\nseed = 0\nk = 2\nbogus = 1\n")
    with pytest.raises(ValueError, match="key 'k'"):
        parse_scenario_config("kind = iid\nt = 8\nseed = 0\nk = two\n")
    with pytest.raises(ValueError, match="missing key 't'"):
        parse_scenario_config("kind = iid\nseed = 0\nk = 2\n")
    with pytest.raises(ValueError, match="unknown kind"):
        parse_scenario_config("kind = bogus\nt = 8\nseed = 0\n")
    with pytest.raises(ValueError, match="expected key = value"):
        parse_scenario_config("kind iid\n")


def test_window_average_matches_mean_of_truth():
    for scenario in ALL_FAMILIES:
        truth = list(ref.truth_pmfs(scenario))
        columnar = segments(scenario)
        for r in (1, 2, scenario.t // 2, scenario.t):
            if r < 1:
                continue
            got = ref.window_average(columnar, r)
            want = ref.mean_pmf(truth[len(truth) - r:])
            assert tv_distance(got, want) < 1e-12


def _frozen_prefix_by_walk(scenario):
    """Saturated steps counted one at a time, oldest first."""
    frozen = 0
    for t in range(1, scenario.t + 1):
        if min((scenario.t - t) * scenario.step_delta, 1.0) < 1.0:
            break
        frozen += 1
    return frozen


@pytest.mark.parametrize("step_delta", [0.0, 1e-9, 1 / 3, 0.5, 1.0, 2.5])
@pytest.mark.parametrize("t", [1, 2, 3, 7, 1000])
def test_linear_frozen_prefix_matches_the_step_walk(step_delta, t):
    scenario = linear_drift(k=3, step_delta=step_delta, t=t, seed=0)
    truth = segments(scenario)
    counts = truth.counts.tolist()
    frozen = _frozen_prefix_by_walk(scenario)
    assert sum(counts) == t
    if frozen:
        assert counts[0] == frozen and truth.pmf(0).as_dict() == {0: 1.0}
        assert all(count == 1 for count in counts[1:])
    else:
        assert all(count == 1 for count in counts)
    assert len(counts) == t - frozen + bool(frozen)


def test_linear_frozen_prefix_takes_logarithmic_predicate_calls(monkeypatch):
    calls = []
    alpha = driftgen._linear_alpha

    def counted(scenario, t):
        calls.append(t)
        return alpha(scenario, t)

    monkeypatch.setattr(driftgen, "_linear_alpha", counted)
    t = 20_000_000
    truth = segments(linear_drift(k=1, step_delta=0.5, t=t, seed=314159))
    assert truth.counts.tolist() == [t - 2, 1, 1]
    assert len(calls) <= 2 * math.ceil(math.log2(t))


def _count_calls(monkeypatch, name):
    calls = []
    fn = getattr(driftgen, name)

    def counted(param, *rest):
        calls.append(param)
        return fn(param, *rest)

    monkeypatch.setattr(driftgen, name, counted)
    return calls


@pytest.mark.parametrize("family, atoms, scenario", [
    ("_geometric_rows", "_geometric_atoms", geometric_drift(0.3, 0.45, t=512, seed=271)),
    ("_zipf_rows", "_zipf_atoms", zipf_drift(5.0, 4.5, t=512, seed=272)),
    # a ramp slower than the float spacing: 24 parameters over 4096 steps
    ("_zipf_rows", "_zipf_atoms", zipf_drift(5.0, 5.0 + 2e-14, t=4096, seed=273)),
])
def test_each_distinct_pmf_is_counted_and_built_once(family, atoms, scenario, monkeypatch):
    if scenario.kind == "geometric_drift":
        start, end = scenario.geo_p_start, scenario.geo_p_end
    else:
        start, end = scenario.zipf_s_start, scenario.zipf_s_end
    distinct = len(ref.ramp_atoms(start, end, scenario.t, getattr(driftgen, atoms)))
    counted = _count_calls(monkeypatch, atoms)
    built = _count_calls(monkeypatch, family)
    truth = segments(scenario)
    assert np.all(truth.counts == 1) and truth.counts.size == scenario.t
    # one row per distinct parameter, written once, in one call per atom count
    # (no chunk of these truths ends inside a stretch of one atom count)
    assert sum(params.size for params in built) == truth.widths.size == distinct
    assert len(built) == len(truth.blocks) == len({probs.shape[1] for _, probs in truth.blocks})
    # no parameter is counted twice, and no more are counted than exist
    assert len(set(counted)) == len(counted) <= distinct


# 1e308's zeta tail is NaN, not zero
@pytest.mark.parametrize("scenario", [zipf_drift(1000.0, 1000.0, t=4, seed=0),
                                      zipf_drift(1000.0, 900.0, t=4, seed=0),
                                      zipf_drift(1e308, 1e308, t=4, seed=0)])
def test_zipf_with_underflowing_tail_is_a_point_mass_at_one(scenario):
    truth = segments(scenario)
    assert int(np.sum(truth.counts)) == scenario.t
    assert all(truth.pmf(row).as_dict() == {1: 1.0} for row in truth.rows.tolist())
    assert sample_stream(scenario, 0).tolist() == [1] * scenario.t


# --- the columnar truth against the per-Pmf reference -----------------------

# every kind, with edge cases: one step, a period that does not divide t,
# flat ramps, a ramp that reaches p = 1, a zero drift rate, a final step
# whose drained source drops symbol 0, a ramp slower than the float
# spacing, and wide geometric rows that many draws search past the prefix
REFERENCE_CASES = [
    iid(k=5, t=1, seed=50),
    iid(k=20, t=300, seed=51),
    linear_drift(k=10, step_delta=1e-2, t=512, seed=52),
    linear_drift(k=4, step_delta=0.0, t=40, seed=53),
    linear_drift(k=1, step_delta=0.5, t=9, seed=54),
    linear_drift(k=3, step_delta=0.1, t=1, seed=55),
    abrupt(k=7, change_point=3, t=40, seed=56),
    rotating_support(k=3, period=7, t=40, seed=57),
    rotating_support(k=8, period=1, t=300, seed=58),
    rotating_support(k=2, period=5, t=1, seed=59),
    geometric_drift(0.3, 0.45, t=200, seed=60),
    geometric_drift(0.3, 0.3, t=50, seed=61),
    geometric_drift(0.9, 1.0, t=64, seed=62),
    geometric_drift(1.0, 1.0, t=8, seed=63),
    geometric_drift(0.4, 0.5, t=1, seed=64),
    geometric_drift(0.08, 0.05, t=300, seed=65),
    zipf_drift(5.0, 4.5, t=100, seed=66),
    zipf_drift(4.0, 4.0, t=30, seed=67),
    zipf_drift(5.0, 5.0 + 2e-14, t=300, seed=68),
    zipf_drift(4.0, 3.0, t=1, seed=69),
]


def _case_id(scenario):
    params = [getattr(scenario, f) for f in ("k", "step_delta", "change_point", "period",
                                             "geo_p_start", "geo_p_end", "zipf_s_start",
                                             "zipf_s_end")]
    return "-".join([scenario.kind, *(str(p) for p in params if p is not None),
                     f"t{scenario.t}"])


@pytest.mark.parametrize("scenario", REFERENCE_CASES, ids=_case_id)
def test_columnar_truth_equals_the_per_pmf_reference(scenario):
    truth = segments(scenario)
    runs = ref.segments(scenario)
    assert truth.counts.tolist() == [count for count, _ in runs]
    assert all(same_pmf(truth.pmf(row), pmf)
               for row, (_, pmf) in zip(truth.rows.tolist(), runs))
    assert same_pmf(truth.current, runs[-1][1])
    drift = ref.drift_sequence(runs)
    got = drift_sequence(truth)
    assert got.dtype == drift.dtype and np.array_equal(got, drift)
    assert len(truth.window_averages) == truth.depth + 1 == scenario.t.bit_length()
    for j, average in enumerate(truth.window_averages):
        assert same_pmf(average, ref.suffix_average(scenario, 2**j))
    for trial in range(3):
        assert np.array_equal(sample_stream(scenario, trial), ref.sample_stream(scenario, trial))


def test_wide_rows_send_draws_past_the_cdf_prefix():
    # the case above only tests the whole-row search if draws reach it
    scenario = geometric_drift(0.08, 0.05, t=300, seed=65)
    stream = sample_stream(scenario, 0)
    assert np.sum(stream >= driftgen._CDF_PREFIX) > 10


def test_search_rows_equals_searchsorted_per_row():
    # one step per row; rows wider than the CDF prefix send some draws past it
    rng = np.random.default_rng(5)
    for width in (1, 2, 3, 7, 8, 33, 100):
        probs = rng.dirichlet(np.ones(width), size=40)
        starts = 7 * np.arange(40)
        truth = driftgen.Truth(np.ones(40), np.arange(40), starts, np.full(40, width),
                               probs.ravel())
        cdf = np.cumsum(probs, axis=1)
        cdf[:, -1] = 1.0
        u = rng.random(40)
        u[:10] = cdf[:10, rng.integers(0, width)]  # draws on a CDF entry: side="right"
        u[10:20] = np.minimum(u[10:20], cdf[10:20, 0])  # draws below the first entry
        u[u >= 1.0] = 0.5
        want = [start + np.searchsorted(row, x, side="right")
                for start, row, x in zip(starts, cdf, u)]
        assert driftgen._sample_rows(truth, u[None]).tolist() == [want]
        # a block of trials maps each row of draws as that row alone
        block = np.stack([rng.random(40), u, u[::-1]])
        assert driftgen._sample_rows(truth, block).tolist() == [
            driftgen._sample_rows(truth, row[None])[0].tolist() for row in block]


RAMPS = [
    ("geometric", 0.3, 0.45, 512),
    ("geometric", 0.45, 0.3, 300),
    ("geometric", 0.9, 1.0, 64),
    ("zipf", 5.0, 4.5, 512),
    ("zipf", 5.0, 5.0 + 2e-14, 4096),
    # rejected: the running total passes the bound, or a later exponent
    # needs too many atoms before it does
    ("zipf", 3.0, 2.8, 4096),
    ("zipf", 4.0, 2.0, 3),
    ("geometric", 0.9, 0.8, 2_000_000),
]


@pytest.mark.parametrize("family, start, end, t", RAMPS)
def test_ramp_atom_counts_match_one_parameter_at_a_time(family, start, end, t):
    atoms = getattr(driftgen, f"_{family}_atoms")
    try:
        want = ref.ramp_atoms(start, end, t, atoms)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            params, _ = driftgen._ramp_params(start, end, t)
            driftgen._ramp_atoms(params, atoms)
        assert str(got.value) == str(exc)
        return
    params, steps = driftgen._ramp_params(start, end, t)
    assert params.tolist() == [x for x, _, _ in want]
    assert steps.tolist() == [n for _, n, _ in want]
    assert driftgen._ramp_atoms(params, atoms).tolist() == [n for _, _, n in want]


# the zipf configs of the goldens, the acceptance suite, harness.default_families
# and the robustness matrix; counts of one atom; counts between the search's
# cap of 2^24 and the bound of 2 * 10^7, which are refused (s = 2.6 needs
# 19,955,797 atoms, s = 2.62 needs 16,142,571); then a seeded sweep of ramps,
# some past the bound
ZIPF_CONFIGS = [(5.0, 4.5, 512), (3.0, 3.0, 1), (5.0, 4.5, 16384), (3.0, 2.8, 4096),
                (1000.0, 900.0, 4), (60.0, 20.0, 200), (2.6, 2.6, 1), (2.62, 2.6, 3)]


def _zipf_sweep(rng, count):
    for _ in range(count):
        start, end = sorted(rng.uniform(1.2, 12.0, 2), reverse=rng.random() < 0.5)
        yield float(start), float(end), int(rng.integers(2, 600))


@pytest.mark.parametrize("start, end, t", ZIPF_CONFIGS
                         + list(_zipf_sweep(np.random.default_rng(29), 24)))
def test_zipf_counts_from_a_neighbour_equal_counts_from_scratch(start, end, t):
    def outcome(count):
        try:
            return "counts", count()
        except ValueError as exc:
            return "error", str(exc)

    if start == end:
        got = outcome(lambda: [driftgen._zipf_atoms(start)])
        want = outcome(lambda: [ref.zipf_atoms(start)])
    else:
        params, _ = driftgen._ramp_params(start, end, t)
        got = outcome(lambda: driftgen._ramp_atoms(params, driftgen._zipf_atoms).tolist())
        want = outcome(lambda: [n for _, _, n in ref.ramp_atoms(start, end, t, ref.zipf_atoms)])
    assert got == want


def test_ramp_params_stop_once_the_bound_must_reject():
    params, steps = driftgen._ramp_params(10.0, 9.0, 20_000_000)
    assert params.size == driftgen._MAX_DISTINCT_PMFS + 1
    assert steps.tolist() == [1] * params.size
    with pytest.raises(ValueError, match="need more than 20000000 atoms"):
        driftgen._ramp_atoms(params, driftgen._zipf_atoms)


@pytest.mark.parametrize("scenario", [
    rotating_support(k=8, period=1, t=8192, seed=70),
    linear_drift(k=10, step_delta=1e-3, t=1024, seed=71),
    geometric_drift(0.3, 0.45, t=512, seed=72),
], ids=lambda s: s.kind)
def test_truth_side_builds_pmfs_per_window_not_per_step(scenario, monkeypatch):
    # a per-step path would build one Pmf per step or per block of steps;
    # every Pmf, built or adopting its arrays, checks its atoms once
    built = []
    check = dist._sorted_atoms

    def counted(*args, **kwargs):
        built.append(args)
        return check(*args, **kwargs)

    monkeypatch.setattr(dist, "_sorted_atoms", counted)
    truth = segments(scenario)
    truth.window_averages, truth.window_lambdas, truth.window_deltas
    sample_stream(scenario, 0)
    # the current pmf, then one average per dyadic window
    assert len(built) == 1 + truth.depth + 1


# --- rows written on demand against the materialised truth --------------------

# tests/test_robustness.py's ADMITTED configs at a small t, and the admitted RAMPS
ADMITTED_SMALL = [
    iid(k=4, t=5000, seed=80),
    iid(k=4000, t=16, seed=81),
    linear_drift(k=10, step_delta=1e-6, t=571, seed=82),
    rotating_support(k=8, period=1, t=625, seed=83),
    geometric_drift(0.9, 0.8, t=490, seed=84),
    zipf_drift(5.0, 4.5, t=164, seed=85),
]
ADMITTED_RAMPS = [geometric_drift(start, end, t=t, seed=86) if family == "geometric"
                  else zipf_drift(start, end, t=t, seed=86)
                  for family, start, end, t in RAMPS[:5]]
GENERATED = list(dict.fromkeys(ALL_FAMILIES + SAMPLED + REFERENCE_CASES + ADMITTED_SMALL
                               + ADMITTED_RAMPS + list(default_families(0))))


def _fresh_truth(scenario, monkeypatch):
    """A truth built anew, past the cache, that the sampler reads as the scenario's."""
    truth = driftgen.segments.__wrapped__(scenario)
    monkeypatch.setattr(driftgen, "segments", lambda s: truth if s == scenario else None)
    return truth


# chunks of 2^15 atoms; of 1,000, which end inside runs of rows of one width and
# where the width changes; of one row each.  Rows read a row at a time, or all at once.
@pytest.mark.parametrize("scenario, chunk, wide", [
    pytest.param(scenario, chunk, wide,
                 id=f"{_case_id(scenario)}-seed{scenario.seed}-chunk{chunk}-wide{wide}")
    for chunk, wide in [(1 << 15, 256), (1000, 256), (1000, 1), (1000, 10**9), (1, 256)]
    for scenario in GENERATED if chunk > 1 or scenario.t <= 1024])
def test_generated_rows_equal_the_materialised_truth(scenario, chunk, wide, monkeypatch):
    monkeypatch.setattr(dist, "CHUNK_ELEMENTS", chunk)
    monkeypatch.setattr(driftgen, "WIDE_ROW", wide)
    want = ref.materialized_segments(scenario)
    truth = _fresh_truth(scenario, monkeypatch)
    assert np.concatenate([atoms for _, _, atoms in truth._chunks()][::-1]).tolist() == (
        want.probs.tolist())
    for (starts, probs), (a, z) in zip(truth.blocks, driftgen._stretches(want.widths)):
        assert starts.tolist() == want.starts[a:z].tolist()
        assert probs.ravel().tolist() == want.probs[want.offsets[a]:want.offsets[z]].tolist()
    assert all(truth.row_probs(row).tolist() == want.row_probs(row).tolist()
               for row in range(truth.widths.size))
    assert same_pmf(truth.current, want.current)
    drift = drift_sequence(truth)
    assert drift.dtype == want.drift.dtype and drift.tolist() == want.drift.tolist()
    assert len(truth.window_averages) == len(want.window_averages)
    assert all(same_pmf(got, average)
               for got, average in zip(truth.window_averages, want.window_averages))
    assert truth.window_lambdas == want.window_lambdas
    block = driftgen.sample_streams(scenario, 0, 3)
    assert block.tolist() == ref.materialized_sample_streams(scenario, 0, 3).tolist()
    if scenario == geometric_drift(0.08, 0.05, t=300, seed=65):
        assert np.sum(block >= driftgen._CDF_PREFIX) > 10  # draws past the prefix


def test_small_chunks_end_inside_runs_of_one_width_and_where_it_changes(monkeypatch):
    monkeypatch.setattr(dist, "CHUNK_ELEMENTS", 1000)
    inside = between = 0
    for scenario in GENERATED:
        widths = segments(scenario).widths
        for part in dist.groups(widths)[:-1]:
            same = widths[part.stop - 1] == widths[part.stop]
            inside += bool(same)
            between += not same
    assert inside > 100 and between > 100


@pytest.mark.parametrize("scenario", [zipf_drift(5.0, 4.5, t=512, seed=87),
                                      geometric_drift(0.3, 0.45, t=512, seed=88),
                                      rotating_support(k=8, period=1, t=8192, seed=89),
                                      linear_drift(k=10, step_delta=1e-3, t=1024, seed=90)],
                         ids=lambda s: s.kind)
def test_each_row_is_written_once_as_the_truth_is_built(scenario, monkeypatch):
    written = []
    rows = driftgen.Truth._rows

    def counted(truth, a, z):
        written.extend(range(a, z))
        return rows(truth, a, z)

    monkeypatch.setattr(driftgen.Truth, "_rows", counted)
    truth = _fresh_truth(scenario, monkeypatch)
    assert sorted(written) == list(range(truth.widths.size))
    truth.window_averages, truth.window_lambdas, truth.window_deltas
    assert len(written) == truth.widths.size
    # sampling writes a row only for a draw past its CDF prefix
    block = driftgen.sample_streams(scenario, 0, 4)
    steps = np.repeat(truth.rows, truth.counts)
    assert sorted(written[truth.widths.size:]) == sorted(
        set(steps[np.nonzero(block >= truth.starts[steps] + driftgen._CDF_PREFIX)[1]].tolist()))


@pytest.mark.parametrize("chunk", [1, 3, 1 << 15])
def test_row_checks_keep_their_precedence_across_chunks(chunk, monkeypatch):
    # each check's error wins over the later checks' wherever their rows lie
    monkeypatch.setattr(dist, "CHUNK_ELEMENTS", chunk)
    rows = {"nan": [math.nan, 1.0], "negative": [1.5, -0.5], "zero": [1.0, 0.0],
            "light": [0.5, 0.4], "heavy": [0.5, 0.55], "ok": [0.5, 0.5]}
    cases = [(["ok", "zero", "negative", "nan"], "probabilities must be finite"),
             (["nan", "ok"], "probabilities must be finite"),
             (["light", "zero", "negative"], "probabilities must be nonnegative"),
             (["light", "zero", "ok"], "a block row has a zero atom"),
             # within a stretch of one width, its worst row is named
             (["ok", "light", "heavy", "ok"], "pmf mass is 0.9, "),
             (["ok", "heavy", "light", "ok"], "pmf mass is 0.9, ")]
    for names, message in cases:
        probs = np.array([rows[name] for name in names])
        with pytest.raises(ValueError, match=message):
            driftgen.Truth(np.ones(len(names)), np.arange(len(names)), np.zeros(len(names)),
                           np.full(len(names), 2), probs.ravel())
    # of two stretches of one width with a row off, the older one's worst row is named
    probs = np.array([0.5, 0.5, 0.4, 0.5, 0.5, 0.3, 1.3])
    with pytest.raises(ValueError, match="pmf mass is 0.9, "):
        driftgen.Truth(np.ones(4), np.arange(4), np.zeros(4), [2, 2, 1, 2], probs)


def _window_sums_bound(truth):
    """The averages' sums and widest span, and eight chunk-sized float64 arrays, in bytes."""
    spans = sum(average.symbols.size for average in truth.window_averages)
    widest = truth.window_averages[-1].symbols.size
    return 8 * (spans + widest + 8 * dist.CHUNK_ELEMENTS)


@pytest.mark.parametrize("scenario, atoms, bound", [
    # zipf 5.0 -> 4.5 over 4,096 steps has 4,096 rows of 701 - 1,847 atoms,
    # 4.74 million in all: 36.2 MiB as one array, and the old truth held them.
    # Built, its curves read and a stream drawn, it peaked at 2.9 MiB under
    # tracemalloc: the window averages, the 32-atom CDF prefixes (1 MiB), the
    # per-row gaps and one chunk's rows and temporaries.  4 MiB leaves room for
    # those and none for the rows' atoms, nor for a tenth of them.
    (zipf_drift(5.0, 4.5, t=4096, seed=91), 4_741_432, lambda truth: 4 * 2**20),
    # rotating k = 8, period 1, over 8,192 steps: its 14 window averages span
    # 131,064 symbols (1 MiB of sums), the widest 65,536 (0.5 MiB of symbols,
    # which every average views).  It peaked at 3.26 MiB, and at 4.32 MiB when
    # each average held its own symbols, its sum was copied into its Pmf, and
    # each complexity built full prefix-sum arrays.  The bound is the sums, the
    # widest span and eight chunk-sized float64 arrays (2 MiB, 3.5 MiB in all):
    # one chunk's rows, their places, their TV matrix and the sums' index
    # temporaries.
    (rotating_support(k=8, period=1, t=8192, seed=92), 65_536, _window_sums_bound),
], ids=["zipf", "rotating"])
def test_a_truth_holds_neither_its_rows_atoms_nor_copies_of_its_sums(scenario, atoms, bound):
    sample_stream(iid(k=3, t=8, seed=0), 0)  # first-call allocations stay out of the count
    tracemalloc.start()
    try:
        truth = segments(scenario)
        truth.window_averages, truth.window_lambdas
        sample_stream(scenario, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert int(np.sum(truth.widths)) == atoms
    assert peak < bound(truth)
