"""Adaptive window selection: traces, baselines, and the bound diagnostics."""

import io
import json
import math
import warnings

import numpy as np
import pytest

from driftest import Pmf, adaptive, adaptive_estimate, dist, fixed_window_estimate, tv_distance
from driftest.adaptive import (argmin_prefer_large, drift_sequence, q_curve, q_minimum,
                               realized_error_curve, walk_ladder)
from driftest.driftgen import (abrupt, geometric_drift, iid, linear_drift, rotating_support,
                               sample_stream, sample_streams, segments, zipf_drift)
from driftest.harness import default_families, random_pmf
from driftest.windows import LadderBlock, build_ladder, ladder_phis, ladder_xis
import reference as ref
from reference import brute_force_error_curve, columnar, error_curve_by_codes

UNION_C = 4.0 * math.pi**2 / 3.0


def test_constant_stream_extends_to_full_window():
    result = adaptive_estimate([7] * 64, 0.05)
    assert result.chosen_window == 64
    assert result.estimate.as_dict() == {7: 1.0}
    assert result.stop.kind == "exhausted"
    # every dyadic index entered: identical point-mass windows never collide
    assert [c.index for c in result.accepted] == list(range(7))
    xis = [c.xi for c in result.accepted]
    assert all(a > b for a, b in zip(xis, xis[1:]))
    assert all(c.tv == 0.0 for c in result.comparisons)


def test_single_sample_stream():
    result = adaptive_estimate([9], 0.05)
    assert result.chosen_window == 1
    assert result.estimate.as_dict() == {9: 1.0}
    assert result.stop.kind == "exhausted"
    assert result.comparisons == ()


def test_estimate_validation():
    with pytest.raises(ValueError):
        adaptive_estimate([], 0.05)
    with pytest.raises(ValueError):
        adaptive_estimate([1, 2], 0.0)
    with pytest.raises(ValueError):
        adaptive_estimate([1, 2], 1.0)


def test_estimate_is_deterministic():
    rng = np.random.default_rng(5)
    stream = rng.integers(0, 6, size=500)
    a = adaptive_estimate(stream, 0.05)
    b = adaptive_estimate(stream, 0.05)
    assert a.to_json_obj() == b.to_json_obj()


def test_trace_respects_acceptance_rule():
    # accepted bounds strictly decrease; skipped indexes never beat the floor
    rng = np.random.default_rng(6)
    for _ in range(20):
        stream = rng.integers(0, 12, size=int(rng.integers(2, 2000)))
        result = adaptive_estimate(stream, 0.1)
        xis = ladder_xis(ladder_phis(build_ladder(stream)), 0.1)
        accepted = {c.index for c in result.accepted}
        bounds = [c.xi for c in result.accepted]
        assert all(a > b for a, b in zip(bounds, bounds[1:]))
        assert result.chosen_window == 2 ** max(accepted)
        stop_at = result.stop.j if result.stop.kind == "violation" else len(xis)
        for j in range(1, stop_at):
            if j not in accepted:
                floor = min(x for i, x in enumerate(xis[:j]) if i in accepted)
                assert xis[j] >= floor


def test_stop_fires_on_large_abrupt_change():
    scenario = abrupt(k=10, change_point=8192, t=32768, seed=14)
    stream = sample_stream(scenario, 0)
    result = adaptive_estimate(stream, 0.05)
    assert result.stop.kind == "violation"
    assert result.chosen_window == 2 ** max(c.index for c in result.accepted)
    # the recorded violating comparison must actually breach its threshold,
    # and every earlier comparison must not (checked from the raw ladder)
    ladder = build_ladder(stream)
    xis = ladder_xis(ladder_phis(ladder), 0.05)
    last = result.comparisons[-1]
    assert (last.l, last.j) == (result.stop.l, result.stop.j)
    for comp in result.comparisons:
        gap = tv_distance(ladder[comp.l], ladder[comp.j])
        assert gap == pytest.approx(comp.tv, abs=1e-12)
        assert comp.threshold == pytest.approx(3 * xis[comp.l] + xis[comp.j], abs=1e-12)
        breached = comp.tv >= comp.threshold
        assert breached == ((comp.l, comp.j) == (last.l, last.j))


def _json_text(result):
    fh = io.StringIO()
    result.write_json(fh)
    return fh.getvalue()


# candidate supports under 8, 8-128 and over 128 symbols (the regimes of
# numpy's pairwise sum), a stream whose stop test fires, and distinct
# samples, 2^16 of them wide enough that the walk chunks its candidates
WALK_STREAMS = {
    "narrow": lambda rng: rng.integers(0, 6, size=5000),
    "medium": lambda rng: rng.integers(0, 100, size=6000),
    "wide": lambda rng: rng.integers(0, 3000, size=20000),
    "stops": lambda rng: sample_stream(abrupt(k=10, change_point=8192, t=32768, seed=7), 0),
    "drift": lambda rng: sample_stream(linear_drift(k=300, step_delta=1e-4, t=9000, seed=3), 1),
    "distinct": lambda rng: rng.permutation(3000),
    "permutation": lambda rng: rng.permutation(2**16),
}
WIDEST_CANDIDATE = {"narrow": (1, 7), "medium": (8, 128), "wide": (129, math.inf),
                    "distinct": (129, math.inf)}


@pytest.mark.parametrize("name", sorted(WALK_STREAMS))
def test_walk_equals_the_per_pair_walk(name):
    stream = WALK_STREAMS[name](np.random.default_rng(17))
    for delta in (0.05, 0.3):
        got, want = adaptive_estimate(stream, delta), ref.adaptive_estimate(stream, delta)
        assert got.to_json_obj() == want.to_json_obj()
        assert _json_text(got) == json.dumps(want.to_json_obj())
    widest = max(build_ladder(stream)[c.j].symbols.size for c in got.comparisons)
    lo, hi = WIDEST_CANDIDATE.get(name, (1, math.inf))
    assert lo <= widest <= hi


# the scenarios of the golden files, with the verify families
GOLDEN_WALKS = [
    rotating_support(k=8, period=1, t=8192, seed=0), geometric_drift(0.3, 0.45, t=512, seed=0),
    zipf_drift(5.0, 4.5, t=512, seed=0), linear_drift(k=10, step_delta=1e-2, t=512, seed=0),
    linear_drift(k=10, step_delta=1e-3, t=1024, seed=0),
    abrupt(k=10, change_point=8192, t=32768, seed=7), *default_families(0),
]


@pytest.mark.parametrize("scenario", GOLDEN_WALKS,
                         ids=lambda s: f"{s.kind}-t{s.t}-seed{s.seed}")
def test_walk_of_a_ladder_equals_the_per_pair_walk(scenario):
    for trial in range(3):
        stream = sample_stream(scenario, trial)
        ladder = build_ladder(stream)
        phis = ladder_phis(ladder)
        got = walk_ladder(ladder, phis, ladder_xis(phis, 0.05))
        want_phis = ref.ladder_phis(stream)
        want = ref.walk_ladder(ref.ladder(stream), want_phis, ref.ladder_xis(want_phis, 0.05))
        assert (got.accepted, got.stop, got.comparisons) == (
            want.accepted, want.stop, want.comparisons)


# the streams of the acceptance suite's criteria, the largest at its full 2^20 samples
ACCEPTANCE_WALKS = [
    linear_drift(k=10, step_delta=1e-3, t=1024, seed=101), *default_families(6),
    *default_families(7), iid(k=20, t=4096, seed=8), iid(k=20, t=4096, seed=9),
    abrupt(k=20, change_point=256, t=4096, seed=88), abrupt(k=6, change_point=64, t=512, seed=11),
    zipf_drift(3.0, 3.0, t=2**20, seed=11),
]


@pytest.mark.parametrize("scenario", list(dict.fromkeys(GOLDEN_WALKS + ACCEPTANCE_WALKS)),
                         ids=lambda s: f"{s.kind}-t{s.t}-seed{s.seed}")
def test_estimate_equals_the_chosen_window_counted_alone(scenario):
    for trial in range(1 if scenario.t > 2**15 else 2):
        stream = sample_stream(scenario, trial)
        result = adaptive_estimate(stream, 0.05)
        want = ref.window(stream[stream.size - result.chosen_window:])
        for got, expected in ((result.estimate.symbols, want.symbols),
                              (result.estimate.probs, want.probs)):
            assert got.dtype == expected.dtype and bool((got == expected).all())
            assert not got.flags.writeable


# trials walked per family, cut into blocks of 1, 2, 3 and all of them
BLOCK_TRIALS = 7


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("family", range(6))
def test_block_walk_equals_the_per_pair_walk(family, seed, monkeypatch):
    scenario = default_families(seed)[family]
    streams = [sample_stream(scenario, trial) for trial in range(BLOCK_TRIALS)]
    xis, want = [], []
    for stream in streams:
        phis = ref.ladder_phis(stream)
        xis.append(ref.ladder_xis(phis, 0.05))
        want.append(ref.walk_ladder(ref.ladder(stream), phis, xis[-1]))
    # every TV the walk compares is the integer formula's
    for stream, expected in zip(streams, want):
        for l, j, tv in zip(*expected.compared[:3]):
            assert ref.walk_tv(stream, l, j) == tv
    # a chunk holds pairs of 2 atoms in all, or one wider pair, so chunks
    # cut inside one index's pairs
    monkeypatch.setattr(dist, "CHUNK_ELEMENTS", 2)
    chunks = []

    def groups(sizes):
        parts = dist.groups(sizes)
        chunks.append([sizes[part].tolist() for part in parts])
        return parts
    monkeypatch.setattr(adaptive, "groups", groups)
    for size in (1, 2, 3, BLOCK_TRIALS):
        for lo in range(0, BLOCK_TRIALS, size):
            hi = min(lo + size, BLOCK_TRIALS)
            block = LadderBlock(sample_streams(scenario, lo, hi))
            walk = adaptive.walk_block([block.block(c) for c in range(len(block.js))],
                                       np.array(xis[lo:hi]))
            for i, expected in enumerate(want[lo:hi]):
                accepted = walk.accepted[i].nonzero()[0].tolist()
                assert accepted == [c.index for c in expected.accepted]
                assert 2 ** int(walk.chosen[i]) == expected.chosen_window
                j, l = walk.stop[i].tolist()
                assert (j, l) == ((expected.stop.j, expected.stop.l)
                                  if expected.stop.kind == "violation" else (-1, -1))
                assert walk.compared(i) == expected.compared
    assert any(len(parts) > 1 for parts in chunks)
    # chunks of several pairs, and of one pair wider than a chunk
    assert any(len(part) > 1 for parts in chunks for part in parts)
    assert any(part[0] > dist.CHUNK_ELEMENTS for parts in chunks for part in parts)
    if scenario.kind == "abrupt":
        assert any(expected.stop.kind == "violation" for expected in want)


def test_a_tv_equal_to_its_threshold_stops_the_walk():
    # windows [1] and [0, 1] are 0.5 apart, and 3 * 5/32 + 1/32 is 0.5 exactly
    ladder = build_ladder([0, 1])
    xis = [5 / 32, 1 / 32]
    result = walk_ladder(ladder, xis, xis)
    assert result.compared == ([0], [1], [0.5], [0.5])
    assert (result.stop.kind, result.stop.j, result.stop.l) == ("violation", 1, 0)
    assert result.chosen_window == 1
    # and in a block, beside a trial that does not stop
    block = LadderBlock(np.array([[0, 1], [1, 1]]))
    walk = adaptive.walk_block([block.block(c) for c in range(2)], np.array([xis, xis]))
    assert walk.stop.tolist() == [[1, 0], [-1, -1]]
    assert walk.chosen.tolist() == [0, 1]


@pytest.mark.parametrize("streams, xis, chunk, rows", [
    # trial 0 stops at j = 1 ([1] and [0, 1] are 0.5 apart) and trial 1
    # walks on; in chunks of a pair or two, trial 0 takes no pair after j = 1
    ([[1] * 14 + [0, 1], [1] * 16], [[0.01 * (5 - c) for c in range(5)]] * 2, 8, 1 + 10),
    # no stop (every threshold is over 1); trial 1's bounds let it consider
    # indices 2 and 4 only, and in one chunk per index it takes pairs there
    (np.random.default_rng(20).integers(0, 4, size=(2, 16)).tolist(),
     [[0.6 - 0.05 * c for c in range(5)], [0.6, 0.7, 0.5, 0.55, 0.4]], None, 10 + 1 + 2),
])
def test_a_walk_gathers_pairs_only_of_trials_that_consider_the_index(
        streams, xis, chunk, rows, monkeypatch):
    block = LadderBlock(np.array(streams))
    if chunk is not None:
        monkeypatch.setattr(dist, "CHUNK_ELEMENTS", chunk)
    taken = []
    pair_tvs = adaptive._pair_tvs
    monkeypatch.setattr(adaptive, "_pair_tvs", lambda keys, probs, j, ls, *rest: (
        taken.append(ls.size), pair_tvs(keys, probs, j, ls, *rest))[1])
    walk = adaptive.walk_block([block.block(c) for c in range(5)], np.array(xis))
    for i, stream in enumerate(streams):
        want = ref.walk_ladder(ref.ladder(np.array(stream)), xis[i], xis[i])
        assert walk.accepted[i].nonzero()[0].tolist() == [c.index for c in want.accepted]
        assert walk.compared(i) == want.compared
    assert sum(taken) == rows == sum(len(walk.compared(i)[0]) for i in range(len(streams)))


def test_block_walk_of_symbols_too_far_apart_for_one_key_range():
    # three trials' symbols span more than a third of the int64 range, so a
    # (trial, symbol) key would pass it: the block is refused, and each
    # trial still walks alone, where no key is offset
    rng = np.random.default_rng(19)
    streams = rng.integers(0, 4, size=(3, 256)) * (2**61) + rng.integers(0, 3, size=(3, 256))
    block = LadderBlock(streams)
    xis = np.array([ref.ladder_xis(ref.ladder_phis(stream), 0.05) for stream in streams])
    with pytest.raises(ValueError, match="too wide a range"):
        adaptive.walk_block([block.block(c) for c in range(len(block.js))], xis)
    for i, stream in enumerate(streams):
        want = ref.walk_ladder(ref.ladder(stream), xis[i].tolist(), xis[i].tolist())
        assert walk_ladder(build_ladder(stream), xis[i].tolist(), xis[i].tolist()).compared == \
            want.compared


def test_walk_and_json_in_small_chunks(monkeypatch):
    stream = np.random.default_rng(18).integers(0, 5, size=2**14)
    want = ref.adaptive_estimate(stream, 0.05)
    # three accepted rows of 5 symbols per walk chunk
    monkeypatch.setattr(dist, "CHUNK_ELEMENTS", 16)
    got = adaptive_estimate(stream, 0.05)
    assert len(got.accepted) > 2 * 3
    assert got.to_json_obj() == want.to_json_obj()
    # 5 atoms in 3 JSON chunks
    monkeypatch.setattr(dist, "CHUNK_ELEMENTS", 2)
    assert _json_text(got) == json.dumps(want.to_json_obj())


@pytest.mark.parametrize("ladder", [
    (ref.window([4]), ref.window([5, 6])),
    # window 1 holds a symbol between window 2's, past its last, and before its first
    (ref.window([1]), ref.window([1, 3]), ref.window([1, 2, 4, 4])),
    (ref.window([1]), ref.window([1, 5]), ref.window([1, 1, 2, 2])),
    (ref.window([1]), ref.window([0, 1]), ref.window([1, 1, 2, 2])),
], ids=["disjoint", "between", "past_the_last", "before_the_first"])
def test_walk_rejects_windows_that_are_not_nested(ladder):
    xis = [9.0, 5.0, 3.0][:len(ladder)]
    with pytest.raises(ValueError, match="not within"):
        walk_ladder(ladder, xis, xis)


@pytest.mark.parametrize("ladder", [
    (ref.window([0]), Pmf.from_dict({0: 1 / 3, 1: 2 / 3})),  # window j's thirds
    (Pmf.from_dict({0: 1 / 3, 1: 2 / 3}), ref.window([0, 1])),  # window l's thirds
    (ref.window([0]), Pmf.from_dict({0: 0.5, 1: 0.5 + 1e-12})),  # a mass just off 1
], ids=["window_j", "window_l", "mass"])
@pytest.mark.parametrize("chunk", [None, 1])
def test_walk_rejects_windows_that_are_not_counts_of_their_samples(ladder, chunk, monkeypatch):
    # a pair's TV is an exact integer sum only on windows of counts over 2^j;
    # in chunks of one atom, the mass case's off atom is in the second
    if chunk is not None:
        monkeypatch.setattr(dist, "CHUNK_ELEMENTS", chunk)
    with pytest.raises(ValueError, match="not counts over 2"):
        walk_ladder(ladder, [9.0, 5.0], [9.0, 5.0])


def test_small_abrupt_horizon_never_stops():
    # at this horizon every stop threshold exceeds the largest possible
    # distance between nested windows, so the walk always runs to the end
    scenario = abrupt(k=10, change_point=256, t=4096, seed=13)
    for trial in range(5):
        result = adaptive_estimate(sample_stream(scenario, trial), 0.05)
        assert result.stop.kind == "exhausted"
        assert result.chosen_window == 4096
        assert all(c.tv < c.threshold for c in result.comparisons)


def test_result_json_schema():
    obj = adaptive_estimate([1, 2, 1, 2, 2], 0.05).to_json_obj()
    assert set(obj) == {"chosen_window", "estimate", "accepted", "stop", "comparisons"}
    assert set(obj["accepted"][0]) == {"j", "r", "phi", "xi"}
    assert obj["stop"] == {"kind": "exhausted"}
    for comp in obj["comparisons"]:
        assert set(comp) == {"l", "j", "tv", "threshold"}


def test_fixed_window_examples():
    assert fixed_window_estimate([5, 5, 7, 7], 2).as_dict() == {7: 1.0}
    assert fixed_window_estimate([5, 5, 7, 7], 4).as_dict() == {5: 0.5, 7: 0.5}
    assert fixed_window_estimate([5, 5, 7, 7], 1).as_dict() == {7: 1.0}
    with pytest.raises(ValueError):
        fixed_window_estimate([5, 5], 3)
    with pytest.raises(ValueError):
        fixed_window_estimate([5, 5], 0)
    # a whole float and a bool are not taken as window sizes
    for r in (2.0, True):
        with pytest.raises(ValueError, match="not an integer"):
            fixed_window_estimate([5, 5], r)
    assert fixed_window_estimate([5, 7], np.int64(1)).as_dict() == {7: 1.0}


def test_drift_sequence_no_drift():
    p = Pmf.uniform(range(3))
    assert drift_sequence(columnar([(3, p)])).tolist() == [0.0, 0.0, 0.0]
    assert drift_sequence(columnar([(1, p)] * 3)).tolist() == [0.0, 0.0, 0.0]


def test_drift_sequence_disjoint_pair():
    deltas = drift_sequence(columnar([(1, Pmf.point_mass(1)), (1, Pmf.point_mass(2))]))
    assert deltas.tolist() == [0.0, 1.0]


def test_drift_sequence_is_running_max():
    # middle pmf is farther from the end than the oldest one
    p3 = Pmf.from_dict({0: 0.5, 1: 0.5})
    p2 = Pmf.from_dict({0: 0.4, 1: 0.6})
    p1 = Pmf.from_dict({0: 0.45, 1: 0.55})
    deltas = drift_sequence(columnar([(1, p1), (1, p2), (1, p3)]))
    assert deltas[0] == 0.0
    assert deltas[1] == pytest.approx(0.1, abs=1e-15)
    assert deltas[2] == pytest.approx(0.1, abs=1e-15)


def runs(truth):
    """A per-step truth sequence as one-step runs, columnar."""
    return columnar([(1, p) for p in truth])


def q_of(truth, delta):
    """The selection objective of a truth sequence."""
    return q_curve(truth[-1], drift_sequence(runs(truth)), delta)


def test_drift_term_of_window_bound():
    # a dyadic window's error bound is its xi plus this entry at r = 2^j
    p = Pmf.uniform(range(4))
    assert 0.4 + drift_sequence(columnar([(8, p)]))[2**2 - 1] == pytest.approx(0.4)
    pre, post = Pmf.point_mass(0), Pmf.point_mass(1)
    assert 0.4 + drift_sequence(columnar([(4, pre), (4, post)]))[2**3 - 1] == pytest.approx(1.4)


def test_q_value_point_mass_example():
    truth = [Pmf.point_mass(1)] * 8
    expected = 0.5 + math.sqrt(math.log(UNION_C * 5 / 0.05) / 4)
    assert q_of(truth, 0.05)[4 - 1] == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(1.8399918, abs=1e-6)


def test_q_nonincreasing_for_point_mass_truth():
    truth = [Pmf.point_mass(1)] * 64
    values = q_of(truth, 0.05)
    assert np.all(np.diff(values) <= 1e-12)


def test_q_jumps_at_change_point():
    m = 4
    truth = [Pmf.point_mass(0)] * 12 + [Pmf.point_mass(1)] * m
    values = q_of(truth, 0.05)
    # the drift component steps from 0 to 1 exactly at r = m + 1; the jump in
    # the objective is that unit step minus the smooth terms' decrease
    smooth = [q_of(truth[-m:] * 4, 0.05)[r - 1] for r in (m, m + 1)]
    jump = values[m] - values[m - 1]
    assert jump == pytest.approx(1.0 + (smooth[1] - smooth[0]), abs=1e-12)
    drift = drift_sequence(runs(truth))
    assert drift[m] - drift[m - 1] == pytest.approx(1.0, abs=1e-12)


def test_q_argmin_prefers_larger_window_on_ties():
    truth = [Pmf.point_mass(1)] * 16
    q = q_of(truth, 0.05)
    best = argmin_prefer_large(q)
    assert best + 1 == 16
    assert q[best] == pytest.approx(q[16 - 1], abs=1e-15)


def test_q_curve_rejects_bad_delta():
    # rejected before any numpy arithmetic, so no RuntimeWarning either
    drift = drift_sequence(columnar([(4, Pmf.point_mass(1))]))
    for delta in (0.0, -1.0, 1.0, float("nan")):
        with warnings.catch_warnings(), pytest.raises(ValueError, match="delta"):
            warnings.simplefilter("error")
            q_curve(Pmf.point_mass(1), drift, delta)


# the golden files' scenarios and the verify families, the acceptance suite's
# simulated scenarios, a point-mass truth and a rotating truth of 8,192 runs
OBJECTIVE_SCENARIOS = GOLDEN_WALKS + [
    linear_drift(k=10, step_delta=1e-3, t=1024, seed=101), iid(k=20, t=4096, seed=8),
    abrupt(k=20, change_point=256, t=4096, seed=88), iid(k=1, t=5000, seed=0),
    rotating_support(k=8, period=1, t=8192, seed=3)]


@pytest.mark.parametrize("chunk", [1 << 15, 1000, 7])
def test_q_minimum_equals_the_argmin_of_the_whole_curve(chunk, monkeypatch):
    # blocks of 2^15 sizes (one block for every scenario here), of 1,000, and of 7
    monkeypatch.setattr(adaptive, "CHUNK_ELEMENTS", chunk)
    for scenario in OBJECTIVE_SCENARIOS:
        if chunk == 7 and scenario.t > 8192:
            continue
        truth = segments(scenario)
        for delta in (0.05, 0.3):
            q = q_curve(truth.current, drift_sequence(truth), delta)
            r = argmin_prefer_large(q) + 1
            assert q_minimum(truth, delta) == (float(q[r - 1]), r)


def test_q_minimum_takes_the_largest_of_tied_sizes_across_blocks(monkeypatch):
    # an objective whose least value is taken at every multiple of 7
    def tied(current, drift, delta, first=1):
        return np.where(np.arange(first, first + drift.size) % 7 == 0, 0.25, 1.0)

    monkeypatch.setattr(adaptive, "q_curve", tied)
    truth = segments(rotating_support(k=8, period=1, t=8192, seed=0))
    for chunk in (5, 7, 64, 1 << 15):
        monkeypatch.setattr(adaptive, "CHUNK_ELEMENTS", chunk)
        assert q_minimum(truth, 0.05) == (0.25, 8190)


def test_realized_error_curve_matches_fixed_windows():
    rng = np.random.default_rng(9)
    stream = rng.integers(0, 8, size=200)
    target = Pmf.uniform(range(8))
    curve = realized_error_curve(stream, target)
    for r in (1, 2, 3, 17, 100, 200):
        expected = tv_distance(target, fixed_window_estimate(stream, r))
        assert curve[r - 1] == pytest.approx(expected, abs=1e-12)


def test_realized_error_curve_equals_brute_force_small_target():
    # target support smaller than the stream's symbols
    rng = np.random.default_rng(10)
    for _ in range(10):
        target = random_pmf(rng, max_support=8)
        stream = rng.integers(0, 64, size=int(rng.integers(1, 300)))
        stream[-3:] = rng.choice(target.symbols, size=min(3, stream.size))
        curve = realized_error_curve(stream, target)
        assert np.all(np.abs(curve - brute_force_error_curve(stream, target)) <= 1e-12)


def test_realized_error_curve_equals_brute_force_large_target():
    # zipf target with thousands of atoms, most of them never observed
    target = segments(zipf_drift(4.0, 4.0, t=1, seed=0)).current
    rng = np.random.default_rng(11)
    for _ in range(5):
        stream = rng.integers(0, 40, size=int(rng.integers(1, 300)))
        assert np.unique(stream).size < target.support_size
        curve = realized_error_curve(stream, target)
        assert np.all(np.abs(curve - brute_force_error_curve(stream, target)) <= 1e-12)


@pytest.mark.parametrize("scenario", [
    iid(k=20, t=2048, seed=1),
    linear_drift(k=10, step_delta=1e-3, t=1024, seed=2),
    abrupt(k=10, change_point=256, t=4096, seed=3),
    rotating_support(k=8, period=1, t=8192, seed=0),
    rotating_support(k=8, period=300, t=2048, seed=4),
    geometric_drift(0.3, 0.45, t=512, seed=5),
    zipf_drift(5.0, 4.5, t=512, seed=6),
], ids=lambda s: f"{s.kind}-t{s.t}")
def test_realized_error_curve_equals_reference_on_scenarios(scenario):
    current = segments(scenario).current
    for trial in range(3):
        stream = sample_stream(scenario, trial)
        assert np.array_equal(realized_error_curve(stream, current),
                              error_curve_by_codes(stream, current))


def test_realized_error_curve_equals_reference_on_random_targets():
    # zipf target far larger than the stream's alphabet, and small random
    # targets that share only some symbols with the stream
    rng = np.random.default_rng(12)
    zipf_target = segments(zipf_drift(4.0, 4.0, t=1, seed=0)).current
    for _ in range(20):
        stream = rng.integers(0, 40, size=int(rng.integers(1, 2000)))
        for target in (zipf_target, random_pmf(rng, max_support=8)):
            assert np.array_equal(realized_error_curve(stream, target),
                                  error_curve_by_codes(stream, target))


def _oracle(stream, current):
    errs = realized_error_curve(stream, current)
    best = argmin_prefer_large(errs)
    return best + 1, float(errs[best])


def test_realized_error_curve_exact_tie_goes_to_larger_window():
    # every step draws from a fresh block of 8 symbols, so a window of
    # r <= 8 holds one sample of the target's block: error 7/8 exactly
    scenario = rotating_support(k=8, period=1, t=8192, seed=0)
    stream = sample_stream(scenario, 0)
    curve = realized_error_curve(stream, segments(scenario).current)
    assert curve[:8].tolist() == [0.875] * 8
    assert _oracle(stream, segments(scenario).current) == (8, 0.875)


def test_oracle_single_sample():
    r_best, err_best = _oracle([0], Pmf.from_dict({0: 0.5, 1: 0.5}))
    assert r_best == 1
    assert err_best == pytest.approx(0.5)


def test_oracle_prefers_larger_window_on_ties():
    r_best, err_best = _oracle([4] * 16, Pmf.point_mass(4))
    assert (r_best, err_best) == (16, 0.0)


def test_oracle_tracks_change_point():
    scenario = abrupt(k=10, change_point=256, t=4096, seed=21)
    current = Pmf.uniform(range(100, 110))
    for trial in range(3):
        stream = sample_stream(scenario, trial)
        r_best, err_best = _oracle(stream, current)
        assert 100 <= r_best <= 320
        assert err_best < 0.12


def test_oracle_iid_favors_large_windows():
    # with a 20-symbol alphabet no tiny window gets lucky, so the realized
    # minimum sits in the large-window region in nearly every trial
    scenario = iid(k=20, t=1024, seed=3)
    current = Pmf.uniform(range(20))
    rs = [_oracle(sample_stream(scenario, trial), current)[0] for trial in range(10)]
    assert sum(r >= 512 for r in rs) >= 9


def test_estimate_rejects_non_integer_samples():
    # truncation would have read these as the stream [0, 0, 1, 1]
    with pytest.raises(ValueError, match="samples must be integers"):
        adaptive_estimate(np.array([0.9, 0.9, 1.5, 1.5]), 0.05)
