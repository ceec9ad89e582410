"""Distribution arithmetic: worked examples plus randomized cross-checks."""

import ast
import io
import json
import math
import tracemalloc
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from driftest import dist
from driftest.adaptive import adaptive_estimate, fixed_window_estimate
from driftest.dist import (Pmf, _sorted_atoms, as_stream, block_phis, half_norm,
                           lambda_complexity, sorted_union, tv_distance)
from driftest.driftgen import Truth, sample_stream, segments
from driftest.harness import default_families, random_pmf
from driftest.windows import build_ladder
from reference import mean_pmf, sorted_atoms
import reference as ref


def brute_tv(p, q):
    """Independent total variation: dict arithmetic over the union support."""
    pa, qa = p.as_dict(), q.as_dict()
    support = set(pa) | set(qa)
    return 0.5 * sum(abs(pa.get(i, 0.0) - qa.get(i, 0.0)) for i in support)


def brute_lambda(p, r):
    total = 0.0
    for prob in p.as_dict().values():
        if prob >= 1.0 / r:
            total += math.sqrt(prob) / math.sqrt(r)
        else:
            total += prob
    return total


def reference_lambda(p, r):
    """Scalar complexity: masked sums over the light and the heavy atoms."""
    w = p.probs
    heavy = w >= 1.0 / r
    return float(np.sum(w[~heavy]) + np.sum(np.sqrt(w[heavy])) / math.sqrt(r))


def test_tv_identity():
    p = Pmf.from_dict({1: 0.5, 2: 0.5})
    assert tv_distance(p, p) == 0.0


def test_tv_disjoint_supports():
    assert tv_distance(Pmf.point_mass(1), Pmf.point_mass(2)) == 1.0


def test_tv_hand_example():
    p = Pmf.from_dict({1: 0.5, 2: 0.5})
    q = Pmf.from_dict({1: 0.25, 2: 0.75})
    assert tv_distance(p, q) == pytest.approx(0.25, abs=1e-15)


def test_tv_accepts_ladder_windows():
    w = build_ladder([1, 1, 2, 2])[2]
    p = Pmf.from_dict({1: 0.5, 2: 0.5})
    assert tv_distance(w, p) == 0.0
    assert tv_distance(w, Pmf.point_mass(1)) == pytest.approx(0.5)


def test_tv_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(300):
        p, q = random_pmf(rng), random_pmf(rng)
        assert tv_distance(p, q) == pytest.approx(brute_tv(p, q), abs=1e-13)


def test_lambda_point_mass():
    assert lambda_complexity(Pmf.point_mass(1), 4) == pytest.approx(0.5, abs=1e-15)


def test_lambda_uniform_heavy_side():
    # all atoms at 0.25 >= 1/16, so the value equals sqrt(k/r) = sqrt(4/16)
    assert lambda_complexity(Pmf.uniform(range(4)), 16) == pytest.approx(0.5, abs=1e-15)


def test_lambda_uniform_light_side():
    # all atoms at 0.25 < 1/2 fall on the linear side, summing to 1
    assert lambda_complexity(Pmf.uniform(range(4)), 2) == pytest.approx(1.0, abs=1e-15)


def test_lambda_threshold_tie_goes_to_root_branch():
    # at mass exactly 1/r both branches agree, so the tie is value-neutral;
    # pin the branch by comparing against the explicit rule
    p = Pmf.from_dict({0: 0.25, 1: 0.75})
    assert lambda_complexity(p, 4) == pytest.approx(
        math.sqrt(0.25) / 2 + math.sqrt(0.75) / 2, abs=1e-15)


def test_lambda_matches_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(300):
        p = random_pmf(rng)
        r = int(rng.integers(1, 2**16 + 1))
        assert lambda_complexity(p, r) == pytest.approx(brute_lambda(p, r), abs=1e-13)


def test_lambda_matches_reference_on_pmfs_and_windows():
    rng = np.random.default_rng(12)
    for _ in range(300):
        if rng.random() < 0.5:
            p = random_pmf(rng)
        else:
            p = ref.window(
                rng.integers(0, 30, size=int(rng.integers(1, 400))))
        rs = rng.integers(1, 2**16 + 1, size=8)
        curve = lambda_complexity(p, rs)
        assert curve.shape == rs.shape
        for r, value in zip(rs, curve):
            want = reference_lambda(p, int(r))
            assert lambda_complexity(p, int(r)) == pytest.approx(want, abs=1e-12)
            assert value == pytest.approx(want, abs=1e-12)


def test_lambda_at_threshold_budget_matches_reference():
    # 1/r equal to an atom's mass, for a pmf and for a window's frequency
    cases = [(Pmf.uniform(range(4)), 4), (Pmf.from_dict({0: 0.25, 1: 0.75}), 4),
             (Pmf.from_dict({0: 0.5, 3: 0.375, 9: 0.125}), 8),
             (ref.window([1, 1, 2, 3, 3, 3, 3, 3]), 4),
             (ref.window([5] * 3 + [6]), 4)]
    for p, r in cases:
        assert np.any(p.probs == 1.0 / r)
        want = reference_lambda(p, r)
        assert lambda_complexity(p, r) == pytest.approx(want, abs=1e-12)
        assert lambda_complexity(p, np.array([r]))[0] == pytest.approx(want, abs=1e-12)
        assert lambda_complexity(p, np.array([1, r, 2 * r]))[1] == pytest.approx(
            want, abs=1e-12)


def test_lambda_array_budget_matches_pointwise():
    rng = np.random.default_rng(8)
    p = Pmf.from_dict({0: 0.5, 3: 0.3, 9: 0.15, 20: 0.05 - 1e-5, 21: 1e-5})
    rs = np.concatenate([np.arange(1, 50), rng.integers(50, 10**5, size=30)])
    curve = lambda_complexity(p, rs)
    for r, value in zip(rs, curve):
        assert value == pytest.approx(reference_lambda(p, int(r)), abs=1e-13)
        # one arithmetic for both forms of the budget
        assert value == lambda_complexity(p, int(r))


def test_lambda_always_at_most_one():
    rng = np.random.default_rng(2)
    for _ in range(200):
        p = random_pmf(rng)
        assert lambda_complexity(p, int(rng.integers(1, 1000))) <= 1.0 + 1e-12


def test_lambda_rejects_bad_budget():
    with pytest.raises(ValueError):
        lambda_complexity(Pmf.point_mass(0), 0)
    with pytest.raises(ValueError):
        lambda_complexity(Pmf.point_mass(0), np.array([4, 0]))


@pytest.mark.parametrize("lo, k", [(0, 1), (0, 4), (100, 99), (7, 1000)])
def test_uniform_equals_the_arange_pmf(lo, k):
    want = Pmf(np.arange(lo, lo + k), np.full(k, 1.0 / k))
    for symbols in (range(lo, lo + k), range(lo + k - 1, lo - 1, -1),
                    list(range(lo + k - 1, lo - 1, -1)) * 2, set(range(lo, lo + k))):
        got = Pmf.uniform(symbols)
        assert np.array_equal(got.symbols, want.symbols)
        assert np.array_equal(got.probs, want.probs)


def test_uniform_over_two_million_symbols_keeps_memory_low():
    k = 2_000_000
    tracemalloc.start()
    try:
        pmf = Pmf.uniform(range(k))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pmf.support_size == k
    # the kept symbols and probs take 32 MB; a Python int per symbol took 140 MB
    assert peak < 96 * 2**20


def test_half_norm_point_mass():
    assert half_norm(Pmf.point_mass(3)) == 1.0


def test_half_norm_uniform():
    for k in (2, 5, 16):
        assert half_norm(Pmf.uniform(range(k))) == pytest.approx(k, abs=1e-12)


def test_half_norm_two_atoms():
    expected = (math.sqrt(0.25) + math.sqrt(0.75)) ** 2
    assert half_norm(Pmf.from_dict({1: 0.25, 2: 0.75})) == pytest.approx(
        expected, abs=1e-15)
    assert expected == pytest.approx(1.8660254037844386, abs=1e-12)


def test_ladder_windows_are_read_only_counts_over_size():
    rng = np.random.default_rng(12)
    for stream in (rng.integers(0, 9, size=300), rng.integers(0, 1000, size=333), [7]):
        result = adaptive_estimate(stream, 0.05)
        for j, (w, suffix) in enumerate(zip(build_ladder(stream), ref.suffixes(stream))):
            symbols, counts = ref.window_counts(suffix)
            assert w.symbols.dtype == np.int64 and np.array_equal(w.symbols, symbols)
            assert w.probs.dtype == np.float64 and np.array_equal(w.probs, counts / 2**j)
            assert not w.symbols.flags.writeable and not w.probs.flags.writeable
        for array in (result.estimate.symbols, result.estimate.probs):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0


def phi_of(samples):
    """The library's phi of the window of some samples: ``block_phis`` of one row."""
    w = ref.window(samples)
    return float(block_phis(w.probs, np.array([0, w.probs.size]), len(samples))[0])


def test_phi_single_symbol():
    assert phi_of([5] * 4) == pytest.approx(0.5)


def test_phi_mixed_counts():
    assert phi_of([0, 0, 1, 2]) == pytest.approx((math.sqrt(0.5) + 0.5 + 0.5) / 2, abs=1e-15)


def test_phi_all_distinct():
    assert phi_of([0, 1, 2, 3]) == pytest.approx(1.0, abs=1e-15)


def test_phi_equals_root_half_norm_over_r():
    rng = np.random.default_rng(3)
    for _ in range(200):
        r = int(rng.integers(1, 512))
        samples = rng.integers(0, 40, size=r)
        assert phi_of(samples) == pytest.approx(
            math.sqrt(half_norm(ref.window(samples)) / r), abs=1e-12)


def test_phi_equals_the_reference_sum_bit_for_bit():
    # supports across numpy's pairwise-sum regimes: under 8, 8-128, over 128
    rng = np.random.default_rng(4)
    for k in (3, 8, 100, 129, 3000):
        for r in (1, 64, 1000, 4096):
            samples = rng.integers(0, k, size=r)
            assert phi_of(samples) == ref.phi(samples)


def test_mean_of_identical_is_identity():
    p = Pmf.from_dict({1: 0.5, 2: 0.5})
    assert mean_pmf([p, p, p]).as_dict() == p.as_dict()


def test_mean_symmetry():
    m = mean_pmf([Pmf.point_mass(1), Pmf.point_mass(2)])
    assert m.as_dict() == {1: 0.5, 2: 0.5}


def test_mean_hand_example():
    m = mean_pmf([Pmf.from_dict({1: 0.5, 2: 0.5}), Pmf.point_mass(1)])
    assert m.as_dict() == {1: 0.75, 2: 0.25}


def test_mean_rejects_empty():
    with pytest.raises(ValueError):
        mean_pmf([])


def test_pmf_validation():
    with pytest.raises(ValueError):
        Pmf.from_dict({0: 0.5, 1: 0.6})
    with pytest.raises(ValueError):
        Pmf.from_dict({0: -0.1, 1: 1.1})
    with pytest.raises(ValueError):
        Pmf.from_dict({-1: 1.0})
    with pytest.raises(ValueError):
        Pmf(np.array([0, 0]), np.array([0.5, 0.5]))


def test_pmf_drops_zero_atoms():
    p = Pmf(np.array([0, 1, 2]), np.array([0.5, 0.0, 0.5]))
    assert p.as_dict() == {0: 0.5, 2: 0.5}


def test_pmf_prob_lookup():
    p = Pmf.from_dict({2: 0.25, 9: 0.75})
    assert p.prob(2) == 0.25
    assert p.prob(3) == 0.0
    assert p.prob(9) == 0.75


def test_pmf_json_round_trip_sorted():
    p = Pmf.from_dict({9: 0.25, 2: 0.75})
    obj = p.to_json_obj()
    assert [a["symbol"] for a in obj["atoms"]] == [2, 9]
    atoms = json.loads(json.dumps(obj))["atoms"]
    again = Pmf([a["symbol"] for a in atoms], [a["prob"] for a in atoms])
    assert again.as_dict() == p.as_dict()
    assert again.to_json_obj() == obj


@pytest.mark.parametrize("chunk", [1, 2, 3, 1 << 15])
def test_pmf_write_json_equals_json_dumps(monkeypatch, chunk):
    monkeypatch.setattr(dist, "CHUNK_ELEMENTS", chunk)
    for p in (Pmf.point_mass(0), Pmf.from_dict({9: 0.25, 2: 0.75}),
              ref.window(np.random.default_rng(5).integers(0, 50, 999)),
              random_pmf(np.random.default_rng(6))):
        fh = io.StringIO()
        p.write_json(fh)
        assert fh.getvalue() == json.dumps(p.to_json_obj())


@pytest.mark.parametrize("take", [as_stream, build_ladder,
                                  lambda samples: fixed_window_estimate(samples, 1)],
                         ids=["as_stream", "build_ladder", "fixed_window_estimate"])
def test_sample_validation(take):
    with pytest.raises(ValueError, match="empty sample stream"):
        take([])
    with pytest.raises(ValueError, match="samples must be nonnegative"):
        take([4, -1])
    # a 2-D array is refused, not flattened into one window
    with pytest.raises(ValueError, match="one-dimensional"):
        take(np.array([[4, 4], [7, 7]]))


def test_arrays_are_read_only():
    p = Pmf.from_dict({0: 1.0})
    with pytest.raises(ValueError):
        p.probs[0] = 0.5


def _sorted_support(rng, high, size):
    return np.sort(rng.choice(high, size=size, replace=False)).astype(np.int64)


def test_sorted_union_matches_union1d():
    rng = np.random.default_rng(6)
    pairs = [(_sorted_support(rng, 200, rng.integers(1, 60)),
              _sorted_support(rng, 200, rng.integers(1, 60))) for _ in range(40)]
    evens, odds = np.arange(0, 40, 2), np.arange(1, 41, 2)
    pairs += [
        (evens, odds),                         # disjoint, interleaved
        (np.arange(5), np.arange(10, 15)),     # disjoint, one after the other
        (evens, evens.copy()),                 # identical
        (np.arange(100), np.arange(20, 30)),   # nested
        (np.array([7]), np.array([7])),        # single atoms, equal
        (np.array([9]), np.array([3])),        # single atoms, distinct
    ]
    for a, b in pairs:
        got = sorted_union(a, b)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.union1d(a, b))
    parts = [_sorted_support(rng, 1000, size) for size in (1, 3, 40, 300, 300)]
    got = sorted_union(*parts)
    assert got.dtype == np.int64
    assert np.array_equal(got, reduce(np.union1d, parts))


@pytest.mark.parametrize("symbols, probs", [
    ([1, 4, 9], [0.2, 0.3, 0.5]),
    ([9, 1, 4], [0.5, 0.2, 0.3]),
    ([0, 3, 5, 8], [0.5, 0.0, 0.5, 0.0]),
    ([8, 0, 5, 3], [0.0, 0.5, 0.5, -0.0]),
], ids=["sorted", "unsorted", "zero_mass", "unsorted_zero_mass"])
def test_sorted_atoms_matches_reference(symbols, probs):
    syms_in = np.array(symbols, dtype=np.int64)
    w_in = np.array(probs, dtype=np.float64)
    got = _sorted_atoms(syms_in, w_in)
    want = sorted_atoms(syms_in.copy(), w_in.copy())
    for out, ref, caller in zip(got, want, (syms_in, w_in)):
        assert out.dtype == ref.dtype and np.array_equal(out, ref)
        assert not out.flags.writeable
        assert not np.shares_memory(out, caller)
        assert caller.flags.writeable


@pytest.mark.parametrize("symbols, probs", [
    ([], []),
    ([1, 2], [1.0]),
    ([[1, 2]], [[0.5, 0.5]]),
    ([-1, 2], [0.5, 0.5]),
    ([3, -1, 3], [0.2, 0.3, 0.5]),
    ([-1, -1], [0.5, 0.5]),
    ([1, 1, 2], [0.2, 0.3, 0.5]),
    ([2, 1, 2], [0.2, 0.3, 0.5]),
    ([1, 1], [math.nan, 1.0]),
    ([1, 2], [math.nan, 1.0]),
    ([2, 1], [math.inf, 0.0]),
    ([1, 2, 3], [math.nan, -0.5, 0.0]),
    ([1, 2], [-0.1, 1.1]),
    ([1, 2], [-0.1, 0.0]),
    ([1, 2], [0.0, -0.0]),
], ids=["empty", "shape_mismatch", "two_d", "negative", "negative_unsorted_duplicate",
        "negative_sorted_duplicate", "duplicate_sorted", "duplicate_unsorted",
        "duplicate_before_nan", "nan", "inf", "nan_before_negative_prob",
        "negative_prob", "negative_prob_before_all_zero", "all_zero"])
def test_sorted_atoms_rejects_like_reference(symbols, probs):
    with pytest.raises(ValueError) as want:
        sorted_atoms(symbols, probs)
    with pytest.raises(ValueError) as got:
        _sorted_atoms(symbols, probs)
    assert str(got.value) == str(want.value)


def test_src_takes_no_hashing_unique():
    # numpy >= 2.3 runs np.union1d and np.unique without a return_* argument
    # through a hash table, several times slower than sorted_union on large
    # supports
    offenders = []
    for path in sorted(Path(dist.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "union1d":
                offenders.append(f"{path.name}:{node.lineno}: union1d")
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "unique"
                    and not any((k.arg or "").startswith("return_") for k in node.keywords)):
                offenders.append(f"{path.name}:{node.lineno}: unique")
    assert offenders == []


NON_INTEGER_SYMBOLS = {
    "float": [0.5, 1.5],
    "whole_float": [0.0, 1.0],
    "bool": [False, True],
    "numeric_string": ["0", "1"],
    "beyond_int64": [0, 2**70],
    "uint64_beyond_int64": np.array([0, 2**63], dtype=np.uint64),
}


@pytest.mark.parametrize("name", sorted(NON_INTEGER_SYMBOLS))
def test_non_integer_symbols_are_rejected_not_truncated(name):
    symbols = NON_INTEGER_SYMBOLS[name]
    with pytest.raises(ValueError, match="must be integers within the int64 range"):
        Pmf(symbols, [0.5, 0.5])
    with pytest.raises(ValueError, match="must be integers within the int64 range"):
        build_ladder(symbols)


def test_non_integer_constructor_symbols_are_rejected():
    with pytest.raises(ValueError, match="symbols must be integers"):
        Pmf.from_dict({0.5: 1.0})
    with pytest.raises(ValueError, match="symbols must be integers"):
        Pmf.point_mass(0.5)
    with pytest.raises(ValueError, match="symbols must be integers"):
        Pmf.uniform([0.5, 1.5])


def test_integer_symbols_of_any_width_are_accepted():
    for dtype in (np.int8, np.int32, np.uint16, np.uint64):
        p = Pmf(np.array([3, 1], dtype=dtype), [0.25, 0.75])
        assert p.symbols.dtype == np.int64
        assert p.as_dict() == {1: 0.75, 3: 0.25}


# --- row blocks: a truth's rows on runs of consecutive symbols -----------------


def _truth(starts, probs):
    """A ``Truth`` of one step per row of the 2-D ``probs``."""
    rows = len(starts)
    return Truth(np.ones(rows), np.arange(rows), starts, np.full(rows, probs.shape[1]),
                 probs.ravel())


@pytest.mark.parametrize("probs, message", [
    ([[0.5, math.nan]], "probabilities must be finite"),
    ([[1.5, -0.5]], "probabilities must be nonnegative"),
    ([[0.5, 0.5], [1.0, 0.0]], "a block row has a zero atom"),
    ([[0.5, 0.5], [0.5, 0.4]], "pmf mass is 0.9"),
], ids=["nan", "negative", "zero_atom", "mass"])
def test_range_block_checks_rows_as_pmf_does(probs, message):
    probs = np.asarray(probs, dtype=np.float64)
    with pytest.raises(ValueError, match=message):
        _truth(np.zeros(probs.shape[0], dtype=np.int64), probs)
    if message != "a block row has a zero atom":
        # a Pmf of the offending row raises the same error
        row = probs[-1]
        with pytest.raises(ValueError, match=message):
            Pmf(np.arange(row.size), row)


def test_range_block_rejects_negative_starts_and_freezes_its_arrays():
    with pytest.raises(ValueError, match="symbols must be nonnegative"):
        _truth(np.array([-1]), np.ones((1, 1)))
    truth = _truth(np.array([3, 9]), np.array([[0.25, 0.75], [0.5, 0.5]]))
    for starts, probs in truth.blocks:
        assert not starts.flags.writeable and not probs.flags.writeable


def _on_runs(starts, widths, probs):
    """A block of rows on the consecutive symbols from ``starts``, each ``widths`` wide."""
    bounds = np.concatenate(([0], np.cumsum(widths)))
    return np.repeat(starts - bounds[:-1], widths) + np.arange(bounds[-1]), probs, bounds


def test_block_tvs_of_rows_on_consecutive_symbols_equal_tv_distance_bit_for_bit():
    # rows below, overlapping, nested in, adjacent to, and above q
    rng = np.random.default_rng(21)
    for width, q_width in ((1, 1), (3, 5), (8, 8), (20, 4), (130, 70)):
        q_lo = 200
        q = Pmf(np.arange(q_lo, q_lo + q_width), rng.dirichlet(np.ones(q_width)))
        starts = np.arange(q_lo - width - 3, q_lo + q_width + 4)
        probs = rng.dirichlet(np.ones(width), size=starts.size)
        got = dist.block_tvs([_on_runs(starts, np.full(starts.size, width), probs.ravel())], [q])
        want = [tv_distance(q, Pmf(start + np.arange(width), row))
                for start, row in zip(starts, probs)]
        assert got.tolist() == want


def test_block_tvs_sum_rows_of_any_width_against_one_q():
    # rows nested in q, apart from it and across its ends, of many widths
    rng = np.random.default_rng(25)
    q = Pmf(np.arange(10, 60), rng.dirichlet(np.ones(50)))
    widths = np.array([1, 7, 50, 8, 33, 3, 12, 12, 2, 40])
    starts = np.array([10, 10, 10, 12, 20, 0, 70, 80, 58, 15])
    probs = np.concatenate([rng.dirichlet(np.ones(n)) for n in widths])
    offsets = np.concatenate(([0], np.cumsum(widths)))
    want = [tv_distance(q, Pmf(start + np.arange(n), probs[a:b]))
            for start, n, a, b in zip(starts, widths, offsets[:-1], offsets[1:])]
    assert dist.block_tvs([_on_runs(starts, widths, probs)], [q]).tolist() == want
    for chunk in (1, 60, 150):  # a row per chunk, and chunks of several rows
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dist, "CHUNK_ELEMENTS", chunk)
            assert dist.block_tvs([_on_runs(starts, widths, probs)], [q]).tolist() == want


def test_row_sums_equal_each_row_summed_alone():
    rng = np.random.default_rng(26)
    for lengths in ([1], [5, 5, 5], [3, 300, 1, 8, 129, 300, 7, 3], [2000] * 4 + [9]):
        bounds = np.concatenate(([0], np.cumsum(lengths)))
        values = rng.random(bounds[-1]) ** 3
        assert dist.row_sums(values, bounds).tolist() == [
            float(values[a:b].sum()) for a, b in zip(bounds[:-1], bounds[1:])]


def _block_of(windows):
    """The atoms of windows laid back to back, as a block ladder lays one window size."""
    bounds = np.concatenate(([0], np.cumsum([w.symbols.size for w in windows])))
    return (np.concatenate([w.symbols for w in windows]),
            np.concatenate([w.probs for w in windows]), bounds)


@pytest.mark.parametrize("chunk", [1, 64, 1 << 15])
def test_block_tvs_equal_tv_distance_bit_for_bit(chunk, monkeypatch):
    # the windows of verify's scenarios against their averages and the current pmf
    monkeypatch.setattr(dist, "CHUNK_ELEMENTS", chunk)
    for scenario in default_families(1):
        truth = segments(scenario)
        ladders = [build_ladder(sample_stream(scenario, trial)) for trial in range(5)]
        blocks, want_average, want_current = [], [], []
        for j, average in enumerate(truth.window_averages):
            rows = [ladder[j] for ladder in ladders]
            block = _block_of(rows)
            assert dist.block_tvs([block], [average]).tolist() == [
                tv_distance(w, average) for w in rows]
            assert dist.block_tvs([block], [truth.current]).tolist() == [
                tv_distance(truth.current, w) for w in rows]
            assert dist.block_tvs([_block_of(rows[:1])], [truth.current]).tolist() == [
                tv_distance(truth.current, rows[0])]
            blocks.append(block)
            want_average += [tv_distance(w, average) for w in rows]
            want_current += [tv_distance(truth.current, w) for w in rows]
        # every size at once, each block against its own pmf
        assert dist.block_tvs(blocks, truth.window_averages).tolist() == want_average
        assert dist.block_tvs(blocks, [truth.current] * len(blocks)).tolist() == want_current


def test_block_tvs_chunk_rows_of_several_blocks_together(monkeypatch):
    # blocks against equal pmfs, and against others, share chunks: each
    # chunk's rows are summed at once, whatever block they come from
    rng = np.random.default_rng(28)
    q = _pmf_on(np.arange(0, 30, 3), rng)
    qs = [q, Pmf(q.symbols.copy(), q.probs.copy()), _pmf_on([3, 6, 9], rng), q]
    rows = [[_pmf_on(rng.choice(p.symbols, 2), rng) for _ in range(3)] for p in qs]
    calls = _chunked(monkeypatch)
    got = dist.block_tvs([_block_of(block) for block in rows], qs)
    assert got.tolist() == [ref.tv_union(p, q) for block, q in zip(rows, qs) for p in block]
    assert calls == [[[10] * 6 + [3] * 3 + [10] * 3]]


def test_block_tvs_give_a_row_with_symbols_q_lacks_the_union_bits():
    rows = [ref.window([1, 2]), ref.window([2, 9]), ref.window([0, 0, 4]), ref.window([7])]
    for q in (Pmf.uniform(range(1, 4)), Pmf.from_dict({1: 0.25, 3: 0.75})):
        assert dist.block_tvs([_block_of(rows)], [q]).tolist() == [
            ref.tv_union(p, q) for p in rows]


@pytest.mark.parametrize("row, q", [
    (Pmf.point_mass(0), Pmf.from_dict({0: 0.5, 2: 0.5})),
    (Pmf.from_dict({0: 0.5, 2: 0.5}), Pmf.point_mass(1)),
], ids=["q-apart-from-a-run", "row-apart-from-a-run"])
def test_block_tvs_need_no_run_of_consecutive_symbols(row, q):
    assert dist.block_tvs([_block_of([row])], [q]).tolist() == [ref.tv_union(row, q)]


def _run_tv_cases(rng, lo, width):
    """Supports below, inside, above and straddling [lo, lo + width), and apart from it."""
    hi = lo + width
    return {
        "below": rng.choice(lo, size=min(lo, 12), replace=False),
        "inside": lo + rng.choice(width, size=max(1, width // 2), replace=False),
        "above": hi + rng.choice(40, size=9, replace=False),
        "straddling": np.concatenate([[lo - 1, lo, hi - 1, hi], lo + np.arange(0, width, 3)]),
        "around": np.concatenate([[0, lo - 2], hi + np.arange(1, 300, 7)]),
        "one symbol inside": [lo + width // 2],
    }


@pytest.mark.parametrize("width", [1, 7, 60, 300])
def test_block_tvs_against_a_run_equal_tv_distance_bit_for_bit(width):
    # widths across numpy's pairwise-sum regimes (under 8, 8-128, over 128);
    # each pair both ways, the run as the row and as q
    rng = np.random.default_rng(31 + width)
    lo = 100
    run = Pmf(lo + np.arange(width), rng.dirichlet(np.ones(width)))
    for name, symbols in _run_tv_cases(rng, lo, width).items():
        symbols = np.unique(symbols)
        q = Pmf(symbols, rng.dirichlet(np.ones(symbols.size)))
        window = ref.window(rng.choice(symbols, size=50))
        for other in (q, window):
            want = tv_distance(run, other)
            assert want == tv_distance(other, run), name
            assert dist.block_tvs([_block_of([other])], [run]).tolist() == [want], name
            assert dist.block_tvs([_block_of([run])], [other]).tolist() == [want], name


def test_block_tvs_of_the_current_pmf_on_the_verify_ladders():
    # the current pmf against every window of verify's ladders at 50 trials,
    # and against every window average
    for scenario in default_families(0):
        truth = segments(scenario)
        for trial in range(50):
            ladder = build_ladder(sample_stream(scenario, trial))
            assert dist.block_tvs([_block_of(ladder)], [truth.current]).tolist() == [
                tv_distance(truth.current, window) for window in ladder]
        averages = truth.window_averages
        assert dist.block_tvs([_block_of([average]) for average in averages],
                              [truth.current] * len(averages)).tolist() == [
            tv_distance(average, truth.current) for average in averages]


# --- every row on its union with its q, against the union reference ----------


def _pmf_on(symbols, rng):
    symbols = np.unique(np.asarray(symbols, dtype=np.int64))
    return Pmf(symbols, rng.dirichlet(np.ones(symbols.size)))


def _chunked(monkeypatch):
    """Each ``block_tvs`` call's chunks, each the widths of its rows' layouts.

    A chunk's rows are summed by one ``row_sums`` call.
    """
    calls = []
    block_tvs, row_sums = dist.block_tvs, dist.row_sums
    monkeypatch.setattr(dist, "block_tvs", lambda *args: (calls.append([]), block_tvs(*args))[1])
    monkeypatch.setattr(dist, "row_sums", lambda values, bounds: (
        calls[-1].append(np.diff(bounds).tolist()), row_sums(values, bounds))[1])
    return calls


def _crosses_a_chunk_edge(calls):
    """Whether some call cut its rows into chunks of several rows, the last one short.

    A chunk of several rows never spans more than ``CHUNK_ELEMENTS`` places.
    """
    for chunks in calls:
        assert all(len(widths) == 1 or sum(widths) <= dist.CHUNK_ELEMENTS for widths in chunks)
        rows = [len(widths) for widths in chunks]
        if len(rows) > 1 and max(rows) > 1 and rows[-1] < max(rows):
            return True
    return False


# rows per block on both sides of a chunk edge when a chunk holds three rows
ROW_COUNTS = (1, 2, 3, 4, 7)


@pytest.mark.parametrize("chunk_rows", [None, 3])
def test_rows_within_q_and_the_union_equal_the_union_reference(chunk_rows, monkeypatch):
    rng = np.random.default_rng(41)
    q = _pmf_on(np.arange(10, 60, 2), rng)
    calls = _chunked(monkeypatch)
    if chunk_rows:
        # a chunk holds each row's atoms and q's: about 3 of the first rows
        monkeypatch.setattr(dist, "CHUNK_ELEMENTS", chunk_rows * (q.symbols.size + 8))
    # one atom, every atom, and rows of unequal length, all among q's symbols
    rows = [_pmf_on([10], rng), _pmf_on(q.symbols, rng), _pmf_on([58, 12], rng),
            _pmf_on(rng.choice(q.symbols, 9), rng), _pmf_on(q.symbols[::3], rng),
            ref.window(rng.choice(q.symbols, 40)), _pmf_on(q.symbols[-4:], rng)]
    for n in ROW_COUNTS:
        want = [ref.tv_union(p, q) for p in rows[:n]]
        assert dist.block_tvs([_block_of(rows[:n])], [q]).tolist() == want
    if chunk_rows:
        assert _crosses_a_chunk_edge(calls)
    # the union itself: disjoint, nested, interleaved and equal supports
    for p in rows + [_pmf_on([0, 1], rng), _pmf_on([99, 200], rng), _pmf_on([11, 13, 61], rng),
                     _pmf_on(np.arange(0, 100, 3), rng), q]:
        assert tv_distance(p, q) == ref.tv_union(p, q)
        assert tv_distance(q, p) == ref.tv_union(q, p)


@pytest.mark.parametrize("chunk_rows", [None, 3])
def test_rows_against_a_run_equal_the_union_reference(chunk_rows, monkeypatch):
    rng = np.random.default_rng(42)
    run = _pmf_on(np.arange(40, 52), rng)
    # rows below the run, above it, past either end, inside it and around it
    rows = [_pmf_on([3, 17, 39], rng), _pmf_on([52, 60, 90], rng), _pmf_on([38, 39, 40, 45], rng),
            _pmf_on([50, 51, 52, 53], rng), _pmf_on([44], rng), _pmf_on([0, 41, 70], rng),
            _pmf_on(np.arange(30, 65), rng)]
    calls = _chunked(monkeypatch)
    if chunk_rows:
        # a chunk holds each row's atoms and the run's, the first five 13-16
        monkeypatch.setattr(dist, "CHUNK_ELEMENTS", chunk_rows * 15)
    for n in ROW_COUNTS:
        want = [ref.tv_union(run, p) for p in rows[:n]]
        assert dist.block_tvs([_block_of(rows[:n])], [run]).tolist() == want
        assert [float(dist.block_tvs([_block_of([p])], [run])[0]) for p in rows[:n]] == want
    if chunk_rows:
        assert _crosses_a_chunk_edge(calls)


@pytest.mark.parametrize("chunk_rows", [None, 3])
def test_rows_on_consecutive_symbols_equal_the_union_reference(chunk_rows, monkeypatch):
    rng = np.random.default_rng(43)
    q = _pmf_on(np.arange(100, 110), rng)
    # (start, width): far below, adjacent below, past the lower end, inside,
    # equal, covering, past the upper end, adjacent above, far above
    spans = [(3, 4), (96, 4), (97, 6), (102, 3), (100, 10), (95, 20), (107, 8), (110, 2),
             (400, 5)]
    starts, widths = (np.array(column) for column in zip(*spans))
    pmfs = [Pmf(s + np.arange(w), rng.dirichlet(np.ones(w))) for s, w in spans]
    calls = _chunked(monkeypatch)
    if chunk_rows:
        # a chunk holds each row's atoms and q's, 12 to 30
        monkeypatch.setattr(dist, "CHUNK_ELEMENTS", chunk_rows * 20)
    for order in (np.arange(len(spans)), rng.permutation(len(spans))):
        for n in ROW_COUNTS + (len(spans),):
            rows = order[:n]
            got = dist.block_tvs([_on_runs(starts[rows], widths[rows],
                                           np.concatenate([pmfs[i].probs for i in rows]))], [q])
            assert got.tolist() == [ref.tv_union(q, pmfs[i]) for i in rows]
    # each row lies on its sorted union with q
    unions = [sorted_union(p.symbols, q.symbols).size for p in pmfs]
    assert [width for chunk in calls[len(ROW_COUNTS)] for width in chunk] == unions
    if chunk_rows:
        assert _crosses_a_chunk_edge(calls)


@pytest.mark.parametrize("chunk", [1, 7, 64, 1 << 15])
def test_block_tvs_equal_the_union_reference_on_every_case(chunk, monkeypatch):
    # rows disjoint from q, nested in it, interleaved with it, past either
    # end and equal to it; q on consecutive symbols and not; several qs a
    # call, some of them equal, so that chunks hold rows of several blocks
    monkeypatch.setattr(dist, "CHUNK_ELEMENTS", chunk)
    rng = np.random.default_rng(45)
    cases = {
        "disjoint": lambda q: _pmf_on(q.symbols[-1] + 1 + rng.choice(40, 3), rng),
        "nested": lambda q: _pmf_on(rng.choice(q.symbols, max(1, q.symbols.size // 2)), rng),
        "interleaved": lambda q: _pmf_on(np.concatenate([q.symbols[::2] + 1,
                                                         q.symbols[1::3]]), rng),
        "past the low end": lambda q: _pmf_on(q.symbols[:3] - 3, rng),
        "past the high end": lambda q: _pmf_on(q.symbols[-3:] + 3, rng),
        "equal": lambda q: Pmf(q.symbols.copy(), q.probs.copy()),
        "window": lambda q: ref.window(rng.choice(np.arange(q.symbols[-1] + 5), 30)),
    }
    for _ in range(40):
        qs = []
        for _ in range(int(rng.integers(1, 5))):
            if qs and rng.random() < 0.3:
                qs.append(qs[-1])
                continue
            lo, m = int(rng.integers(3, 40)), int(rng.integers(1, 30))
            run = rng.random() < 0.5
            qs.append(_pmf_on(lo + (np.arange(m) if run else rng.choice(80, m)), rng))
        rows = [[cases[name](q) for name in rng.choice(list(cases), int(rng.integers(1, 6)))]
                for q in qs]
        want = [ref.tv_union(p, q) for block, q in zip(rows, qs) for p in block]
        assert dist.block_tvs([_block_of(block) for block in rows], qs).tolist() == want


def test_scalar_lambda_equals_the_array_path_and_the_reference():
    rng = np.random.default_rng(44)
    for _ in range(300):
        p = random_pmf(rng, max_support=int(rng.integers(1, 200)))
        # r = 1 puts every atom of a pmf without a point mass below 1/r, and
        # 2 / min(p) puts none there
        budgets = [1, 2, 7, 64, 1000, 2 / float(p.probs.min()), float(rng.uniform(1, 10**6))]
        array = lambda_complexity(p, np.array(budgets))
        for r, from_array in zip(budgets, array.tolist()):
            got = lambda_complexity(p, r)
            assert isinstance(got, float)
            assert got == from_array == ref.lambda_complexity(p, r)
