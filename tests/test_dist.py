"""Distribution arithmetic: worked examples plus randomized cross-checks."""

import json
import math

import numpy as np
import pytest

from driftest.dist import (EmpiricalWindow, Pmf, half_norm, lambda_complexity,
                           mean_pmf, phi_empirical, tv_distance)
from driftest.harness import random_pmf
from driftest.windows import build_ladder


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


def test_tv_accepts_windows():
    w = EmpiricalWindow.from_samples([1, 1, 2, 2])
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
            p = EmpiricalWindow.from_samples(
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
             (EmpiricalWindow.from_samples([1, 1, 2, 3, 3, 3, 3, 3]), 4),
             (EmpiricalWindow.from_samples([5] * 3 + [6]), 4)]
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


def test_window_probs_are_counts_over_size():
    rng = np.random.default_rng(12)
    windows = [EmpiricalWindow.from_samples(rng.integers(0, k, size=n))
               for k, n in ((1, 1), (3, 7), (40, 500), (1000, 333))]
    windows += build_ladder(rng.integers(0, 9, size=300))
    for w in windows:
        assert w.probs.dtype == np.float64
        assert np.array_equal(w.probs, w.counts / w.size)
        assert not w.probs.flags.writeable
        assert np.array_equal(w.to_pmf().probs, w.probs)


def test_phi_single_symbol():
    assert phi_empirical(EmpiricalWindow.from_samples([5] * 4)) == pytest.approx(0.5)


def test_phi_mixed_counts():
    w = EmpiricalWindow.from_samples([0, 0, 1, 2])
    assert phi_empirical(w) == pytest.approx((math.sqrt(0.5) + 0.5 + 0.5) / 2, abs=1e-15)


def test_phi_all_distinct():
    w = EmpiricalWindow.from_samples([0, 1, 2, 3])
    assert phi_empirical(w) == pytest.approx(1.0, abs=1e-15)


def test_phi_equals_root_half_norm_over_r():
    rng = np.random.default_rng(3)
    for _ in range(200):
        r = int(rng.integers(1, 512))
        samples = rng.integers(0, 40, size=r)
        w = EmpiricalWindow.from_samples(samples)
        assert phi_empirical(w) == pytest.approx(
            math.sqrt(half_norm(w) / r), abs=1e-12)


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
    again = Pmf.from_json(p.to_json())
    assert again.as_dict() == p.as_dict()
    assert json.loads(p.to_json()) == obj


def test_window_validation():
    with pytest.raises(ValueError):
        EmpiricalWindow(np.array([1]), np.array([2]), 3)
    with pytest.raises(ValueError):
        EmpiricalWindow.from_samples([])
    w = EmpiricalWindow.from_samples([4, 4, 7])
    assert w.size == 3
    assert list(w.counts) == [2, 1]
    assert w.to_pmf().as_dict() == {4: 2 / 3, 7: 1 / 3}


def test_arrays_are_read_only():
    p = Pmf.from_dict({0: 1.0})
    with pytest.raises(ValueError):
        p.probs[0] = 0.5
