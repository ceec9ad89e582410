"""Brute-force references that the fast paths in ``driftest`` are tested against.

Each function is a slow, direct form of a library routine, and the tests
compare the two with exact equality.  The walk and the trial suites at
the end are the forms that take one ``tv_distance`` per window pair and
draw and ladder each suite's streams on their own.  The per-step truth path below
(``segments``, ``truth_pmfs``, ``drift_sequence``, ``suffix_average``)
holds the truth as one validated ``Pmf`` per distinct step and averages
windows through ``mixture``: it is the form the library's columnar truth
must reproduce bit for bit.
"""

import math
from collections import Counter
from functools import lru_cache
from itertools import chain, groupby, repeat

import numpy as np

from driftest import driftgen, harness
from driftest.adaptive import (CandidateRecord, Comparison, EstimateResult, StopReason,
                               fixed_window_estimate)
from driftest.dist import EmpiricalWindow, Pmf, phi_empirical, sorted_union, tv_distance
from driftest.driftgen import (_MAX_TRUNCATED_SUPPORT, ABRUPT_POST_OFFSET, TAIL_TOL, Truth,
                               _charge_truth_size, _geometric_atoms, _hurwitz_zeta,
                               _linear_alpha, _trial_rng)
from driftest.windows import build_ladder, concentration_radius

# --- distributions ------------------------------------------------------------


def sorted_atoms(symbols, probs):
    """Atom validation that argsorts every input, as it was before the sorted check."""
    syms = np.asarray(symbols, dtype=np.int64)
    w = np.asarray(probs, dtype=np.float64)
    if syms.ndim != 1 or w.ndim != 1 or syms.shape != w.shape:
        raise ValueError("symbols and weights must be 1-D arrays of equal length")
    if syms.size == 0:
        raise ValueError("support must be non-empty")
    if np.any(syms < 0):
        raise ValueError("symbols must be nonnegative integers")
    order = np.argsort(syms, kind="stable")
    syms = syms[order]
    w = w[order]
    if np.any(syms[1:] == syms[:-1]):
        raise ValueError("duplicate symbols in support")
    if not np.all(np.isfinite(w)):
        raise ValueError("probabilities must be finite")
    if np.any(w < 0.0):
        raise ValueError("probabilities must be nonnegative")
    keep = w > 0.0
    syms, w = syms[keep], w[keep]
    if syms.size == 0:
        raise ValueError("pmf has no positive-mass atoms")
    syms.setflags(write=False)
    w.setflags(write=False)
    return syms, w


def mixture(parts):
    """Sum of weight * pmf over (weight, pmf) parts, added in the given order.

    The support is the union of the parts' supports; the weights must sum
    to 1.
    """
    union = sorted_union(*[p.symbols for _, p in parts])
    acc = np.zeros(union.size)
    for weight, p in parts:
        acc[np.searchsorted(union, p.symbols)] += weight * p.probs
    return Pmf(union, acc)


def mean_pmf(seq):
    """Entrywise arithmetic mean of pmfs; support is the union of supports."""
    if len(seq) == 0:
        raise ValueError("cannot average an empty sequence of pmfs")
    # repeated pmf objects (piecewise-constant truth) become one weighted part
    return mixture([(count / len(seq), p) for p, count in Counter(seq).items()])


def dump_stream(samples, path):
    """Write a sample stream in the text format ``windows.load_stream`` reads."""
    with open(path, "w", encoding="utf-8") as fh:
        for value in np.asarray(samples):
            fh.write(f"{int(value)}\n")


def parse_lines(text):
    """The stream text format read with one int() per line.

    ``windows.parse_stream_text`` must return the same array, or raise a
    ``ValueError`` with the same text.
    """
    samples = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            value = int(line)
        except ValueError:
            raise ValueError(f"line {lineno}: {line!r} is not an integer") from None
        if value < 0:
            raise ValueError(f"line {lineno}: negative sample {value}")
        samples.append(value)
    if not samples:
        raise ValueError("empty sample stream")
    try:
        return np.asarray(samples, dtype=np.int64)
    except OverflowError:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if line and not line.startswith("#") and int(line) > np.iinfo(np.int64).max:
                raise ValueError(
                    f"line {lineno}: sample {int(line)} exceeds the int64 range") from None
        raise


# --- the per-step truth -------------------------------------------------------


def _absorb_remainder(symbols, probs):
    """Give any missing mass (dropped tail plus rounding) to the largest atom."""
    probs = probs.copy()
    probs[int(np.argmax(probs))] += 1.0 - float(np.sum(probs))
    return Pmf(symbols, probs)


def _geometric_pmf(p, atoms):
    if p >= 1.0:
        return Pmf.point_mass(0)
    i = np.arange(atoms, dtype=np.int64)
    probs = p * np.power(1.0 - p, i, dtype=np.float64)
    return _absorb_remainder(i, probs)


def zipf_atoms(s):
    """The truncated zipf atom count searched from scratch: doubling, then bisection.

    ``driftgen._zipf_atoms`` must return the same count, or raise the same
    error, from any starting count.
    """
    total = _hurwitz_zeta(s, 1)

    def tail_too_heavy(n):
        return _hurwitz_zeta(s, n + 1) / total >= TAIL_TOL

    lo, hi = 1, 2
    while tail_too_heavy(hi):
        lo, hi = hi, hi * 2
        if hi > _MAX_TRUNCATED_SUPPORT:
            raise ValueError(
                f"zipf exponent {s} needs more than {_MAX_TRUNCATED_SUPPORT} atoms "
                f"to reach tail mass {TAIL_TOL}; use a larger exponent")
    while lo < hi:
        mid = (lo + hi) // 2
        if tail_too_heavy(mid):
            lo = mid + 1
        else:
            hi = mid
    return hi


def _zipf_pmf(s, atoms):
    i = np.arange(1, atoms + 1, dtype=np.int64)
    probs = np.power(i, -s, dtype=np.float64) / _hurwitz_zeta(s, 1)
    return _absorb_remainder(i, probs)


def _linear_pmf(scenario, t):
    k = scenario.k
    alpha = _linear_alpha(scenario, t)
    if alpha >= 1.0:
        return Pmf.point_mass(0)
    block = np.arange(1, k + 1, dtype=np.int64)
    if alpha <= 0.0:
        return Pmf(block, np.full(k, 1.0 / k))
    symbols = np.concatenate([[0], block])
    probs = np.concatenate([[alpha], np.full(k, (1.0 - alpha) / k)])
    return Pmf(symbols, probs)


def ramp_runs(start, end, t_max):
    """Each distinct parameter of a linear schedule and its steps, one step at a time."""
    ramp = (end - start) / (t_max - 1)
    for x, run in groupby(start + ramp * (t - 1) for t in range(1, t_max + 1)):
        yield x, sum(1 for _ in run)


def ramp_atoms(start, end, t_max, atoms):
    """(parameter, steps, atoms) of each distinct ramp parameter, charged one at a time."""
    runs = []
    total = 0
    for x, steps in ramp_runs(start, end, t_max):
        n = atoms(x)
        total = _charge_truth_size(total, n)
        runs.append((x, steps, n))
    return runs


@lru_cache(maxsize=64)
def segments(scenario):
    """The truth as (count, Pmf) runs, oldest first; drifting steps are one run each."""
    t_max = scenario.t
    if scenario.kind == "iid":
        return ((t_max, Pmf.uniform(range(scenario.k))),)
    if scenario.kind == "abrupt":
        pre = Pmf.uniform(range(scenario.k))
        post = Pmf.uniform(range(ABRUPT_POST_OFFSET, ABRUPT_POST_OFFSET + scenario.k))
        m = scenario.change_point
        return ((t_max - m, pre), (m, post))
    if scenario.kind == "rotating_support":
        out = []
        t = 1
        while t <= t_max:
            block = (t - 1) // scenario.period
            span = min(scenario.period * (block + 1), t_max) - t + 1
            lo = block * scenario.k
            out.append((span, Pmf.uniform(range(lo, lo + scenario.k))))
            t += span
        return tuple(out)
    if scenario.kind == "linear_drift":
        frozen = 0
        while frozen < t_max and _linear_alpha(scenario, frozen + 1) >= 1.0:
            frozen += 1
        out = [(frozen, Pmf.point_mass(0))] if frozen else []
        for t in range(frozen + 1, t_max + 1):
            out.append((1, _linear_pmf(scenario, t)))
        return tuple(out)
    if scenario.kind == "geometric_drift":
        start, end = scenario.geo_p_start, scenario.geo_p_end
        atoms, family = _geometric_atoms, _geometric_pmf
    else:
        start, end = scenario.zipf_s_start, scenario.zipf_s_end
        atoms, family = zipf_atoms, _zipf_pmf
    if start == end or t_max == 1:
        return ((t_max, family(start, atoms(start))),)
    runs = ramp_atoms(start, end, t_max, atoms)
    return tuple(seg for x, steps, n in runs for seg in repeat((1, family(x, n)), steps))


def truth_pmfs(scenario):
    """The full truth sequence, index t-1 holding the distribution of step t."""
    return tuple(pmf for count, pmf in segments(scenario) for _ in range(count))


def columnar(runs):
    """(count, Pmf) runs, each pmf on consecutive symbols, as a ``Truth`` with one row per run."""
    return Truth([count for count, _ in runs], np.arange(len(runs)),
                 [pmf.symbols[0] for _, pmf in runs], [pmf.support_size for _, pmf in runs],
                 np.concatenate([pmf.probs for _, pmf in runs]))


def drift_sequence(runs):
    """Drift curve over (count, Pmf) runs: one ``tv_distance`` per run, then a running max."""
    counts, pmfs = zip(*reversed(runs))
    gaps = [tv_distance(runs[-1][1], pmf) for pmf in pmfs]
    return np.maximum.accumulate(np.repeat(gaps, counts))


def drift_sequence_per_step(truth):
    """Per-step drift curve over the expanded truth, each pmf object measured once."""
    current = truth[-1]
    cache = {}
    deltas = np.empty(len(truth))
    running = 0.0
    for age, pmf in enumerate(reversed(truth)):
        key = id(pmf)
        if key not in cache:
            cache[key] = tv_distance(current, pmf)
        running = max(running, cache[key])
        deltas[age] = running
    return deltas


def suffix_average(scenario, r):
    """Mean of the most recent r true pmfs: the runs newest first through ``mixture``."""
    remaining = r
    parts = []
    for count, pmf in reversed(segments(scenario)):
        take = min(count, remaining)
        parts.append((take / r, pmf))
        remaining -= take
        if remaining == 0:
            break
    return mixture(parts)


def sample_stream(scenario, trial):
    """Per-segment inverse CDF over sorted symbols, one segment at a time."""
    u = _trial_rng(scenario, trial).random(scenario.t)
    out = np.empty(scenario.t, dtype=np.int64)
    pos = 0
    for count, pmf in segments(scenario):
        cdf = np.cumsum(pmf.probs)
        cdf[-1] = 1.0
        idx = np.searchsorted(cdf, u[pos:pos + count], side="right")
        out[pos:pos + count] = pmf.symbols[np.minimum(idx, pmf.symbols.size - 1)]
        pos += count
    return out


# --- the oracle curve ---------------------------------------------------------


def brute_force_error_curve(stream, target):
    """TV from target to the empirical pmf of every suffix window, one window at a time."""
    return np.array([tv_distance(target, fixed_window_estimate(stream, r))
                     for r in range(1, len(stream) + 1)])


def error_curve_by_codes(stream, target):
    """The curve over dense codes of the reversed stream, before it compared
    the stream's own symbols."""
    arr = np.asarray(stream, dtype=np.int64)
    rs = np.arange(1, arr.size + 1, dtype=np.float64)
    stream_syms, codes = np.unique(arr[::-1], return_inverse=True)
    pos = np.minimum(np.searchsorted(stream_syms, target.symbols), stream_syms.size - 1)
    observed = stream_syms[pos] == target.symbols
    errs = np.full(arr.size, float(np.sum(target.probs[~observed])))
    for code, p in zip(pos[observed], target.probs[observed]):
        errs += np.maximum(p - np.cumsum(codes == code) / rs, 0.0)
    return errs


# --- the walk, one pair at a time ---------------------------------------------


def ladder_xis(ladder, delta):
    """Each window's bound, its phi computed here: phi plus the radius at 2^j."""
    radii = concentration_radius(np.arange(len(ladder)), delta)
    return [phi_empirical(w) + radius for w, radius in zip(ladder, radii.tolist())]


def walk_ladder(ladder, xis):
    """The adaptive walk with one ``tv_distance`` per (accepted, candidate) pair.

    Each candidate is compared with the accepted windows in order, and the
    comparisons stop at the first violation; phi is recomputed per record.
    """
    def record(j):
        return CandidateRecord(j, 2**j, phi_empirical(ladder[j]), xis[j])

    accepted = [record(0)]
    comparisons = []
    stop = StopReason("exhausted")
    for j in range(1, len(ladder)):
        if not xis[j] < accepted[-1].xi:
            continue
        violated = False
        for cand in accepted:
            gap = tv_distance(ladder[cand.index], ladder[j])
            threshold = 3.0 * cand.xi + xis[j]
            comparisons.append(Comparison(cand.index, j, gap, threshold))
            if gap >= threshold:
                stop = StopReason("violation", j=j, l=cand.index)
                violated = True
                break
        if violated:
            break
        accepted.append(record(j))
    chosen = accepted[-1]
    return EstimateResult(chosen_window=chosen.size,
                          estimate=ladder[chosen.index].to_pmf(),
                          accepted=tuple(accepted), stop=stop,
                          comparisons=tuple(comparisons))


def adaptive_estimate(stream, delta):
    ladder = build_ladder(stream)
    return walk_ladder(ladder, ladder_xis(ladder, delta))


# --- the trial suites, each drawing and laddering its own streams -------------


def prop3_held(ladder, delta, truth):
    """Whether each simultaneous inequality held, each TV through ``tv_distance``."""
    emp_ok = True
    true_ok = True
    radii = concentration_radius(np.arange(len(ladder)), delta)
    for j, (w, radius) in enumerate(zip(ladder, radii.tolist())):
        phi = phi_empirical(w)
        if tv_distance(w, truth.window_averages[j]) > phi + radius:
            emp_ok = False
        if phi > 4.0 * truth.window_lambdas[j] + radius:
            true_ok = False
        if not (emp_ok or true_ok):
            break
    return emp_ok, true_ok


def prop1_trial(scenario, trial):
    truth = driftgen.segments(scenario)
    ladder = build_ladder(driftgen.sample_stream(scenario, trial))
    return [tv_distance(truth.current, w)
            - (tv_distance(truth.window_averages[j], w) + truth.window_deltas[j])
            for j, w in enumerate(ladder)]


def prop2_trial(scenario, r, delta, trial):
    truth = driftgen.segments(scenario)
    j = r.bit_length() - 1
    window = EmpiricalWindow(driftgen.sample_stream(scenario, trial)[-r:])
    phi = phi_empirical(window)
    deviation_bound = phi + 3.0 * math.sqrt(math.log(4.0 / delta) / (2.0 * r))
    complexity_bound = 4.0 * truth.window_lambdas[j] + math.sqrt(math.log(4.0 / delta) / r)
    return (tv_distance(window, truth.window_averages[j]) > deviation_bound,
            phi > complexity_bound)


def prop3_trial(scenario, delta, trial):
    ladder = build_ladder(driftgen.sample_stream(scenario, trial))
    emp_ok, true_ok = prop3_held(ladder, delta, driftgen.segments(scenario))
    return not emp_ok, not true_ok


def prop45_trial(scenario, delta, trial):
    truth = driftgen.segments(scenario)
    ladder = build_ladder(driftgen.sample_stream(scenario, trial))
    emp_ok, true_ok = prop3_held(ladder, delta, truth)
    if not (emp_ok and true_ok):
        return None
    xis = ladder_xis(ladder, delta)
    result = walk_ladder(ladder, xis)
    bounds = [xis[j] + truth.window_deltas[j] for j in range(truth.depth + 1)]
    continue_slacks = []
    best = math.inf
    for cand in result.accepted:
        if best < math.inf:
            continue_slacks.append(
                tv_distance(truth.current, ladder[cand.index]) - 5.0 * best)
        best = min(best, bounds[cand.index])
    stop_slacks = []
    if result.stop.kind == "violation":
        u_l = bounds[result.stop.l]
        stop_slacks = [u_l - 2.0 * bounds[n] for n in range(result.stop.j, truth.depth + 1)]
    return continue_slacks, stop_slacks


def verify_prop1(scenario, trials, tol=1e-12, workers=1):
    per_trial = harness._fan_out(prop1_trial, (scenario,), trials, workers)
    truth = driftgen.segments(scenario)
    return harness._suite_report("prop1", {
        "decomposition": list(chain.from_iterable(per_trial)),
        "averaging": [tv_distance(average, truth.current) - drift for average, drift
                      in zip(truth.window_averages, truth.window_deltas)],
    }, tol)


def verify_prop2(scenario, r, trials, delta, workers=1):
    return harness._coverage_report(
        harness._fan_out(prop2_trial, (scenario, r, delta), trials, workers))


def verify_prop3(scenario, trials, delta, workers=1):
    return harness._coverage_report(
        harness._fan_out(prop3_trial, (scenario, delta), trials, workers))


def verify_prop45(scenario, trials, delta, tol=1e-9, workers=1):
    kept = [slacks for slacks in harness._fan_out(prop45_trial, (scenario, delta), trials,
                                                  workers)
            if slacks is not None]
    return harness._suite_report("prop45", {
        "continue_factor5": [slack for cont, _ in kept for slack in cont],
        "stop_factor2": [slack for _, stop in kept for slack in stop],
    }, tol, skipped=trials - len(kept))
