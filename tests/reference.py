"""Brute-force references that the fast paths in ``driftest`` are tested against.

Each function is a slow, direct form of a library routine, and the tests
compare the two with exact equality.  The per-step truth path below
(``segments``, ``truth_pmfs``, ``drift_sequence``, ``suffix_average``)
holds the truth as one validated ``Pmf`` per distinct step and averages
windows through ``mixture``: it is the form the library's columnar truth
must reproduce bit for bit.
"""

from collections import Counter
from functools import lru_cache
from itertools import groupby, repeat

import numpy as np

from driftest.adaptive import fixed_window_estimate
from driftest.dist import Pmf, sorted_union, tv_distance
from driftest.driftgen import (ABRUPT_POST_OFFSET, Truth, _charge_truth_size,
                               _geometric_atoms, _hurwitz_zeta, _linear_alpha, _trial_rng,
                               _zipf_atoms)

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
        atoms, family = _zipf_atoms, _zipf_pmf
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
