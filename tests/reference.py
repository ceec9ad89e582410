"""Brute-force references that the fast paths in ``driftest`` are tested against.

Each function is a slow, direct form of a library routine, and the tests
compare the two with exact equality.  Windows are counted here with
``np.unique`` and their phi summed in Python, one addition at a time in
numpy's pairwise order, so no window or phi comes from the library.  The
walk and the trial suites at the end are the forms that take one
``tv_distance`` per window pair and draw and ladder each suite's streams
on their own.  The per-step truth path below
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

from driftest import adaptive, dist, driftgen, harness
from driftest.adaptive import (CandidateRecord, Comparison, EstimateResult, StopReason,
                               argmin_prefer_large, q_curve, realized_error_curve)
from driftest.dist import Pmf, lambda_complexity, sorted_union, tv_distance
from driftest.driftgen import (_MAX_TRUNCATED_SUPPORT, ABRUPT_POST_OFFSET, TAIL_TOL, Truth,
                               _charge_truth_size, _geometric_atoms, _hurwitz_zeta,
                               _linear_alpha, _trial_rng)
from driftest.windows import concentration_radius, dyadic_depth

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


def tv_union(p, q):
    """Total variation on the sorted union of two supports, summed as one 1-D array.

    Every TV of the library, whatever layout it takes, must give these bits.
    """
    union = sorted_union(p.symbols, q.symbols)
    diff = np.zeros(union.size)
    diff[np.searchsorted(union, p.symbols)] = p.probs
    diff[np.searchsorted(union, q.symbols)] -= q.probs
    return 0.5 * float(np.sum(np.abs(diff)))


def lambda_complexity(p, r):
    """The complexity functional at one budget, by Python loops over the sorted masses.

    The masses below 1/r are added from the smallest up, the roots of the
    others from the largest down, as the library's prefix sums add them.
    """
    masses = sorted(p.probs.tolist())
    light = [m for m in masses if m < 1.0 / r]
    mass = root = 0.0
    for m in light:
        mass += m
    for m in reversed(masses[len(light):]):
        root += math.sqrt(m)
    return mass + root / math.sqrt(r)


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


# --- windows, each counted from its own samples --------------------------------


def window_counts(samples):
    """The distinct samples, sorted, and how often each occurs: one ``np.unique``."""
    return np.unique(np.asarray(samples, dtype=np.int64), return_counts=True)


def window(samples):
    """The empirical pmf of some samples: each distinct sample's count over their number."""
    symbols, counts = window_counts(samples)
    return Pmf(symbols, counts / float(len(samples)))


def numpy_sum(values):
    """``np.sum`` of a list of floats, one addition at a time, as numpy's pairwise sum adds.

    Under 8 values are added in order.  Up to 128 go to eight partial sums,
    value i to sum i % 8, which are added as a tree; the values past the
    last multiple of 8 are then added in order.  More are split in two at
    a multiple of 8 below half, and the halves' sums added.
    """
    n = len(values)
    if n < 8:
        total = 0.0
        for value in values:
            total += value
        return total
    if n <= 128:
        tail = n - n % 8
        partial = list(values[:8])
        for i in range(8, tail):
            partial[i % 8] += values[i]
        total = (((partial[0] + partial[1]) + (partial[2] + partial[3]))
                 + ((partial[4] + partial[5]) + (partial[6] + partial[7])))
        for value in values[tail:]:
            total += value
        return total
    half = n // 2 - (n // 2) % 8
    return numpy_sum(values[:half]) + numpy_sum(values[half:])


def phi(samples):
    """The empirical complexity of r samples' window: the sum of sqrt(count / r), over sqrt(r)."""
    r = len(samples)
    _, counts = window_counts(samples)
    return numpy_sum([math.sqrt(count / r) for count in counts.tolist()]) / math.sqrt(r)


def suffixes(stream):
    """The most recent 2^j samples of a stream, j = 0 .. floor(log2 T)."""
    arr = np.asarray(stream)
    return [arr[arr.size - 2**j:] for j in range(dyadic_depth(arr.size) + 1)]


def ladder(stream):
    """The dyadic suffix windows of a stream, each counted from its own samples."""
    return [window(suffix) for suffix in suffixes(stream)]


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
                f"zipf exponent {s} needs more than {lo} atoms "
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


# --- the materialised columnar truth -------------------------------------------
#
# The columnar truth as it was built before a truth kept its rows' parameters
# instead of their atoms: every row's atoms lie back to back in one array,
# each stretch of rows of one width built by one family call, and every
# reader indexes that array.  The library's generated rows must equal it.


def _zipf_rows(s, out):
    """The zipf rows of one width, each normalizer computed here."""
    np.power(np.arange(1, out.shape[1] + 1, dtype=np.int64), -s[:, None], out=out,
             dtype=np.float64)
    out /= np.array([_hurwitz_zeta(x, 1) for x in s.tolist()])[:, None]
    driftgen._absorb_remainder(out)


def _row_buffer(groups):
    """One flat buffer for groups of (rows, width), and each group's 2-D view of it."""
    probs = np.empty(sum(rows * width for rows, width in groups))
    views, at = [], 0
    for rows, width in groups:
        views.append(probs[at:at + rows * width].reshape(rows, width))
        at += rows * width
    return probs, views


class MaterializedTruth:
    """Run counts, rows, and all rows' atoms in ``probs``, row j's from ``offsets[j]``."""

    def __init__(self, counts, rows, starts, widths, probs):
        self.counts, self.rows, self.starts, self.widths = (
            np.asarray(a, dtype=np.int64) for a in (counts, rows, starts, widths))
        self.probs = probs
        self.offsets = np.concatenate(([0], np.cumsum(self.widths)))
        self.current = self.pmf(self.widths.size - 1)
        gaps = np.array([tv_union(self.current, self.pmf(row)) for row in range(self.widths.size)])
        self.drift = np.maximum.accumulate(np.repeat(gaps[self.rows[::-1]], self.counts[::-1]))
        ends = np.cumsum(self.counts[::-1])
        depth = dyadic_depth(int(np.sum(self.counts)))
        self.window_averages = tuple(self.window_average(ends, 2**j) for j in range(depth + 1))
        self.window_lambdas = tuple(lambda_complexity(average, 2**j)
                                    for j, average in enumerate(self.window_averages))

    def row_probs(self, row):
        return self.probs[self.offsets[row]:self.offsets[row + 1]]

    def pmf(self, row):
        return Pmf(self.starts[row] + np.arange(self.widths[row]), self.row_probs(row))

    def window_average(self, ends, r):
        """Mean of the most recent r pmfs: runs newest first, by ``np.add.at`` in chunks."""
        parts = int(np.searchsorted(ends, r)) + 1
        weights = self.counts[::-1][:parts] / r
        weights[-1] = (r - (int(ends[parts - 2]) if parts > 1 else 0)) / r
        rows = self.rows[::-1][:parts]
        widths, starts = self.widths[rows], self.starts[rows]
        lo, hi = int(starts.min()), int((starts + widths).max())
        acc = np.zeros(hi - lo)
        for chunk in dist.groups(widths):
            n = widths[chunk]
            within = np.arange(int(np.sum(n))) - np.repeat(np.cumsum(n) - n, n)
            atoms = np.repeat(self.offsets[rows[chunk]], n) + within
            np.add.at(acc, np.repeat(starts[chunk] - lo, n) + within,
                      np.repeat(weights[chunk], n) * self.probs[atoms])
        return Pmf(np.arange(lo, hi), acc)


def window_average(truth, r):
    """The library's mean of a ``Truth``'s most recent r pmfs, for any r, fed its rows as it reads them."""
    sums = driftgen._WindowSums(truth, [r])
    for a, z, atoms in truth._chunks():
        sums.add(a, z, atoms, np.concatenate(([0], np.cumsum(truth.widths[a:z]))))
    (average,) = sums.averages()
    return average


@lru_cache(maxsize=64)
def materialized_segments(scenario):
    """The scenario's truth with every row's atoms built up front."""
    t_max, k = scenario.t, scenario.k
    if scenario.kind in ("iid", "abrupt", "rotating_support"):
        runs = segments(scenario)
        starts = [int(pmf.symbols[0]) for _, pmf in runs]
        return MaterializedTruth([count for count, _ in runs], np.arange(len(runs)), starts,
                                 np.full(len(runs), k), np.full(len(runs) * k, 1.0 / k))
    if scenario.kind == "linear_drift":
        frozen = 0
        while frozen < t_max and _linear_alpha(scenario, frozen + 1) >= 1.0:
            frozen += 1
        runs = t_max - frozen + bool(frozen)
        alpha = _linear_alpha(scenario, np.arange(frozen + 1, t_max + 1))
        drifting = alpha[alpha > 0.0]
        drained = alpha.size - drifting.size
        probs, (point, mixed, uniform) = _row_buffer(
            [(int(bool(frozen)), 1), (drifting.size, k + 1), (drained, k)])
        point[:] = 1.0
        mixed[:, 0] = drifting
        mixed[:, 1:] = ((1.0 - drifting) / k)[:, None]
        uniform[:] = 1.0 / k
        counts = np.ones(runs, dtype=np.int64)
        counts[0] = max(frozen, 1)
        starts = np.concatenate([np.zeros(runs - drained, dtype=np.int64),
                                 np.ones(drained, dtype=np.int64)])
        widths = np.repeat([1, k + 1, k], [point.shape[0], drifting.size, drained])
        return MaterializedTruth(counts, np.arange(runs), starts, widths, probs)
    if scenario.kind == "geometric_drift":
        start, end = scenario.geo_p_start, scenario.geo_p_end
        atoms, family = _geometric_atoms, driftgen._geometric_rows
    else:
        start, end = scenario.zipf_s_start, scenario.zipf_s_end
        atoms, family = zipf_atoms, _zipf_rows
    if start == end or t_max == 1:
        params, steps, widths = [start], [t_max], [atoms(start)]
    else:
        params, steps, widths = zip(*ramp_atoms(start, end, t_max, atoms))
    params, widths = np.array(params), np.array(widths)
    groups = driftgen._stretches(widths)
    probs, views = _row_buffer([(z - a, int(widths[a])) for a, z in groups])
    for (a, z), view in zip(groups, views):
        family(params[a:z], view)
    starts = np.full(params.size, 0 if scenario.kind == "geometric_drift" else 1)
    if len(params) == 1:
        return MaterializedTruth([t_max], [0], starts, widths, probs)
    return MaterializedTruth(np.ones(t_max, dtype=np.int64),
                             np.repeat(np.arange(params.size), steps), starts, widths, probs)


def materialized_sample_rows(truth, u):
    """The inverse CDF of each step's row, each step's 32-entry prefix read from ``probs``."""
    m, t = u.shape
    rows = np.repeat(truth.rows, truth.counts)
    out = np.empty(u.shape, dtype=np.int64)
    cols = np.arange(driftgen._CDF_PREFIX)
    for step in range(t):
        row = int(rows[step])
        width = int(truth.widths[row])
        atom = np.minimum(truth.offsets[row] + cols, truth.probs.size - 1)
        cdf = np.cumsum(np.where(cols < width, truth.probs[atom], 0.0))
        cdf[cols >= width - 1] = 1.0
        found = np.count_nonzero(cdf <= u[:, step, None], axis=1)
        out[:, step] = truth.starts[row] + found
        beyond = found == driftgen._CDF_PREFIX
        out[beyond, step] = truth.starts[row] + driftgen._inverse_cdf(
            truth.row_probs(row), u[beyond, step])
    return out


def materialized_sample_streams(scenario, lo, hi):
    """``driftgen.sample_streams`` over the materialised truth, row 0 serving one-CDF kinds."""
    if scenario.kind == "linear_drift":
        return driftgen.sample_streams(scenario, lo, hi)
    u = np.stack([_trial_rng(scenario, trial).random(scenario.t) for trial in range(lo, hi)])
    truth = materialized_segments(scenario)
    if scenario.kind in ("iid", "abrupt", "rotating_support"):
        ranks = driftgen._uniform_ranks(truth.row_probs(0), u)
    elif truth.widths.size == 1:
        ranks = driftgen._inverse_cdf(truth.row_probs(0), u)
    else:
        return materialized_sample_rows(truth, u)
    return ranks + np.repeat(truth.starts[truth.rows], truth.counts)


# --- the oracle curve ---------------------------------------------------------


def brute_force_error_curve(stream, target):
    """TV from target to the empirical pmf of every suffix window, one window at a time."""
    return np.array([tv_distance(target, window(stream[len(stream) - r:]))
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


def ladder_phis(stream):
    """Each dyadic window's phi, window j from the most recent 2^j samples."""
    return [phi(suffix) for suffix in suffixes(stream)]


def ladder_xis(phis, delta):
    """Each window's bound: its phi plus the radius at 2^j."""
    radii = concentration_radius(np.arange(len(phis)), delta)
    return [value + radius for value, radius in zip(phis, radii.tolist())]


def walk_ladder(windows, phis, xis):
    """The adaptive walk with one ``tv_distance`` per (accepted, candidate) pair.

    Each candidate is compared with the accepted windows in order, and the
    comparisons stop at the first violation.
    """
    def record(j):
        return CandidateRecord(j, 2**j, phis[j], xis[j])

    accepted = [record(0)]
    comparisons = []
    stop = StopReason("exhausted")
    for j in range(1, len(windows)):
        if not xis[j] < accepted[-1].xi:
            continue
        violated = False
        for cand in accepted:
            gap = tv_distance(windows[cand.index], windows[j])
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
    return EstimateResult(chosen_window=chosen.size, estimate=windows[chosen.index],
                          accepted=tuple(accepted), stop=stop,
                          compared=tuple([getattr(c, name) for c in comparisons]
                                         for name in ("l", "j", "tv", "threshold")))


def walk_tv(stream, l, j):
    """The TV of a stream's windows l < j by the integer formula, from their samples.

    Window c's probabilities are its counts over 2^c, so the TV is
    (sum over window l's symbols of |c_l 2^(j-l) - c_j|, plus 2^j less c_j's
    sum there) over 2^(j+1), summed in Python integers.
    """
    older, newer = Counter(stream[len(stream) - 2**l:].tolist()), Counter(
        stream[len(stream) - 2**j:].tolist())
    gap = sum(abs(count * 2**(j - l) - newer[s]) for s, count in older.items())
    return (gap + 2**j - sum(newer[s] for s in older)) / 2**(j + 1)


def adaptive_estimate(stream, delta):
    phis = ladder_phis(stream)
    return walk_ladder(ladder(stream), phis, ladder_xis(phis, delta))


# --- the trial suites, each drawing and laddering its own streams -------------


def prop3_held(stream, delta, truth):
    """Whether each simultaneous inequality held, each TV through ``tv_distance``."""
    emp_ok = True
    true_ok = True
    radii = concentration_radius(np.arange(dyadic_depth(len(stream)) + 1), delta)
    for j, (suffix, radius) in enumerate(zip(suffixes(stream), radii.tolist())):
        w_phi = phi(suffix)
        if tv_distance(window(suffix), truth.window_averages[j]) > w_phi + radius:
            emp_ok = False
        if w_phi > 4.0 * truth.window_lambdas[j] + radius:
            true_ok = False
        if not (emp_ok or true_ok):
            break
    return emp_ok, true_ok


def prop1_trial(scenario, trial):
    truth = driftgen.segments(scenario)
    windows = ladder(driftgen.sample_stream(scenario, trial))
    return [tv_distance(truth.current, w)
            - (tv_distance(truth.window_averages[j], w) + truth.window_deltas[j])
            for j, w in enumerate(windows)]


def prop2_trial(scenario, r, delta, trial):
    truth = driftgen.segments(scenario)
    j = r.bit_length() - 1
    samples = driftgen.sample_stream(scenario, trial)[-r:]
    w_phi = phi(samples)
    deviation_bound = w_phi + 3.0 * math.sqrt(math.log(4.0 / delta) / (2.0 * r))
    complexity_bound = 4.0 * truth.window_lambdas[j] + math.sqrt(math.log(4.0 / delta) / r)
    return (tv_distance(window(samples), truth.window_averages[j]) > deviation_bound,
            w_phi > complexity_bound)


def prop3_trial(scenario, delta, trial):
    stream = driftgen.sample_stream(scenario, trial)
    emp_ok, true_ok = prop3_held(stream, delta, driftgen.segments(scenario))
    return not emp_ok, not true_ok


def prop45_trial(scenario, delta, trial):
    truth = driftgen.segments(scenario)
    stream = driftgen.sample_stream(scenario, trial)
    emp_ok, true_ok = prop3_held(stream, delta, truth)
    if not (emp_ok and true_ok):
        return None
    windows = ladder(stream)
    phis = ladder_phis(stream)
    xis = ladder_xis(phis, delta)
    result = walk_ladder(windows, phis, xis)
    bounds = [xis[j] + truth.window_deltas[j] for j in range(truth.depth + 1)]
    continue_slacks = []
    best = math.inf
    for cand in result.accepted:
        if best < math.inf:
            continue_slacks.append(
                tv_distance(truth.current, windows[cand.index]) - 5.0 * best)
        best = min(best, bounds[cand.index])
    stop_slacks = []
    if result.stop.kind == "violation":
        u_l = bounds[result.stop.l]
        stop_slacks = [u_l - 2.0 * bounds[n] for n in range(result.stop.j, truth.depth + 1)]
    return continue_slacks, stop_slacks


def trial_metrics(scenario, delta, q_star, r_star, trial):
    """One simulated trial from its own stream, ladder and per-pair walk."""
    truth = driftgen.segments(scenario)
    stream = driftgen.sample_stream(scenario, trial)
    result = adaptive_estimate(stream, delta)
    errs = realized_error_curve(stream, truth.current)
    r_oracle = argmin_prefer_large(errs) + 1
    emp_ok, true_ok = prop3_held(stream, delta, truth)
    return harness.TrialMetrics(
        trial=trial, chosen_r=result.chosen_window,
        err_adaptive=float(errs[result.chosen_window - 1]),
        err_oracle=float(errs[r_oracle - 1]), r_oracle=r_oracle,
        err_full_window=float(errs[-1]), err_last_sample=float(errs[0]),
        q_star=q_star, r_star=r_star, prop3_held=emp_ok and true_ok)


def run_trials(scenario, trials, delta):
    truth = driftgen.segments(scenario)
    q = q_curve(truth.current, adaptive.drift_sequence(truth), delta)
    r_star = argmin_prefer_large(q) + 1
    return [trial_metrics(scenario, delta, float(q[r_star - 1]), r_star, trial)
            for trial in range(trials)]


def _each_trial(fn, *args):
    """``fn(*common, trial)`` for each trial of the block (lo, hi) that ends ``args``."""
    *common, lo, hi = args
    return [fn(*common, trial) for trial in range(lo, hi)]


def verify_prop1(scenario, trials, tol=1e-12, workers=1):
    per_trial = harness._fan_out(_each_trial, (prop1_trial, scenario), trials, workers)
    truth = driftgen.segments(scenario)
    return harness._suite_report("prop1", {
        "decomposition": list(chain.from_iterable(per_trial)),
        "averaging": [tv_distance(average, truth.current) - drift for average, drift
                      in zip(truth.window_averages, truth.window_deltas)],
    }, tol)


def verify_prop2(scenario, r, trials, delta, workers=1):
    return harness._coverage_report(
        harness._fan_out(_each_trial, (prop2_trial, scenario, r, delta), trials, workers))


def verify_prop3(scenario, trials, delta, workers=1):
    return harness._coverage_report(
        harness._fan_out(_each_trial, (prop3_trial, scenario, delta), trials, workers))


def verify_prop45(scenario, trials, delta, tol=1e-9, workers=1):
    kept = [slacks for slacks in harness._fan_out(_each_trial, (prop45_trial, scenario, delta), trials,
                                                  workers)
            if slacks is not None]
    return harness._suite_report("prop45", {
        "continue_factor5": [slack for cont, _ in kept for slack in cont],
        "stop_factor2": [slack for _, stop in kept for slack in stop],
    }, tol, skipped=trials - len(kept))
