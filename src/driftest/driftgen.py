"""Drift-scenario generators: ground-truth pmf sequences plus seeded samplers.

Each scenario describes a sequence of true distributions, one per time
step, together with a sampler drawing one independent sample per step.
The truth is held columnar (``Truth``, from ``segments``): the run
lengths of the sequence, oldest first, and its distinct pmfs as rows.
Every truth pmf lies on consecutive symbols, so a row is a first symbol,
a width and a probability vector; the rows' probabilities lie back to
back in one array, and each stretch of rows of one width is also a 2-D
block.  The truth is built vectorized, checked once by ``Truth``, and
cached once per scenario with the drift curve and the dyadic window
averages read from it; no ``Pmf`` is built per step.

Sampling is inverse-CDF over sorted symbols, seeded from (scenario seed,
trial index), so identical inputs reproduce identical streams on any
platform, and keeps nothing between calls: linear drift by a closed form,
the uniform kinds (iid, abrupt, rotating) and a one-row truth by one CDF
for all steps, geometric and zipf by a count over each step's row.
Infinite-support families (geometric, zipf) are truncated to exact finite
pmfs: a tail of total mass below ``TAIL_TOL`` is dropped and the largest
atom absorbs the remainder.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, fields as dataclass_fields
from functools import cached_property, lru_cache
from typing import Callable, Iterator

import numpy as np

from .adaptive import drift_sequence
from .dist import CHUNK_ELEMENTS, MASS_TOL, Pmf, lambda_complexity, row_slices
from .windows import dyadic_depth

TAIL_TOL = 1e-12

KINDS = ("iid", "linear_drift", "abrupt", "rotating_support",
         "geometric_drift", "zipf_drift")

# abrupt scenarios place the post-change support at this offset
ABRUPT_POST_OFFSET = 100

# bound on the summed atoms of a scenario's distinct truth pmfs, and on t
_MAX_TRUNCATED_SUPPORT = 20_000_000
# a Pmf object's fixed memory (about 400 bytes), in 16-byte atoms
_PMF_OVERHEAD_ATOMS = 24


@dataclass(frozen=True)
class DriftScenario:
    """Declarative description of a truth sequence and its sampler.

    ``t`` is the horizon (number of time steps); ``seed`` feeds the
    sampler.  Kind-specific parameters:

    - iid: ``k`` (uniform over {0..k-1}, stationary)
    - linear_drift: ``k``, ``step_delta`` -- mass moves from source symbol
      0 into the uniform block {1..k} at a fixed per-step rate, timed so
      the source empties exactly at the final step (the drift is active at
      estimation time); in the deep past the source saturates at full mass
    - abrupt: ``k``, ``change_point`` -- uniform {0..k-1}, then a
      disjoint uniform block for the last ``change_point`` steps
    - rotating_support: ``k``, ``period`` -- a uniform block of width k
      jumps to fresh symbols every ``period`` steps
    - geometric_drift: ``geo_p_start``, ``geo_p_end`` -- success
      probability interpolates linearly across the horizon
    - zipf_drift: ``zipf_s_start``, ``zipf_s_end`` -- power-law exponent
      interpolates linearly across the horizon
    """

    kind: str
    t: int
    seed: int
    k: int | None = None
    step_delta: float | None = None
    change_point: int | None = None
    period: int | None = None
    geo_p_start: float | None = None
    geo_p_end: float | None = None
    zipf_s_start: float | None = None
    zipf_s_end: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if not 1 <= self.t <= _MAX_TRUNCATED_SUPPORT:
            raise ValueError(f"t must lie in [1, {_MAX_TRUNCATED_SUPPORT}]")
        need = {
            "iid": ("k",),
            "linear_drift": ("k", "step_delta"),
            "abrupt": ("k", "change_point"),
            "rotating_support": ("k", "period"),
            "geometric_drift": ("geo_p_start", "geo_p_end"),
            "zipf_drift": ("zipf_s_start", "zipf_s_end"),
        }[self.kind]
        for key in need:
            if getattr(self, key) is None:
                raise ValueError(f"{self.kind} requires key '{key}'")
        for param in dataclass_fields(self)[3:]:  # the kind-specific parameters
            if param.name not in need and getattr(self, param.name) is not None:
                raise ValueError(f"{self.kind} does not use key '{param.name}'")
        if self.k is not None and not 1 <= self.k <= _MAX_TRUNCATED_SUPPORT:
            raise ValueError(f"key 'k': must lie in [1, {_MAX_TRUNCATED_SUPPORT}]")
        if self.kind == "linear_drift" and not 0 <= self.step_delta < math.inf:
            raise ValueError("key 'step_delta': must be finite and >= 0")
        if self.kind == "abrupt":
            if not 1 <= self.change_point < self.t:
                raise ValueError("key 'change_point': must lie in [1, t-1]")
            if self.k > ABRUPT_POST_OFFSET:
                raise ValueError(f"key 'k': abrupt supports must stay below {ABRUPT_POST_OFFSET}")
        if self.kind == "rotating_support" and self.period < 1:
            raise ValueError("key 'period': must be >= 1")
        if self.kind == "geometric_drift":
            for key in ("geo_p_start", "geo_p_end"):
                p = getattr(self, key)
                if not 0.0 < p <= 1.0:
                    raise ValueError(f"key '{key}': must lie in (0, 1]")
        if self.kind == "zipf_drift":
            for key in ("zipf_s_start", "zipf_s_end"):
                if not 1.0 < getattr(self, key) < math.inf:
                    raise ValueError(f"key '{key}': exponent must be finite and exceed 1")
        if self.kind in ("geometric_drift", "zipf_drift") and self.t > 1:
            start_key, end_key = need
            start, end = getattr(self, start_key), getattr(self, end_key)
            # the last step's parameter, in the ramp's own float arithmetic
            last = start + ((end - start) / (self.t - 1)) * (self.t - 1)
            if start != end and not math.isclose(last, end, rel_tol=1e-9):
                raise ValueError(f"key '{end_key}': a ramp from {start!r} over {self.t} steps"
                                 f" ends at {last!r}, not at {end!r}")


def iid(k: int, t: int, seed: int = 0) -> DriftScenario:
    return DriftScenario("iid", t, seed, k=k)


def linear_drift(k: int, step_delta: float, t: int, seed: int = 0) -> DriftScenario:
    return DriftScenario("linear_drift", t, seed, k=k, step_delta=step_delta)


def abrupt(k: int, change_point: int, t: int, seed: int = 0) -> DriftScenario:
    return DriftScenario("abrupt", t, seed, k=k, change_point=change_point)


def rotating_support(k: int, period: int, t: int, seed: int = 0) -> DriftScenario:
    return DriftScenario("rotating_support", t, seed, k=k, period=period)


def geometric_drift(p_start: float, p_end: float, t: int, seed: int = 0) -> DriftScenario:
    return DriftScenario("geometric_drift", t, seed,
                         geo_p_start=p_start, geo_p_end=p_end)


def zipf_drift(s_start: float, s_end: float, t: int, seed: int = 0) -> DriftScenario:
    return DriftScenario("zipf_drift", t, seed,
                         zipf_s_start=s_start, zipf_s_end=s_end)


# --- truncated infinite-support families ----------------------------------


def _absorb_remainder(probs: np.ndarray) -> None:
    """Give each row's missing mass (dropped tail plus rounding) to its largest atom."""
    probs[np.arange(probs.shape[0]), np.argmax(probs, axis=1)] += 1.0 - np.sum(probs, axis=1)


def _geometric_atoms(p: float, near: int = 1) -> int:
    """Atoms of the truncated geometric pmf, counted before it is built.

    The count has a closed form, so the search start ``near`` is unused.
    """
    if p >= 1.0:
        return 1
    # capped, so that a vanishing p cannot overflow the count
    return math.ceil(min(math.log(TAIL_TOL) / math.log1p(-p), _MAX_TRUNCATED_SUPPORT + 1))


def _geometric_rows(p: np.ndarray, out: np.ndarray) -> None:
    """Fill each row of ``out`` with the truncated geometric pmf of one success probability.

    Row i is the pmf on 0 .. width-1 for ``p[i]``; p = 1 gives the point
    mass at 0, since 0.0 ** 0 is 1.
    """
    np.power((1.0 - p)[:, None], np.arange(out.shape[1], dtype=np.int64), out=out)
    out *= p[:, None]
    _absorb_remainder(out)


# MACHEP (the double rounding unit) and the Euler-Maclaurin coefficients of Cephes zeta(x, q)
_MACHEP = 2.0**-53
_ZETA_A = (12.0, -720.0, 30240.0, -1209600.0, 47900160.0, -1.8924375803183791606e9,
           7.47242496e10, -2.950130727918164224e12, 1.1646782814350067249e14,
           -4.5979787224074726105e15, 1.8152105401943546773e17, -7.1661652561756670113e18)


def _hurwitz_zeta(x: float, q: float) -> float:
    """Hurwitz zeta sum over n >= 0 of (q + n)**-x, for x > 1 and 1 <= q <= 1e8.

    A statement-for-statement port of the Cephes ``zeta(x, q)`` routine
    (Euler-Maclaurin summation), so it returns the same bits as the C code.
    Cephes answers q > 1e8 by an asymptotic expansion instead; the zipf
    truncation search stops at q = 20,000,001 and never needs it.  Where
    the terms underflow, C's ``0.0 / 0.0`` is NaN and fails the stopping
    test, so a zero sum skips that test here.
    """
    s = q ** -x
    a = q
    i = 0
    b = 0.0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = a ** -x
        s += b
        if s != 0.0 and abs(b / s) < _MACHEP:
            return s
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a = 1.0
    k = 0.0
    for coeff in _ZETA_A:
        a *= x + k
        b /= w
        t = a * b / coeff
        s += t
        if s != 0.0 and abs(t / s) < _MACHEP:
            return s
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s


# the zipf count search refuses counts above the largest power of two within the bound
_ZIPF_MAX_ATOMS = 1 << (_MAX_TRUNCATED_SUPPORT.bit_length() - 1)


def _zipf_atoms(s: float, near: int = 1) -> int:
    """Atoms of the truncated zipf pmf, counted before it is built.

    The count is the smallest n with relative tail mass below TAIL_TOL.  Its
    search gallops out from ``near``, a neighbouring exponent's count on a
    ramp, and bisects: O(log |count - near|) tail evaluations.
    """
    total = _hurwitz_zeta(s, 1)

    def tail_too_heavy(n):  # False on a NaN tail, so its exponent gets one atom
        return n < 1 or _hurwitz_zeta(s, n + 1) / total >= TAIL_TOL

    # gallop until lo's tail is too heavy and hi's is not
    step = 1
    if tail_too_heavy(near):
        lo = near
        while tail_too_heavy(hi := min(near + step, _ZIPF_MAX_ATOMS)):
            if hi == _ZIPF_MAX_ATOMS:
                raise ValueError(
                    f"zipf exponent {s} needs more than {_MAX_TRUNCATED_SUPPORT} atoms "
                    f"to reach tail mass {TAIL_TOL}; use a larger exponent")
            lo, step = hi, 2 * step
    else:
        hi = near
        while not tail_too_heavy(lo := max(near - step, 0)):
            hi, step = lo, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if tail_too_heavy(mid) else (lo, mid)
    return hi


def _zipf_rows(s: np.ndarray, out: np.ndarray) -> None:
    """Fill each row of ``out`` with the truncated zipf pmf on 1 .. width of one exponent."""
    np.power(np.arange(1, out.shape[1] + 1, dtype=np.int64), -s[:, None], out=out,
             dtype=np.float64)
    out /= np.array([_hurwitz_zeta(x, 1) for x in s.tolist()])[:, None]
    _absorb_remainder(out)


def _stretches(values: np.ndarray) -> list[tuple[int, int]]:
    """[a, z) of each longest stretch of equal values, in order."""
    if values.size == 0:
        return []
    bounds = [0, *(np.flatnonzero(np.diff(values)) + 1).tolist(), values.size]
    return list(zip(bounds[:-1], bounds[1:]))


def _row_buffer(groups: list[tuple[int, int]]) -> tuple[np.ndarray, list[np.ndarray]]:
    """One flat buffer for groups of (rows, width), and each group's 2-D view of it."""
    probs = np.empty(sum(rows * width for rows, width in groups))
    views, at = [], 0
    for rows, width in groups:
        views.append(probs[at:at + rows * width].reshape(rows, width))
        at += rows * width
    return probs, views


# --- the columnar truth ----------------------------------------------------


class Truth:
    """A truth sequence, columnar: run lengths, and the distinct pmfs as rows.

    ``counts[i]`` steps, oldest run first, follow the pmf of row
    ``rows[i]``.  Rows never decrease along the runs, and every row is some
    run's.  Row j puts ``probs[offsets[j] + m]`` on symbol ``starts[j] + m``
    for m below ``widths[j]``, the rows' atoms lying back to back in
    ``probs``; ``blocks`` views each longest stretch of rows of one width as
    a read-only (starts, 2-D probs) pair.  The rows are checked once, as
    ``Pmf`` checks its atoms, except that a zero atom raises instead of
    being dropped, which would split the row's run of symbols.  A drifting
    geometric or zipf schedule keeps one run per step even where steps share
    a row, so that each step stays its own part of a window average.  The
    curves read from the truth are computed once, on first use; the symbols
    the window averages span are charged to the truth bound up front.
    """

    def __init__(self, counts, rows, starts, widths, probs: np.ndarray):
        self.counts, self.rows, self.starts, self.widths = (
            np.asarray(a, dtype=np.int64) for a in (counts, rows, starts, widths))
        self.probs = probs
        self.offsets = np.concatenate(([0], np.cumsum(self.widths)))
        self.depth = dyadic_depth(int(np.sum(self.counts)))
        # window j's average spans its runs, newest first, from their lowest
        # start to their highest end (``_window_average``)
        newest = self.rows[::-1]
        last = np.searchsorted(np.cumsum(self.counts[::-1]), 2 ** np.arange(self.depth + 1))
        spans = (np.maximum.accumulate(self.starts[newest] + self.widths[newest])[last]
                 - np.minimum.accumulate(self.starts[newest])[last])
        if int(np.sum(spans)) > _MAX_TRUNCATED_SUPPORT:
            raise ValueError("the dyadic window averages need more than "
                             f"{_MAX_TRUNCATED_SUPPORT} atoms")
        if self.starts.min() < 0:
            raise ValueError("symbols must be nonnegative integers")
        if not np.all(np.isfinite(self.probs)):
            raise ValueError("probabilities must be finite")
        lowest = self.probs.min()
        if lowest < 0.0:
            raise ValueError("probabilities must be nonnegative")
        if lowest == 0.0:
            raise ValueError("a block row has a zero atom")
        # cached and shared by every caller, so read-only like a Pmf
        for array in (self.counts, self.rows, self.starts, self.widths, self.probs, self.offsets):
            array.setflags(write=False)
        self.blocks = tuple(
            (self.starts[a:z], self.probs[self.offsets[a]:self.offsets[z]].reshape(
                z - a, int(self.widths[a]))) for a, z in _stretches(self.widths))
        for _, block in self.blocks:
            mass = np.sum(block, axis=1)
            worst = float(mass[np.argmax(np.abs(mass - 1.0))])
            if abs(worst - 1.0) > MASS_TOL:
                raise ValueError(f"pmf mass is {worst!r}, not 1 within {MASS_TOL}")
        self.current = self.pmf(self.widths.size - 1)  # the final step's pmf

    def row_probs(self, row: int) -> np.ndarray:
        return self.probs[self.offsets[row]:self.offsets[row + 1]]

    def pmf(self, row: int) -> Pmf:
        """One row as a ``Pmf``."""
        return Pmf(self.starts[row] + np.arange(self.widths[row]), self.row_probs(row))

    @cached_property
    def drift(self) -> np.ndarray:
        """Drift errors for every window size 1..t (read-only)."""
        curve = drift_sequence(self)
        curve.setflags(write=False)
        return curve

    @cached_property
    def window_averages(self) -> tuple[Pmf, ...]:
        """Mean of the most recent 2^j true pmfs, j = 0 .. depth."""
        ends = np.cumsum(self.counts[::-1])
        return tuple(_window_average(self, ends, 2**j) for j in range(self.depth + 1))

    @cached_property
    def window_lambdas(self) -> tuple[float, ...]:
        """Complexity of each window average at its own size."""
        return tuple(lambda_complexity(average, 2**j)
                     for j, average in enumerate(self.window_averages))

    @cached_property
    def window_deltas(self) -> tuple[float, ...]:
        """Drift error of each dyadic window size."""
        return tuple(float(self.drift[2**j - 1]) for j in range(self.depth + 1))


def _atom_chunks(widths: np.ndarray) -> Iterator[slice]:
    """Consecutive slices of rows of these widths, each at most ``CHUNK_ELEMENTS`` atoms.

    A row wider than that is a slice of its own.
    """
    ends = np.cumsum(widths)
    a = 0
    while a < widths.size:
        b = max(a + 1, int(np.searchsorted(ends, ends[a] - widths[a] + CHUNK_ELEMENTS,
                                           side="right")))
        yield slice(a, b)
        a = b


def _window_average(truth: Truth, ends: np.ndarray, r: int) -> Pmf:
    """Mean of the most recent r true pmfs; ``ends`` are the run ends counted from the newest.

    The runs in the window are its parts, newest first, each weighted by
    its steps in the window over r.  Parts are added in that order, atom
    after atom (``np.add.at``, a chunk at a time), onto the range of
    symbols they cover; atoms nothing lands on stay zero, and ``Pmf`` drops
    them.
    """
    parts = int(np.searchsorted(ends, r)) + 1
    weights = truth.counts[::-1][:parts] / r
    weights[-1] = (r - (int(ends[parts - 2]) if parts > 1 else 0)) / r
    rows = truth.rows[::-1][:parts]
    widths, starts = truth.widths[rows], truth.starts[rows]
    lo, hi = int(starts.min()), int((starts + widths).max())
    acc = np.zeros(hi - lo)
    for chunk in _atom_chunks(widths):
        n = widths[chunk]
        within = np.arange(int(np.sum(n))) - np.repeat(np.cumsum(n) - n, n)
        atoms = np.repeat(truth.offsets[rows[chunk]], n) + within
        np.add.at(acc, np.repeat(starts[chunk] - lo, n) + within,
                  np.repeat(weights[chunk], n) * truth.probs[atoms])
    return Pmf(np.arange(lo, hi), acc)


# --- truth sequences -------------------------------------------------------


def _linear_alpha(scenario: DriftScenario, t: int | np.ndarray):
    """Source-symbol mass at step t (or an array of steps): drains to zero at the horizon."""
    return np.minimum((scenario.t - t) * scenario.step_delta, 1.0)


def _charge_truth_size(total: int, atoms: int, pmfs: int = 1) -> int:
    """Add ``pmfs`` distinct pmfs of ``atoms`` atoms each to a truth's running atom total.

    Raises past the bound.  Counts come before any pmf is built, so an
    oversized truth is never built.
    """
    total += pmfs * (atoms + _PMF_OVERHEAD_ATOMS)
    if total > _MAX_TRUNCATED_SUPPORT:
        raise ValueError(f"the truth's distinct pmfs need more than {_MAX_TRUNCATED_SUPPORT}"
                         f" atoms, counting {_PMF_OVERHEAD_ATOMS} per pmf")
    return total


def _linear_truth(scenario: DriftScenario) -> Truth:
    """A saturated point-mass prefix, then one row per step, the last uniform on 1..k."""
    t_max, k = scenario.t, scenario.k
    # alpha never grows with t, so the saturated steps are a prefix
    frozen = bisect_left(range(1, t_max + 1), True,
                         key=lambda t: _linear_alpha(scenario, t) < 1.0)
    # the frozen point mass is charged as one more drifting pmf
    runs = t_max - frozen + bool(frozen)
    _charge_truth_size(0, k + 1, runs)
    alpha = _linear_alpha(scenario, np.arange(frozen + 1, t_max + 1))
    # a drained source (the final step, or every step at a zero rate) is a suffix
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
    return Truth(counts, np.arange(runs), starts, widths, probs)


# chunk of schedule steps evaluated at once
_STEP_CHUNK = 1 << 20
# distinct pmfs beyond this many cannot fit the truth bound, at one atom each
_MAX_DISTINCT_PMFS = _MAX_TRUNCATED_SUPPORT // (1 + _PMF_OVERHEAD_ATOMS)


def _ramp_params(start: float, end: float, t_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Each distinct parameter of a linear schedule and its number of steps, oldest first.

    Step t's parameter is ``start + ramp * (t - 1)``, evaluated a chunk of
    steps at a time in the same float arithmetic as one step at a time.
    The schedule is monotone, so equal parameters are consecutive.  Stops
    at ``_MAX_DISTINCT_PMFS`` + 1 parameters, which the truth bound rejects
    anyway.
    """
    ramp = (end - start) / (t_max - 1)
    values: list[np.ndarray] = []
    steps: list[np.ndarray] = []
    found = 0
    for lo in range(0, t_max, _STEP_CHUNK):
        x = start + ramp * np.arange(lo, min(lo + _STEP_CHUNK, t_max))
        first = np.flatnonzero(np.concatenate(([True], x[1:] != x[:-1])))
        runs = np.diff(first, append=x.size)
        if values and x[0] == values[-1][-1]:
            steps[-1][-1] += runs[0]
            first, runs = first[1:], runs[1:]
        if first.size:
            values.append(x[first])
            steps.append(runs)
            found += first.size
        if found > _MAX_DISTINCT_PMFS:
            break
    keep = _MAX_DISTINCT_PMFS + 1
    return np.concatenate(values)[:keep], np.concatenate(steps)[:keep]


def _ramp_atoms(params: np.ndarray, atoms: Callable[[float, int], int]) -> np.ndarray:
    """Atoms of each distinct ramp parameter, charged to the truth bound oldest first.

    Atom counts are monotone along a monotone ramp, so each run of equal
    counts ends where a galloping bisection finds it: O(log run) counts per
    run rather than one per parameter, none counted twice.  Each count is
    searched from ``near``, the count of the run it extends.  A count that
    fails while looking ahead raises only when its run is reached, after
    every older parameter is charged: the error a walk over the parameters
    in order would raise first.
    """
    seen: dict[int, int | None] = {}

    def peek(i: int, near: int) -> int | None:
        if i not in seen:
            try:
                seen[i] = atoms(float(params[i]), near)
            except ValueError:
                seen[i] = None
        return seen[i]

    size = params.size
    widths = np.empty(size, dtype=np.int64)
    total = i = 0
    n = 1
    while i < size:
        n = peek(i, n)
        if n is None:
            atoms(float(params[i]), 1)  # raises
        # params[lo] has n atoms, and params[hi] (if hi < size) does not
        lo, hi, step = i, size, 1
        while lo + step < hi:
            if peek(lo + step, n) != n:
                hi = lo + step
                break
            lo, step = lo + step, 2 * step
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if peek(mid, n) == n else (lo, mid)
        total = _charge_truth_size(total, n, hi - i)
        widths[i:hi] = n
        i = hi
    return widths


def _schedule_truth(scenario: DriftScenario) -> Truth:
    """One row per distinct parameter, each group of one atom count built at once.

    A flat schedule, or a single step, is one run of one row.
    """
    if scenario.kind == "geometric_drift":
        start, end = scenario.geo_p_start, scenario.geo_p_end
        atoms, family = _geometric_atoms, _geometric_rows
    else:
        start, end = scenario.zipf_s_start, scenario.zipf_s_end
        atoms, family = _zipf_atoms, _zipf_rows
    flat = start == end or scenario.t == 1
    if flat:
        params, steps = np.array([start]), np.array([scenario.t])
        widths = np.array([atoms(start)])
        _charge_truth_size(0, int(widths[0]))
    else:
        params, steps = _ramp_params(start, end, scenario.t)
        widths = _ramp_atoms(params, atoms)
    groups = _stretches(widths)
    probs, views = _row_buffer([(z - a, int(widths[a])) for a, z in groups])
    for (a, z), view in zip(groups, views):
        family(params[a:z], view)
    starts = np.full(params.size, 0 if scenario.kind == "geometric_drift" else 1)
    if flat:
        return Truth(steps, [0], starts, widths, probs)
    # each distinct pmf is built once, but every step keeps its own run
    return Truth(np.ones(scenario.t, dtype=np.int64), np.repeat(np.arange(params.size), steps),
                 starts, widths, probs)


def _uniform_truth(counts, starts, k: int) -> Truth:
    """Runs of uniform pmfs on k consecutive symbols, run i from ``starts[i]``."""
    starts = np.asarray(starts, dtype=np.int64)
    return Truth(counts, np.arange(starts.size), starts, np.full(starts.size, k),
                 np.full(starts.size * k, 1.0 / k))


@lru_cache(maxsize=32)
def segments(scenario: DriftScenario) -> Truth:
    """The scenario's columnar truth, oldest run first, built once per scenario.

    Every size is charged against the truth bound before any row is built.
    """
    t_max, k = scenario.t, scenario.k
    if scenario.kind == "iid":
        return _uniform_truth([t_max], [0], k)
    if scenario.kind == "abrupt":
        m = scenario.change_point
        return _uniform_truth([t_max - m, m], [0, ABRUPT_POST_OFFSET], k)
    if scenario.kind == "rotating_support":
        blocks = -(-t_max // scenario.period)
        _charge_truth_size(0, k, blocks)
        counts = np.full(blocks, scenario.period)
        counts[-1] = t_max - scenario.period * (blocks - 1)
        return _uniform_truth(counts, np.arange(blocks) * k, k)
    if scenario.kind == "linear_drift":
        return _linear_truth(scenario)
    return _schedule_truth(scenario)


def truth_pmfs(scenario: DriftScenario) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The distinct pmfs of the truth sequence, as ``Truth.blocks`` oldest first."""
    return segments(scenario).blocks


def true_pmf(scenario: DriftScenario, t: int) -> Pmf:
    """True distribution at step t (1-based), found from the run lengths."""
    if not 1 <= t <= scenario.t:
        raise ValueError(f"time step {t} outside [1, {scenario.t}]")
    truth = segments(scenario)
    return truth.pmf(int(truth.rows[np.searchsorted(np.cumsum(truth.counts), t)]))


def scenario_delta(scenario: DriftScenario, r: int) -> float:
    """Exact drift error of the most recent r steps, from the true pmfs."""
    if not 1 <= r <= scenario.t:
        raise ValueError(f"window size {r} outside [1, {scenario.t}]")
    return float(segments(scenario).drift[r - 1])


# --- sampling --------------------------------------------------------------


def _trial_rng(scenario: DriftScenario, trial: int) -> np.random.Generator:
    if trial < 0:
        raise ValueError("trial index must be >= 0")
    seed = scenario.seed & 0xFFFFFFFFFFFFFFFF
    return np.random.default_rng(np.random.SeedSequence([seed, trial]))


def _inverse_cdf(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Index of the atom each uniform draw in ``u`` falls on, one ``searchsorted`` call."""
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    return np.minimum(np.searchsorted(cdf, u, side="right"), probs.size - 1)


# atoms of each row's CDF that every draw searches first
_CDF_PREFIX = 32


def _sample_rows(truth: Truth, u: np.ndarray) -> np.ndarray:
    """Inverse CDF of each step's row, without building whole CDFs for most draws.

    Geometric and zipf mass sits in the first atoms, so every draw first
    counts the exact first ``_CDF_PREFIX`` entries of its row's CDF at or
    below it, padded with 1.0 past a shorter row's end.  Only a draw beyond
    them builds its row's whole CDF, one row at a time.
    """
    rows = np.repeat(truth.rows, truth.counts)
    out = np.empty(u.size, dtype=np.int64)
    cols = np.arange(_CDF_PREFIX)
    beyond = []
    for part in row_slices(u.size, _CDF_PREFIX):
        row = rows[part]
        width = truth.widths[row][:, None]
        atom = np.minimum(truth.offsets[row][:, None] + cols, truth.probs.size - 1)
        cdf = np.cumsum(np.where(cols < width, truth.probs[atom], 0.0), axis=1)
        cdf[cols >= width - 1] = 1.0  # each row's last atom, and the padding past it
        # each draw is below 1 and each row ends at 1.0, so the entries at or below a
        # draw are a prefix of its row, and their count is searchsorted(side="right")
        found = np.count_nonzero(cdf <= u[part, None], axis=1)
        out[part] = truth.starts[row] + found
        beyond.append(part.start + np.flatnonzero(found == _CDF_PREFIX))
    beyond = np.concatenate(beyond)
    for a, z in _stretches(rows[beyond]):  # the steps of one row are consecutive
        steps, row = beyond[a:z], int(rows[beyond[a]])
        out[steps] = truth.starts[row] + _inverse_cdf(truth.row_probs(row), u[steps])
    return out


def sample_stream(scenario: DriftScenario, trial: int) -> np.ndarray:
    """Draw one sample per step, oldest first; reproducible from (seed, trial).

    Inverse CDF over each step's sorted symbols: linear drift by a closed
    form across all steps, the uniform kinds and a one-row truth by one CDF
    for the whole stream, geometric and zipf by a count in each step's row.
    """
    rng = _trial_rng(scenario, trial)
    u = rng.random(scenario.t)
    if scenario.kind == "linear_drift":
        # inverse CDF over sorted symbols [0, 1..k], vectorized across steps;
        # steps with a saturated source always emit symbol 0
        alpha = _linear_alpha(scenario, np.arange(1, scenario.t + 1))
        k = scenario.k
        block_mass = np.where(alpha < 1.0, 1.0 - alpha, 1.0)
        offset = np.floor((u - alpha) / block_mass * k)
        block = 1 + np.minimum(offset, k - 1).astype(np.int64)
        return np.where(u < alpha, 0, block).astype(np.int64)
    truth = segments(scenario)
    if truth.widths.size == 1 or scenario.kind in ("iid", "abrupt", "rotating_support"):
        # every row has row 0's probabilities, so a step's sample is its
        # row's first symbol plus a rank shared by all
        return (_inverse_cdf(truth.row_probs(0), u)
                + np.repeat(truth.starts[truth.rows], truth.counts))
    return _sample_rows(truth, u)


# --- scenario config text format ------------------------------------------
#
# key = value lines; blank lines and '#' comments ignored.  Keys: kind, t,
# seed, and the kind-specific parameters.  Unknown keys are an error.

_INT_KEYS = ("t", "seed", "k", "change_point", "period")
_FLOAT_KEYS = ("step_delta", "geo_p_start", "geo_p_end", "zipf_s_start", "zipf_s_end")


def parse_scenario_config(text: str) -> DriftScenario:
    fields: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in fields:
            raise ValueError(f"line {lineno}: repeated key '{key}'")
        if key == "kind":
            fields["kind"] = value
        elif key in _INT_KEYS:
            try:
                fields[key] = int(value)
            except ValueError:
                raise ValueError(f"key '{key}': invalid integer {value!r}") from None
        elif key in _FLOAT_KEYS:
            try:
                fields[key] = float(value)
            except ValueError:
                raise ValueError(f"key '{key}': invalid number {value!r}") from None
        else:
            raise ValueError(f"unknown key '{key}'")
    for key in ("kind", "t", "seed"):
        if key not in fields:
            raise ValueError(f"missing key '{key}'")
    return DriftScenario(**fields)


def load_scenario(path) -> DriftScenario:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_scenario_config(fh.read())
