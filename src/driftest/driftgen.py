"""Drift-scenario generators: ground-truth pmf sequences plus seeded samplers.

Each scenario describes a sequence of true distributions, one per time
step, together with a sampler drawing one independent sample per step.
The truth is held columnar (``Truth``, from ``segments``): the run
lengths of the sequence, oldest first, and its distinct pmfs as rows.
Every truth pmf lies on consecutive symbols, so a row is a first symbol,
a width and a parameter (a geometric p, a zipf exponent and its
normalizer, a linear source mass, or none for a uniform row) from which a
row source writes its probabilities on demand.  ``Truth`` writes every
row once, a chunk at a time, checks it and reads from it the drift curve,
the dyadic window averages and the sampler's CDF prefixes; it is cached
once per scenario, and no ``Pmf`` is built per step.

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

from .dist import MASS_TOL, Pmf, block_tvs, groups, lambda_complexity, row_slices
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


def _zipf_atoms(s: float, near: int = 1, total: float | None = None) -> int:
    """Atoms of the truncated zipf pmf, counted before it is built.

    The count is the smallest n with relative tail mass below TAIL_TOL.  Its
    search gallops out from ``near``, a neighbouring exponent's count on a
    ramp, and bisects: O(log |count - near|) tail evaluations.  ``total``
    is the normalizer ``_hurwitz_zeta(s, 1)``, computed here if not given.
    """
    if total is None:
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
                    f"zipf exponent {s} needs more than {_ZIPF_MAX_ATOMS} atoms "
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


def _zipf_rows(s: np.ndarray, norms: np.ndarray, out: np.ndarray) -> None:
    """Fill each row of ``out`` with the truncated zipf pmf on 1 .. width of one exponent.

    ``norms`` holds each exponent's normalizer, ``_hurwitz_zeta(s, 1)``.
    """
    np.power(np.arange(1, out.shape[1] + 1, dtype=np.int64), -s[:, None], out=out,
             dtype=np.float64)
    out /= norms[:, None]
    _absorb_remainder(out)


def _stretches(values: np.ndarray) -> list[tuple[int, int]]:
    """[a, z) of each longest stretch of equal values, in order."""
    if values.size == 0:
        return []
    bounds = [0, *(np.flatnonzero(np.diff(values)) + 1).tolist(), values.size]
    return list(zip(bounds[:-1], bounds[1:]))


# --- row sources ------------------------------------------------------------
#
# A row source ``fill(a, z, out)`` writes the probabilities of rows [a, z),
# all of one width, into the 2-D ``out``.  It keeps each row's parameter,
# never its atoms, except for rows given as an array.


def _uniform_rows(a: int, z: int, out: np.ndarray) -> None:
    """Rows uniform over their width; a row of width one is a point mass."""
    out[:] = 1.0 / out.shape[1]


def _linear_rows(k: int, alpha: np.ndarray) -> Callable:
    """The source of linear drift: a row of width k + 1 puts ``alpha`` on symbol 0.

    Its other k atoms share the rest; the frozen point mass and the rows of
    a drained source are uniform over their width.
    """
    def fill(a: int, z: int, out: np.ndarray) -> None:
        if out.shape[1] == k + 1:
            out[:, 0] = alpha[a:z]
            out[:, 1:] = ((1.0 - alpha[a:z]) / k)[:, None]
        else:
            _uniform_rows(a, z, out)
    return fill


def _array_rows(probs, widths: np.ndarray) -> Callable:
    """The source of rows given as one array of their atoms back to back."""
    probs = np.asarray(probs, dtype=np.float64)
    offsets = np.concatenate(([0], np.cumsum(widths)))

    def fill(a: int, z: int, out: np.ndarray) -> None:
        out[:] = probs[offsets[a]:offsets[z]].reshape(out.shape)
    return fill


# --- the columnar truth ----------------------------------------------------

# atoms of each row's CDF that every draw searches first
_CDF_PREFIX = 32
# rows this wide on average are added to the window sums one at a time: a few
# vector operations per row then cost less than making temporaries of a chunk's size
WIDE_ROW = 256


class Truth:
    """A truth sequence, columnar: run lengths, and the distinct pmfs as rows.

    ``counts[i]`` steps, oldest run first, follow the pmf of row
    ``rows[i]``.  Rows never decrease along the runs, and every row is some
    run's.  Row j puts ``widths[j]`` probabilities on the consecutive
    symbols from ``starts[j]``.  They are not kept: ``probs`` is a row
    source (see above) that writes them from each row's parameter when they
    are read, or an array of all rows' atoms back to back.

    The rows are written once as the truth is built, a chunk of at most
    ``CHUNK_ELEMENTS`` atoms (or one row) at a time, newest chunk first
    (``_chunks``), and each chunk is read at once by every reader: the
    checks, which are ``Pmf``'s except that a zero atom raises instead of
    being dropped, which would split the row's run of symbols; each row's
    TV to the final pmf, whose running max over the runs, newest first, is
    the drift error of every window ending in each run (``run_drift``); with
    ``prefixes``, each row's first ``_CDF_PREFIX`` atoms, which the sampler
    searches first; and the dyadic window averages (``_WindowSums``).  So a
    truth holds O(runs + prefix atoms) numbers and its window
    averages, and one chunk while it is built.  A drifting geometric or
    zipf schedule keeps one run per step even where steps share a row, so
    that each step stays its own part of a window average.  The symbols the
    window averages span are charged to the truth bound up front.
    """

    def __init__(self, counts, rows, starts, widths, probs, prefixes: bool = True):
        self.counts, self.rows, self.starts, self.widths = (
            np.asarray(a, dtype=np.int64) for a in (counts, rows, starts, widths))
        self._fill = probs if callable(probs) else _array_rows(probs, self.widths)
        self.run_ends = np.cumsum(self.counts[::-1])  # the run ends, counted from the newest
        self.depth = dyadic_depth(int(self.run_ends[-1]))
        sums = _WindowSums(self, [2**j for j in range(self.depth + 1)])
        if self.starts.min() < 0:
            raise ValueError("symbols must be nonnegative integers")
        # cached and shared by every caller, so read-only like a Pmf
        for array in (self.counts, self.rows, self.starts, self.widths, self.run_ends):
            array.setflags(write=False)
        self._scan(sums, prefixes)
        self.window_averages = sums.averages()  # mean of the most recent 2^j pmfs

    def _scan(self, sums: _WindowSums, prefixes: bool) -> None:
        """Write every row once and hand each chunk to every reader.

        Once a check fails the other readers stop, but the checks run on,
        so that the error is the one a check of all rows at once raises
        first.  The newest chunk comes first, and its last row is the final
        step's pmf, ``current``.
        """
        n = self.widths.size
        gaps = np.empty(n)
        if prefixes:
            self.prefix_at = np.concatenate(([0], np.cumsum(np.minimum(self.widths,
                                                                        _CDF_PREFIX))))
            self.prefix = np.empty(int(self.prefix_at[-1]))
        finite, lowest, off = True, math.inf, n  # off: the oldest row whose mass is off
        for a, z, atoms in self._chunks():
            bounds = np.concatenate(([0], np.cumsum(self.widths[a:z])))
            finite = finite and bool(np.all(np.isfinite(atoms)))
            lowest = min(lowest, float(atoms.min()))
            for lo, hi in _stretches(self.widths[a:z]):
                mass = np.sum(atoms[bounds[lo]:bounds[hi]].reshape(hi - lo, -1), axis=1)
                wrong = np.flatnonzero(np.abs(mass - 1.0) > MASS_TOL)
                if wrong.size:
                    off = min(off, a + lo + int(wrong[0]))
            if not finite or lowest <= 0.0 or off < n:
                continue
            if z == n:
                self.current = Pmf(self.starts[-1] + np.arange(bounds[-1] - bounds[-2]),
                                   atoms[bounds[-2]:])
            symbols = np.repeat(self.starts[a:z] - bounds[:-1], self.widths[a:z])
            symbols += np.arange(atoms.size)
            gaps[a:z] = block_tvs([(symbols, atoms, bounds)], [self.current])
            del symbols
            if prefixes:
                at = self.prefix_at[a:z + 1]
                self.prefix[at[0]:at[-1]] = atoms if at[-1] - at[0] == atoms.size else atoms[
                    np.repeat(bounds[:-1] - (at[:-1] - at[0]), np.diff(at))
                    + np.arange(at[-1] - at[0])]
            sums.add(a, z, atoms, bounds)
        if not finite:
            raise ValueError("probabilities must be finite")
        if lowest < 0.0:
            raise ValueError("probabilities must be nonnegative")
        if lowest == 0.0:
            raise ValueError("a block row has a zero atom")
        if off < n:
            # the oldest stretch of one width with a row off names its worst row
            a, z = next((a, z) for a, z in _stretches(self.widths) if off < z)
            mass = np.sum(self._rows(a, z).reshape(z - a, -1), axis=1)
            worst = float(mass[np.argmax(np.abs(mass - 1.0))])
            raise ValueError(f"pmf mass is {worst!r}, not 1 within {MASS_TOL}")
        self.run_drift = np.maximum.accumulate(gaps[self.rows[::-1]])
        self.run_drift.setflags(write=False)
        if prefixes:
            self.prefix.setflags(write=False)

    def _chunks(self) -> Iterator[tuple[int, int, np.ndarray]]:
        """Rows [a, z) and their atoms back to back, newest chunk first.

        A chunk holds at most ``CHUNK_ELEMENTS`` atoms, or one row (``groups``).
        """
        for part in reversed(groups(self.widths)):
            yield part.start, part.stop, self._rows(part.start, part.stop)

    def _rows(self, a: int, z: int) -> np.ndarray:
        """The atoms of rows [a, z) back to back, written anew by the row source."""
        widths = self.widths[a:z]
        atoms = np.empty(int(np.sum(widths)))
        at = 0
        for lo, hi in _stretches(widths):
            block = atoms[at:at + (hi - lo) * int(widths[lo])].reshape(hi - lo, -1)
            self._fill(a + lo, a + hi, block)
            at += block.size
        return atoms

    def row_probs(self, row: int) -> np.ndarray:
        """One row's probabilities, written anew."""
        return self._rows(row, row + 1)

    def pmf(self, row: int) -> Pmf:
        """One row as a ``Pmf``."""
        return Pmf(self.starts[row] + np.arange(self.widths[row]), self.row_probs(row))

    @property
    def blocks(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Each longest stretch of rows of one width as a read-only (starts, 2-D probs) pair.

        Oldest first, and written anew on each read: it holds every atom.
        """
        out = []
        for a, z in _stretches(self.widths):
            probs = self._rows(a, z).reshape(z - a, -1)
            probs.setflags(write=False)
            out.append((self.starts[a:z], probs))
        return tuple(out)

    def drift_at(self, r):
        """The drift error of the r most recent steps, for a size or an array of sizes.

        They end in the first run whose ``run_ends`` entry reaches r.
        """
        return self.run_drift[self.run_ends.searchsorted(r)]

    @cached_property
    def window_lambdas(self) -> tuple[float, ...]:
        """Complexity of each window average at its own size."""
        return tuple(lambda_complexity(average, 2**j)
                     for j, average in enumerate(self.window_averages))

    @cached_property
    def window_deltas(self) -> tuple[float, ...]:
        """Drift error of each dyadic window size."""
        return tuple(self.drift_at(2 ** np.arange(self.depth + 1)).tolist())


class _WindowSums:
    """The means of a truth's most recent r pmfs, one per r in ``rs``, summed as its rows arrive.

    The runs in a window are its parts, newest first, each weighted by its
    steps in the window over r.  The rows arrive newest chunk first
    (``add``), so each window adds its parts in that order, atom after
    atom, onto the range of symbols they cover; atoms nothing lands on stay
    zero, and ``Pmf`` drops them.  The ranges are charged to the truth
    bound before any is allocated.
    """

    def __init__(self, truth: Truth, rs: list[int]):
        self.truth = truth
        ends = truth.run_ends
        parts = np.searchsorted(ends, rs) + 1
        self.reach = int(parts.max())  # the runs any window holds
        newest = truth.rows[::-1]
        lo = np.minimum.accumulate(truth.starts[newest])[parts - 1]
        hi = np.maximum.accumulate(truth.starts[newest] + truth.widths[newest])[parts - 1]
        if int(np.sum(hi - lo)) > _MAX_TRUNCATED_SUPPORT:
            raise ValueError("the dyadic window averages need more than "
                             f"{_MAX_TRUNCATED_SUPPORT} atoms")
        # each window's size, parts, oldest part's weight and first symbol
        self.windows = [(r, n, (r - (int(ends[n - 2]) if n > 1 else 0)) / r, first)
                        for r, n, first in zip(rs, parts.tolist(), lo.tolist())]
        self.sums = [np.zeros(span) for span in (hi - lo).tolist()]

    def add(self, a: int, z: int, atoms: np.ndarray, bounds: np.ndarray) -> None:
        """Add rows [a, z), row i's atoms at ``bounds[i - a]``, to every window holding them.

        Rows of ``WIDE_ROW`` atoms or more on average are added a slice per
        part; narrower ones by ``np.add.at``, at most ``CHUNK_ELEMENTS``
        atoms at a time.  Either way each sum takes its parts in order.
        """
        truth = self.truth
        runs = truth.rows.size
        # the runs of these rows that some window holds, counted from the newest
        k0 = runs - int(np.searchsorted(truth.rows, z))
        k1 = min(runs - int(np.searchsorted(truth.rows, a)), self.reach)
        rows = truth.rows[runs - k1:runs - k0][::-1]
        widths, at, to = truth.widths[rows], bounds[rows - a], truth.starts[rows]
        wide = bounds[-1] >= WIDE_ROW * (z - a)
        for (r, parts, last, lo), acc in zip(self.windows, self.sums):
            held = min(parts, k1) - k0
            if held <= 0:
                continue
            weights = truth.counts[runs - k0 - held:runs - k0][::-1] / r
            if k0 + held == parts:
                weights[-1] = last
            if wide:
                for b, s, n, weight in zip(at[:held].tolist(), (to[:held] - lo).tolist(),
                                           widths[:held].tolist(), weights.tolist()):
                    acc[s:s + n] += weight * atoms[b:b + n]
                continue
            for part in groups(widths[:held]):
                n = widths[part]
                within = np.arange(int(np.sum(n))) - np.repeat(np.cumsum(n) - n, n)
                np.add.at(acc, np.repeat(to[part] - lo, n) + within,
                          np.repeat(weights[part], n) * atoms[np.repeat(at[part], n) + within])

    def averages(self) -> tuple[Pmf, ...]:
        """The window averages, each holding its sum without a copy (``Pmf._adopt``).

        The windows are nested, and their symbols are read-only views of one
        ``np.arange`` over the widest span; an average that drops a zero atom
        keeps its own copies.
        """
        first = self.windows[-1][3]  # the last window is the widest
        symbols = np.arange(first, first + self.sums[-1].size)
        symbols.setflags(write=False)
        out = []
        for *_, lo in self.windows:
            acc = self.sums.pop(0)
            out.append(Pmf._adopt(symbols[lo - first:lo - first + acc.size], acc))
        return tuple(out)


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
    # each row's source mass: the frozen point mass's 1, then one per step
    alpha = np.concatenate(([1.0] if frozen else [],
                            _linear_alpha(scenario, np.arange(frozen + 1, t_max + 1))))
    # a drained source (the final step, or every step at a zero rate) is a suffix
    drained = int(np.count_nonzero(alpha == 0.0))
    counts = np.ones(runs, dtype=np.int64)
    counts[0] = max(frozen, 1)
    starts = np.concatenate([np.zeros(runs - drained, dtype=np.int64),
                             np.ones(drained, dtype=np.int64)])
    widths = np.repeat([1, k + 1, k], [int(bool(frozen)), runs - drained - bool(frozen), drained])
    return Truth(counts, np.arange(runs), starts, widths, _linear_rows(k, alpha), prefixes=False)


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
    """One row per distinct parameter, written from its parameter when read.

    A flat schedule, or a single step, is one run of one row.  A zipf row
    keeps its exponent's normalizer, which the atom count's search shares.
    """
    if scenario.kind == "geometric_drift":
        start, end = scenario.geo_p_start, scenario.geo_p_end
        atoms = _geometric_atoms
    else:
        start, end = scenario.zipf_s_start, scenario.zipf_s_end
        norms: dict[float, float] = {}

        def atoms(s: float, near: int = 1) -> int:
            norms[s] = _hurwitz_zeta(s, 1)
            return _zipf_atoms(s, near, norms[s])
    flat = start == end or scenario.t == 1
    if flat:
        params, steps = np.array([start]), np.array([scenario.t])
        widths = np.array([atoms(start)])
        _charge_truth_size(0, int(widths[0]))
    else:
        params, steps = _ramp_params(start, end, scenario.t)
        widths = _ramp_atoms(params, atoms)
    if scenario.kind == "geometric_drift":
        def rows(a: int, z: int, out: np.ndarray) -> None:
            _geometric_rows(params[a:z], out)
    else:
        norm = np.array([norms[s] if s in norms else _hurwitz_zeta(s, 1)
                         for s in params.tolist()])

        def rows(a: int, z: int, out: np.ndarray) -> None:
            _zipf_rows(params[a:z], norm[a:z], out)
    starts = np.full(params.size, 0 if scenario.kind == "geometric_drift" else 1)
    if flat:
        return Truth(steps, [0], starts, widths, rows, prefixes=False)
    # each distinct pmf is one row, but every step keeps its own run
    return Truth(np.ones(scenario.t, dtype=np.int64), np.repeat(np.arange(params.size), steps),
                 starts, widths, rows)


def _uniform_truth(counts, starts, k: int) -> Truth:
    """Runs of uniform pmfs on k consecutive symbols, run i from ``starts[i]``."""
    starts = np.asarray(starts, dtype=np.int64)
    return Truth(counts, np.arange(starts.size), starts, np.full(starts.size, k),
                 _uniform_rows, prefixes=False)


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
    return float(segments(scenario).drift_at(r))


# --- sampling --------------------------------------------------------------


def _trial_rng(scenario: DriftScenario, trial: int) -> np.random.Generator:
    if trial < 0:
        raise ValueError("trial index must be >= 0")
    seed = scenario.seed & 0xFFFFFFFFFFFFFFFF
    return np.random.default_rng(np.random.SeedSequence([seed, trial]))


def _cdf(probs: np.ndarray) -> np.ndarray:
    """The CDF the draws are inverted on: the cumulative sum, its last entry set to 1.0."""
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    return cdf


def _inverse_cdf(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Index of the atom each uniform draw in ``u`` falls on, one ``searchsorted`` call."""
    return np.minimum(np.searchsorted(_cdf(probs), u, side="right"), probs.size - 1)


def _uniform_ranks(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``_inverse_cdf(probs, u)`` for k equal ``probs``, without a search for most draws.

    Each draw's rank is guessed as g = floor(u k) and kept where
    cdf[g - 1] <= u < cdf[g], with 0 before the first entry.  The entries
    above a draw below 1.0 are a suffix of the CDF, so such a g is the
    count of entries at or below u, which ``searchsorted(side="right")``
    returns.  Only the draws whose guess fails are searched.  ``u`` may
    have any shape.
    """
    cdf = _cdf(probs)
    # a guess of k, which u k may round up to, fails against the 1.0 at edges[k]
    edges = np.concatenate(([0.0], cdf, [1.0]))
    guess = (u * probs.size).astype(np.int64)
    miss = np.flatnonzero((edges[guess] > u) | (u >= edges[guess + 1]))
    guess.ravel()[miss] = np.searchsorted(cdf, u.ravel()[miss], side="right")
    return guess


def _sample_rows(truth: Truth, u: np.ndarray) -> np.ndarray:
    """Inverse CDF of each step's row for a block of draws, one trial per row of ``u``.

    Geometric and zipf mass sits in the first atoms, so every draw first
    counts the exact first ``_CDF_PREFIX`` entries of its step's row's CDF
    at or below it, padded with 1.0 past a shorter row's end; each step's
    prefix is built, from the atoms ``Truth`` keeps, once for all the
    block's trials.  Only a draw beyond it writes its row anew and builds
    the row's whole CDF, one row at a time for all the draws that need it.
    """
    m, t = u.shape
    rows = np.repeat(truth.rows, truth.counts)
    out = np.empty(u.shape, dtype=np.int64)
    cols = np.arange(_CDF_PREFIX)
    beyond = []
    for steps in row_slices(t, _CDF_PREFIX):
        row = rows[steps]
        width = truth.widths[row][:, None]
        atom = np.minimum(truth.prefix_at[row][:, None] + cols, truth.prefix.size - 1)
        cdf = np.cumsum(np.where(cols < width, truth.prefix[atom], 0.0), axis=1)
        cdf[cols >= width - 1] = 1.0  # each row's last atom, and the padding past it
        first = truth.starts[row]
        for trials in row_slices(m, cdf.size):
            # each draw is below 1 and each row ends at 1.0, so the entries at or below
            # a draw are a prefix of its row, and their count is searchsorted(side="right")
            found = np.count_nonzero(cdf <= u[trials, steps, None], axis=2)
            out[trials, steps] = first + found
            trial, step = np.nonzero(found == _CDF_PREFIX)
            beyond.append((trials.start + trial) * t + steps.start + step)
    beyond = np.concatenate(beyond)
    # the steps of one row are consecutive, so after a stable sort by step so are its draws
    beyond = beyond[np.argsort(beyond % t, kind="stable")]
    flat_u, flat_out = u.ravel(), out.ravel()
    for a, z in _stretches(rows[beyond % t]):
        draws, row = beyond[a:z], int(rows[beyond[a] % t])
        flat_out[draws] = truth.starts[row] + _inverse_cdf(truth.row_probs(row), flat_u[draws])
    return out


def sample_streams(scenario: DriftScenario, lo: int, hi: int) -> np.ndarray:
    """The streams of trials lo .. hi-1 as the rows of one block, each oldest sample first.

    Row i is ``sample_stream(scenario, lo + i)``, bit for bit: each trial
    draws its uniforms from its own generator (``_trial_rng``), and every
    inverse CDF acts draw by draw, so a block maps each trial's draws as
    that trial alone maps them.
    """
    u = np.empty((hi - lo, scenario.t))
    for i, trial in enumerate(range(lo, hi)):
        _trial_rng(scenario, trial).random(out=u[i])
    if scenario.kind == "linear_drift":
        # inverse CDF over sorted symbols [0, 1..k], vectorized across steps;
        # steps with a saturated source always emit symbol 0
        # (in place, so that a block holds no more than two arrays of its size)
        alpha = _linear_alpha(scenario, np.arange(1, scenario.t + 1))
        k = scenario.k
        offset = u - alpha
        offset /= np.where(alpha < 1.0, 1.0 - alpha, 1.0)  # the block's mass
        offset *= k
        np.floor(offset, out=offset)
        np.minimum(offset, k - 1, out=offset)
        block = offset.astype(np.int64)
        block += 1
        block[u < alpha] = 0
        return block
    truth = segments(scenario)
    # every row has the final one's probabilities, so a step's sample is its
    # row's first symbol plus a rank read from one CDF
    if scenario.kind in ("iid", "abrupt", "rotating_support"):
        ranks = _uniform_ranks(truth.current.probs, u)
    elif truth.widths.size == 1:
        ranks = _inverse_cdf(truth.current.probs, u)
    else:
        return _sample_rows(truth, u)
    return ranks + np.repeat(truth.starts[truth.rows], truth.counts)


def sample_stream(scenario: DriftScenario, trial: int) -> np.ndarray:
    """Draw one sample per step, oldest first; reproducible from (seed, trial).

    Inverse CDF over each step's sorted symbols: linear drift by a closed
    form across all steps, the uniform kinds and a one-row truth by one CDF
    for the whole stream, geometric and zipf by a count in each step's row.
    The one-row case of ``sample_streams``.
    """
    return sample_streams(scenario, trial, trial + 1)[0]


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
