"""Adaptive window selection over the dyadic ladder, with baselines.

The estimator walks the dyadic windows from small to large, keeping a list
of candidates whose statistical-error bounds strictly decrease.  Before a
new candidate is accepted, its empirical distribution is compared with
every accepted window: a total variation gap of at least three times the
old bound plus the new bound certifies that real drift separates the two
windows, so extending further cannot help and the walk stops.  The
returned estimate is always the largest accepted window.  Windows, the
estimate and the baselines are all ``Pmf``s.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .dist import (CHUNK_ELEMENTS, Block, Pmf, _cat, groups, lambda_complexity, row_edges,
                   row_slices, sorted_runs, sorted_union)
from .windows import (as_stream, build_ladder, check_delta, ladder_phis, ladder_xis,
                      union_log_weight)


@dataclass(frozen=True)
class CandidateRecord:
    """One dyadic window accepted into the candidate list."""

    index: int
    size: int
    phi: float
    xi: float

    def __post_init__(self):
        if self.size != 2**self.index:
            raise ValueError("candidate size must be 2**index")
        if self.xi < self.phi:
            raise ValueError("xi must dominate phi")


@dataclass(frozen=True)
class Comparison:
    """One evaluation of the stop test between accepted window l and candidate j."""

    l: int
    j: int
    tv: float
    threshold: float


@dataclass(frozen=True)
class StopReason:
    kind: str  # "exhausted" or "violation"
    j: int | None = None
    l: int | None = None

    def to_json_obj(self) -> dict:
        if self.kind == "exhausted":
            return {"kind": "exhausted"}
        return {"kind": "violation", "j": self.j, "l": self.l}


@dataclass(frozen=True, eq=False)
class EstimateResult:
    """Chosen window, its estimate, and the full decision trace.

    ``compared`` holds the stop test's evaluations as four aligned lists:
    accepted window l, candidate j, their TV and the threshold.
    ``comparisons`` makes them ``Comparison`` records on first read.
    """

    chosen_window: int
    estimate: Pmf
    accepted: tuple[CandidateRecord, ...]
    stop: StopReason
    compared: tuple[list[int], list[int], list[float], list[float]]

    @cached_property
    def comparisons(self) -> tuple[Comparison, ...]:
        return tuple(map(Comparison, *self.compared))

    def _trace_json_obj(self) -> dict:
        return {
            "accepted": [{"j": c.index, "r": c.size, "phi": c.phi, "xi": c.xi}
                         for c in self.accepted],
            "stop": self.stop.to_json_obj(),
            "comparisons": [{"l": l, "j": j, "tv": tv, "threshold": threshold}
                            for l, j, tv, threshold in zip(*self.compared)],
        }

    def to_json_obj(self) -> dict:
        return {"chosen_window": self.chosen_window, "estimate": self.estimate.to_json_obj(),
                **self._trace_json_obj()}

    def write_json(self, fh) -> None:
        """Write ``json.dumps(self.to_json_obj())``; the estimate writes its own atoms."""
        fh.write(f'{{"chosen_window": {self.chosen_window}, "estimate": ')
        self.estimate.write_json(fh)
        fh.write(", " + json.dumps(self._trace_json_obj())[1:])


def adaptive_estimate(stream, delta: float) -> EstimateResult:
    """Estimate the current distribution of a drifting stream.

    Deterministic in (stream, delta): builds the dyadic ladder of the
    stream and walks it (see ``walk_ladder``).
    """
    check_delta(delta)
    ladder = build_ladder(stream)
    phis = ladder_phis(ladder)
    return walk_ladder(ladder, phis, ladder_xis(phis, delta))


def walk_ladder(ladder: Sequence[Pmf], phis: Sequence[float],
                xis: Sequence[float]) -> EstimateResult:
    """Run the adaptive window selection over an already built ladder.

    ``phis`` and ``xis`` are the windows' complexities and statistical-error
    bounds, ``ladder_phis(ladder)`` and ``ladder_xis(phis, delta)``.  The
    walk is the one-row ``walk_block``, exact only on windows of counts:
    window j's probabilities must be counts over 2^j, as ``build_ladder``
    makes them, or it raises.  The evaluations are plain lists
    (``EstimateResult.compared``); the estimate copies the chosen window.
    """
    for j, window in enumerate(ladder):
        for part in row_slices(window.probs.size, 1):
            if np.fmod(window.probs[part] * 2.0**j, 1.0).any():
                raise ValueError(f"window {j}'s probabilities are not counts over 2^{j}")
    walk = walk_block([(w.symbols, w.probs, np.array([0, w.symbols.size])) for w in ladder],
                      np.array([xis]))
    indices = walk.accepted[0].nonzero()[0].tolist()
    j, l = walk.stop[0].tolist()
    window = ladder[indices[-1]]
    return EstimateResult(
        chosen_window=2**indices[-1],
        estimate=Pmf(window.symbols, window.probs),
        accepted=tuple(CandidateRecord(c, 2**c, phis[c], xis[c]) for c in indices),
        stop=StopReason("exhausted") if j < 0 else StopReason("violation", j=j, l=l),
        compared=walk.compared(0),
    )


@dataclass(frozen=True, eq=False)
class BlockWalk:
    """The walks of a block of trials.

    ``accepted`` has a row per trial and a column per window index, true
    where the trial accepted the window; ``stop`` holds each trial's
    violating (j, l), or (-1, -1) where it ran out of windows; ``records``
    holds the evaluations in the order they were made, as arrays of
    (trials, l, j, TVs, thresholds), a candidate index at a time.
    """

    accepted: np.ndarray
    stop: np.ndarray
    records: list[tuple[np.ndarray, ...]]

    @property
    def chosen(self) -> np.ndarray:
        """Each trial's chosen window index: the largest it accepted."""
        return self.accepted.shape[1] - 1 - self.accepted[:, ::-1].argmax(axis=1)

    def compared(self, i: int) -> tuple[list[int], list[int], list[float], list[float]]:
        """Trial i's evaluations as ``EstimateResult.compared`` holds them."""
        columns = [[], [], [], []]
        for trials, *values in self.records:
            mine = trials == i
            for column, value in zip(columns, values):
                column += value[mine].tolist()
        return tuple(columns)


def walk_block(windows: Sequence[Block], xis: np.ndarray) -> BlockWalk:
    """The adaptive walk of every trial of a block, in lockstep over the window indices.

    ``windows[c]`` holds the block's windows of index c, of counts over 2^c
    (``LadderBlock.block``), a row per trial; row i of ``xis`` holds trial
    i's bounds.  A trial considers index j only when xi_j is strictly below
    every bound it accepted (the last, since they decrease), and then
    compares each accepted window l < j with its window j, in order of l,
    up to the first pair whose TV reaches 3 xi_l + xi_j (>=).  A trial's
    windows are nested, so a pair's TV is exactly (sum over window l's
    symbols of |c_l 2^(j-l) - c_j|, plus 2^j less c_j's sum there) over
    2^(j+1), c the counts: ``tv_distance``'s float in any order of
    summation.  An index's pairs go a chunk at a time (``groups``).
    """
    m, depth = xis.shape
    # where each trial would accept: below the least bound before it
    accepts = np.ones((m, depth), dtype=bool)
    accepts[:, 1:] = xis[:, 1:] < np.minimum.accumulate(xis, axis=1)[:, :-1]
    # the pairs each trial compares unless it stops first: index by index,
    # each index's in order of l, and trial by trial, so that the pairs of
    # trials that follow one another lie back to back in window l
    js, ls, trials = (accepts.T[:, None, :] & accepts.T
                      & np.tri(depth, k=-1, dtype=bool)[:, :, None]).nonzero()
    at = js.searchsorted(np.arange(depth + 1)).tolist()  # index j's at at[j]:at[j + 1]
    bounds = np.stack([bounds for _, _, bounds in windows], axis=1)  # a column per index
    firsts = bounds[trials, ls]
    sizes = bounds[trials + 1, ls] - firsts
    thresholds = 3.0 * xis[trials, ls] + xis[trials, js]
    keys = _keys(windows, bounds) if m > 1 else [symbols for symbols, _, _ in windows]
    probs = [probs for _, probs, _ in windows]
    stop = np.full((m, 2), -1)
    walking = np.ones(m, dtype=bool)
    records = []
    for j in range(1, depth):
        pairs = slice(at[j], at[j + 1])
        if not walking.all():  # only the trials still walking
            pairs = np.arange(at[j], at[j + 1])[walking[trials[pairs]]]
        t, l, f, n = trials[pairs], ls[pairs], firsts[pairs], sizes[pairs]
        if not t.size:
            continue
        tvs = _cat([_pair_tvs(keys, probs, j, l[part], f[part], n[part]) for part in groups(n)])
        # each trial's pairs up to its first hit, which stops its walk
        shown = slice(None)
        hits = (tvs >= thresholds[pairs]).nonzero()[0]
        if hits.size:
            stopped, first = np.unique(t[hits], return_index=True)
            first = hits[first]
            up_to = np.full(m, tvs.size)
            up_to[stopped] = first
            shown = np.arange(tvs.size) <= up_to[t]
            stop[stopped, 0], stop[stopped, 1] = j, l[first]
            walking[stopped] = False
        records.append(tuple(column[shown] for column in (
            t, l, js[pairs], tvs, thresholds[pairs])))
    # a stopped trial accepted only the windows below the index it stopped at
    accepts &= np.arange(depth) < np.where(stop[:, :1] < 0, depth, stop[:, :1])
    return BlockWalk(accepts, stop, records)


def _pair_tvs(keys: list[np.ndarray], probs: list[np.ndarray], j: int, ls: np.ndarray,
              firsts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The TVs of pairs of windows l < j, pair i's window l the ``sizes[i]`` atoms
    from ``firsts[i]`` of index ``ls[i]``'s: each (S + 1) / 2, S the sum of
    |p_l - p_j| - p_j, integers over 2^j, over window l's symbols.
    """
    # runs of pairs whose atoms lie back to back in one index's windows, each
    # from its head's first atom to its tail's end
    ends = firsts + sizes
    head = np.ones(ls.size + 1, dtype=bool)
    head[1:-1] = (ls[1:] != ls[:-1]) | (firsts[1:] != ends[:-1])
    at = list(zip(ls[head[:-1]].tolist(), firsts[head[:-1]].tolist(), ends[head[1:]].tolist()))
    symbols = _cat([keys[c][a:b] for c, a, b in at])
    within = keys[j].searchsorted(symbols)
    if (keys[j].take(within, mode="clip") != symbols).any():
        raise ValueError("a support is not within the one it is compared with")
    there = probs[j][within]
    del symbols, within  # a lone pair's temporaries are its window's size: at most two at once
    terms = _cat([probs[c][a:b] for c, a, b in at]) - there
    np.abs(terms, out=terms)
    terms -= there
    return 0.5 * (np.add.reduceat(terms, row_edges(sizes)[:-1]) + 1.0)


def _keys(windows: Sequence[Block], bounds: np.ndarray) -> list[np.ndarray]:
    """Each index's windows' symbols as (trial, symbol) keys, which ascend trial by trial.

    A key is the symbol less the block's least, plus the trial times the
    block's span; a block whose keys would pass int64 raises.  Column c of
    ``bounds`` bounds the windows of index c.
    """
    low = min(int(symbols.min()) for symbols, _, _ in windows)
    high = max(int(symbols.max()) for symbols, _, _ in windows)
    m = bounds.shape[0] - 1
    if (m - 1) * (high - low + 1) > np.iinfo(np.int64).max - high:
        raise ValueError("the block's symbols span too wide a range to key them by trial")
    offsets = np.arange(m) * (high - low + 1) - low
    return [symbols + offsets.repeat(np.diff(bounds[:, c]))
            for c, (symbols, _, _) in enumerate(windows)]


def fixed_window_estimate(stream, r: int) -> Pmf:
    """Empirical distribution of the most recent r samples: one sort and one run-length pass."""
    arr = as_stream(stream)
    if isinstance(r, bool) or not isinstance(r, (int, np.integer)):
        raise ValueError(f"window size {r!r} is not an integer")
    if not 1 <= r <= arr.size:
        raise ValueError(f"window size {r} outside [1, {arr.size}]")
    symbols, counts, _ = sorted_runs(np.sort(arr[arr.size - r:])[None])
    return Pmf._adopt(symbols, counts / float(r))


def drift_sequence(truth) -> np.ndarray:
    """Drift-error sequence of a ``driftgen.Truth``, one value per window size 1..T.

    Entry r-1 is the largest total variation distance from the final
    distribution to any of the r most recent ones: the truth's drift per
    run (``Truth.run_drift``) repeated over the runs' steps.  It starts at
    0 and never decreases.
    """
    return truth.drift_at(np.arange(1, int(truth.run_ends[-1]) + 1))


def q_curve(current: Pmf, drift: np.ndarray, delta: float, first: int = 1) -> np.ndarray:
    """Idealized selection objective over window sizes first .. first + len(drift) - 1.

    Complexity of the current distribution at budget r, plus the
    union-weighted deviation term, plus the drift error at r (``drift``
    holds the ``drift_sequence`` of the truth at those sizes).  Every value
    is computed elementwise, so it does not depend on the range asked for.
    """
    rs = np.arange(first, first + drift.size, dtype=np.float64)
    deviation = np.sqrt(union_log_weight(rs, delta) / rs)
    return lambda_complexity(current, rs) + deviation + drift


def q_minimum(truth, delta: float) -> tuple[float, int]:
    """(q*, r*): the objective's least value over window sizes 1..T and its largest argmin.

    ``q_curve`` of a ``driftgen.Truth``'s current pmf, one
    ``CHUNK_ELEMENTS`` of sizes at a time, so that no T-length array is
    made; a later block's tie wins, as the larger r.
    """
    t = int(truth.run_ends[-1])
    best = (math.inf, 0)
    for first in range(1, t + 1, CHUNK_ELEMENTS):
        sizes = np.arange(first, min(first + CHUNK_ELEMENTS, t + 1))
        q = q_curve(truth.current, truth.drift_at(sizes), delta, first)
        i = argmin_prefer_large(q)
        if q[i] <= best[0]:
            best = (float(q[i]), first + i)
    return best


def argmin_prefer_large(values: np.ndarray) -> int:
    """Index of the minimum, ties resolved toward the largest index."""
    return values.size - 1 - int(np.argmin(values[::-1]))


def realized_error_curve(stream, target: Pmf) -> np.ndarray:
    """TV distance from target to every suffix-window estimate, r = 1..T.

    Uses TV(p, f) = sum over s of (p_s - f_s)^+: target atoms never observed
    contribute their mass at every window size, and each observed target
    atom adds one running count, so the cost is O(T * min(|supp target|, K))
    for K distinct stream symbols.  The oracle window against the true
    current pmf is ``argmin_prefer_large(curve) + 1``.
    """
    arr = as_stream(stream)
    rs = np.arange(1, arr.size + 1, dtype=np.float64)
    stream_syms = sorted_union(arr)
    pos = np.minimum(np.searchsorted(stream_syms, target.symbols), stream_syms.size - 1)
    observed = stream_syms[pos] == target.symbols
    errs = np.full(arr.size, float(np.sum(target.probs[~observed])))
    newest_first = arr[::-1]
    for symbol, p in zip(target.symbols[observed], target.probs[observed]):
        errs += np.maximum(p - np.cumsum(newest_first == symbol) / rs, 0.0)
    return errs
