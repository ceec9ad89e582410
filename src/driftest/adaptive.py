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
from typing import Callable, Sequence

import numpy as np

from .dist import (CHUNK_ELEMENTS, Block, Pmf, groups, lambda_complexity, row_edges,
                   segment_tvs, sorted_runs, sorted_union)
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
    walk is the one-trial ``walk_block``; the evaluations are kept as plain
    lists (``EstimateResult.compared``).  The estimate is a copy of the
    chosen window, which may view a block's arrays.
    """
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
    (trials, l, j, TVs, thresholds), a run of candidate indices at a time.
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

    ``windows[c]`` holds the block's windows of index c as a ``Block``, a
    row per trial, and row i of ``xis`` holds trial i's windows'
    statistical-error bounds.  Each trial's candidate list starts at window
    index 0; index j is considered only when its bound is strictly below
    every accepted bound (accepted bounds strictly decrease, so the last
    one is the smallest: the least bound below j).  At each j, the TVs of
    every window l < j that a trial still walking and considering j has
    accepted to its window j are taken together, each pair on the trial's
    window j: a trial's windows are nested suffixes, so that window holds
    the pair's union (``segment_tvs``).  They are compared with
    3 xi_l + xi_j in order of l, up to the first that stops the trial's
    walk (>=, so boundary equality stops).  The pairs compared, and
    their values and order, are exactly those of a trial walked alone.

    In a block of several trials, a key stands for a (trial, symbol) pair
    (``_keys``), so that keys ascend trial by trial.  The windows a trial
    would accept are stacked once (``_stacked``), and the candidate
    indices are taken in runs, with one kernel call per run and piece of
    the stack.  A call's rows are the pairs of the trials that still walk
    and consider the pair's j; a trial's first hit in a run, in order of j
    and l, stops it, and its pairs after that in the run are taken but not
    read.
    Pieces and runs hold at most an eighth of ``CHUNK_ELEMENTS`` atoms, or
    one window or index, so the walk's temporaries stay near one kernel
    chunk's, a long stream's wide windows are never copied, and a
    one-trial block of short windows takes one call.
    """
    m, depth = xis.shape
    key = _keys(windows) if m > 1 else lambda block: block
    # where each trial would accept: below the least bound before it
    accepts = np.ones((m, depth), dtype=bool)
    accepts[:, 1:] = xis[:, 1:] < np.minimum.accumulate(xis, axis=1)[:, :-1]
    # the stack's pieces and the runs of candidate indices hold few enough
    # atoms that the walk's temporaries stay near one kernel chunk's
    limit = CHUNK_ELEMENTS // 8
    bounds = np.stack([bounds for _, _, bounds in windows], axis=1)  # a column per index
    pieces = _stacked([key(block) for block in windows[:-1]], accepts, bounds, xis, limit)
    # the atoms of each trial's pairs at each index: of its windows below it
    atoms = np.zeros((m, depth), dtype=np.int64)
    np.cumsum(np.where(accepts, np.diff(bounds, axis=0), 0)[:, :-1], axis=1, out=atoms[:, 1:])
    stop = np.full((m, 2), -1)
    walking = np.ones(m, dtype=bool)
    records = []
    j = 1
    while j < depth and walking.any():
        # the indices some walking trial considers, and their pairs' atoms
        considers = walking[:, None] & accepts
        pairs = (atoms[:, j:] * considers[:, j:]).sum(axis=0)
        js = j + pairs.nonzero()[0]  # every trial accepts window 0, so a pair has atoms
        if not js.size:
            break
        js = js[:max(1, int(pairs[js - j].cumsum().searchsorted(limit, "right")))].tolist()
        j = js[-1] + 1
        # one kernel call per piece, the windows below each index of the
        # run of the trials that consider it, each laid out on its trial's
        # window of that index
        layouts = {c: key(windows[c]) for c in js}
        rows = []
        for piece in pieces:
            parts = [(c, *piece.below(c, considers[:, c])) for c in js]
            parts = [part for part in parts if part[2].size]
            if parts:
                first, end = int(piece.trials[0]), int(piece.trials[-1]) + 1
                tvs = segment_tvs([(block, _trials_of(layouts[c], first, end), trials - first)
                                   for c, block, trials, _, _ in parts])
                for c, _, trials, ls, triples in parts:
                    rows.append((c, tvs[:trials.size], trials, ls, triples))
                    tvs = tvs[trials.size:]
        rows.sort(key=lambda row: row[0])  # index by index, and the pieces in order
        cs, tvs, trials, ls, triples = zip(*rows)
        cs = np.repeat(cs, [t.size for t in trials])
        tvs, trials, ls, triples = map(np.concatenate, (tvs, trials, ls, triples))
        thresholds = triples + xis[trials, cs]
        # each trial's rows in order of j and l, shown up to its first hit
        shown = slice(None)
        hits = (tvs >= thresholds).nonzero()[0]
        if hits.size:
            stopped, first = np.unique(trials[hits], return_index=True)
            first = hits[first]
            up_to = np.full(m, tvs.size)
            up_to[stopped] = first
            shown = np.arange(tvs.size) <= up_to[trials]
            stop[stopped, 0] = cs[first]
            stop[stopped, 1] = ls[first]
            walking[stopped] = False
        records.append(tuple(column[shown] for column in (trials, ls, cs, tvs, thresholds)))
    # a stopped trial accepted only the windows below the index it stopped at
    accepts &= np.arange(depth) < np.where(stop[:, :1] < 0, depth, stop[:, :1])
    return BlockWalk(accepts, stop, records)


def _keys(windows: Sequence[Block]) -> Callable[[Block], Block]:
    """What puts a (trial, symbol) key in place of each symbol of a block's windows of one index.

    A key is the symbol, less the least symbol, plus the trial times the
    span of the symbols, so that keys ascend trial by trial; the largest
    windows hold every symbol.  A block whose keys would pass the int64
    range raises: a scenario's symbols span far less.
    """
    largest, _, bounds = windows[-1]
    low, high = int(largest.min()), int(largest.max())
    if (bounds.size - 2) * (high - low + 1) > np.iinfo(np.int64).max - high:
        raise ValueError("the block's symbols span too wide a range to key them by trial")
    offsets = np.arange(bounds.size - 1) * (high - low + 1) - low

    def key(block: Block) -> Block:
        symbols, probs, bounds = block
        if symbols.min() < low or symbols.max() > high:
            raise ValueError("a support is not within the one it is compared with")
        return symbols + offsets.repeat(bounds[1:] - bounds[:-1]), probs, bounds

    return key


def _trials_of(block: Block, first: int, end: int) -> Block:
    """The rows first .. end-1 of a block, viewed."""
    keys, probs, bounds = block
    if first == 0 and end == bounds.size - 1:
        return block
    atoms = slice(bounds[first], bounds[end])
    return keys[atoms], probs[atoms], bounds[first:end + 1] - bounds[first]


@dataclass(frozen=True, eq=False)
class _Piece:
    """Windows of a block stacked back to back: their keys, probabilities and bounds.

    Each window's trial, index l and 3 xi_l go with it, trial by trial and
    each trial's in order of l.
    """

    keys: np.ndarray
    probs: np.ndarray
    bounds: np.ndarray
    trials: np.ndarray
    ls: np.ndarray
    triples: np.ndarray

    def below(self, j: int, trials: np.ndarray) -> tuple:
        """The windows below index j of the trials ``trials`` marks, as a ``Block``.

        With them come their trials, l and 3 xi_l.  Where they are the
        first n windows, as one trial's are, or all of them, they are views.
        """
        if self.trials[0] == self.trials[-1]:  # one trial's windows, in order of l
            n = int(self.ls.searchsorted(j)) if trials[self.trials[0]] else 0
        else:
            rows = (self.ls < j) & trials[self.trials]
            n = rows.size if rows.all() else -1
        if n >= 0:
            atoms, bounds, rows = slice(self.bounds[n]), self.bounds[:n + 1], slice(n)
        else:
            counts = self.bounds[1:] - self.bounds[:-1]
            atoms, bounds = rows.repeat(counts), row_edges(counts[rows])
        return ((self.keys[atoms], self.probs[atoms], bounds), self.trials[rows], self.ls[rows],
                self.triples[rows])


def _stacked(windows: Sequence[Block], accepts: np.ndarray, bounds: np.ndarray,
             xis: np.ndarray, limit: int) -> list[_Piece]:
    """The windows below the largest that each trial would accept, in pieces.

    The windows go trial by trial, and each trial's in order of l, so that
    a trial's windows share its layout in the kernel; they are cut into
    pieces of at most ``limit`` atoms, or of one window (``groups``).  A
    piece of all of one index's windows views its arrays, as a long
    stream's wide windows do.  Column c of ``bounds`` holds the bounds of
    the windows of index c.
    """
    trials, ls = accepts[:, :-1].nonzero()  # trial by trial, each in order of l
    if not ls.size:
        return []
    firsts = bounds[trials, ls]
    counts = bounds[trials + 1, ls] - firsts
    triples = 3.0 * xis[trials, ls]
    pieces = []
    for part in groups(counts.tolist(), limit):
        keys, probs, _ = windows[ls[part.start]]
        if part.stop - part.start > 1 or counts[part.start] < keys.size:
            keys, probs = (np.concatenate([windows[l][column][f:f + n] for l, f, n in zip(
                ls[part].tolist(), firsts[part].tolist(), counts[part].tolist())])
                for column in (0, 1))
        pieces.append(_Piece(keys, probs, row_edges(counts[part]), trials[part], ls[part],
                             triples[part]))
    return pieces


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
