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

from .dist import CHUNK_ELEMENTS, Pmf, RowStack, lambda_complexity, sorted_runs, sorted_union
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
    candidate list starts at window index 0; index j is considered only
    when its bound is strictly below every accepted bound (accepted bounds
    strictly decrease, so the last one is the smallest); the stop test uses
    >= so boundary equality stops.  Each window holds every smaller one's
    samples, so candidate j's distances to all accepted windows are taken
    together on j's symbols: O(accepted * |supp j|), no union sorted, and
    for narrow candidates one search of the accepted windows' atoms, each
    stacked once when its window is accepted (``RowStack``).  The stop test
    takes the thresholds of all accepted windows at once and stops at the
    first one met; the evaluations are kept as plain lists
    (``EstimateResult.compared``).  The estimate is a copy of the chosen
    window, which may view a block's arrays.
    """
    accepted = [CandidateRecord(0, 1, phis[0], xis[0])]
    indices = [0]  # of the accepted windows
    triple_xis = np.empty(len(ladder))  # 3 xi of each accepted window
    triple_xis[0] = 3.0 * xis[0]
    stack = RowStack(ladder[:1])  # the accepted windows
    ls: list[int] = []
    js: list[int] = []
    tvs: list[float] = []
    thresholds: list[float] = []
    stop = StopReason("exhausted")

    for j in range(1, len(ladder)):
        if not xis[j] < accepted[-1].xi:
            continue
        n = len(accepted)
        gaps = stack.tvs(ladder[j])
        bars = triple_xis[:n] + xis[j]
        # the accepted windows are compared in order, up to the first that stops the walk
        hits = (gaps >= bars).nonzero()[0]
        compared = int(hits[0]) + 1 if hits.size else n
        ls += indices[:compared]
        js += [j] * compared
        tvs += gaps[:compared].tolist()
        thresholds += bars[:compared].tolist()
        if hits.size:
            stop = StopReason("violation", j=j, l=indices[compared - 1])
            break
        accepted.append(CandidateRecord(j, 2**j, phis[j], xis[j]))
        indices.append(j)
        triple_xis[n] = 3.0 * xis[j]
        stack.append(ladder[j])

    chosen = accepted[-1]
    window = ladder[chosen.index]
    return EstimateResult(
        chosen_window=chosen.size,
        estimate=Pmf(window.symbols, window.probs),
        accepted=tuple(accepted),
        stop=stop,
        compared=(ls, js, tvs, thresholds),
    )


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
