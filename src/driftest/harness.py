"""Monte Carlo experiment runner and verifier for the estimator's guarantees.

Coverage suites replay a scenario many times and count how often the
high-probability inequalities hold; property campaigns hammer the purely
algebraic inequalities with random pmfs; trial runs compare the adaptive
estimator against fixed-window baselines and the simulation-only oracle;
the scaling study fits the error-vs-drift-rate exponent.

Everything is deterministic given (scenario, seed, trials, delta): trials
derive their generator state from the trial index alone.  Every suite
supplies a function of a block of trials and aggregates the trial-ordered
list that ``_fan_out`` returns; a block's values are each trial's own, bit
for bit, so results depend on neither the worker count nor the blocks.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from typing import Callable, Mapping, Sequence

import numpy as np

from . import driftgen
from .adaptive import argmin_prefer_large, q_minimum, realized_error_curve, walk_block
from .dist import (CHUNK_ELEMENTS, Pmf, block_phis, block_tvs, groups, half_norm, joined_bounds,
                   lambda_complexity, tv_distance)
from .driftgen import DriftScenario, Truth, linear_drift, sample_streams, segments
from .windows import LadderBlock, check_delta, concentration_radius, dyadic_depth

CSV_HEADER = ("trial,scenario,T,delta,chosen_r,err_adaptive,err_oracle,"
              "r_oracle,err_full,err_last,q_star,r_star,prop3_held")

# horizon multiple of the ideal window size used by the scaling study
SCALING_HORIZON_FACTOR = 8
_SCALING_MIN_HORIZON = 64


@dataclass(frozen=True)
class TrialMetrics:
    """Errors and diagnostics of one simulated trial."""

    trial: int
    chosen_r: int
    err_adaptive: float
    err_oracle: float
    r_oracle: int
    err_full_window: float
    err_last_sample: float
    q_star: float
    r_star: int
    prop3_held: bool


@dataclass(frozen=True)
class CoverageReport:
    """How often a high-probability event held over repeated trials."""

    trials: int
    violations: int
    per_inequality: tuple[tuple[str, int], ...]

    @property
    def empirical_coverage(self) -> float:
        return 1.0 - self.violations / self.trials

    def threshold(self, delta: float) -> float:
        """Acceptance floor: 1 - delta minus three binomial standard errors."""
        return (1.0 - delta) - 3.0 * math.sqrt(delta * (1.0 - delta) / self.trials)

    def passes(self, delta: float) -> bool:
        return self.empirical_coverage >= self.threshold(delta)

    def to_json_obj(self) -> dict:
        return {
            "trials": self.trials,
            "violations": self.violations,
            "empirical_coverage": self.empirical_coverage,
            "per_inequality": {name: count for name, count in self.per_inequality},
        }


@dataclass(frozen=True)
class SuiteReport:
    """Outcome of an exact-inequality campaign (zero violations expected)."""

    name: str
    checks: int
    violations: int
    max_slack: float
    per_inequality: tuple[tuple[str, int], ...] = ()
    skipped: int = 0

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "checks": self.checks,
            "violations": self.violations,
            "max_slack": self.max_slack,
            "per_inequality": {name: count for name, count in self.per_inequality},
            "skipped": self.skipped,
        }


@dataclass(frozen=True)
class ScalingPoint:
    step_delta: float
    horizon: int
    mean_error: float


@dataclass(frozen=True)
class ScalingResult:
    points: tuple[ScalingPoint, ...]
    slope: float
    intercept: float


def default_families(seed: int = 0) -> list[DriftScenario]:
    """One scenario per drift family, sized so every code path is exercised.

    The abrupt entry is large enough that the stop test actually fires,
    which is what gives the stop-side trace assertions real coverage.
    """
    return [
        driftgen.iid(k=20, t=2048, seed=seed),
        driftgen.linear_drift(k=10, step_delta=1e-3, t=1024, seed=seed),
        driftgen.abrupt(k=10, change_point=8192, t=32768, seed=seed),
        driftgen.rotating_support(k=8, period=300, t=2048, seed=seed),
        driftgen.geometric_drift(0.3, 0.45, t=512, seed=seed),
        driftgen.zipf_drift(5.0, 4.5, t=512, seed=seed),
    ]


def _block_size(scenario: DriftScenario) -> int:
    """Trials per block: as many as hold at most ``CHUNK_ELEMENTS`` samples, and at least one."""
    return max(1, CHUNK_ELEMENTS // scenario.t)


def _window_columns(ladders: LadderBlock, blocks: list, truth: Truth, average: bool,
                    current: bool, phis: bool) -> tuple[np.ndarray | None, ...]:
    """Each window's TV to its own window average, to the current pmf and its phi.

    Rows are trials and columns ``ladders.js``, whose windows ``blocks``
    holds (``LadderBlock.block``); each is computed only when asked for.
    Each kind of TV takes one ``block_tvs`` call for every run of window
    sizes whose rows span at most ``CHUNK_ELEMENTS`` places, or for one size
    whose rows span more (their work dwarfs a call's), so verify's blocks
    take one each; the phis take one ``row_sums``.
    """
    averages = [truth.window_averages[j] for j in ladders.js]
    to_average, to_current = [], []
    if average:
        for part in groups([ladders.rows * q.symbols.size for q in averages]):
            to_average.append(block_tvs(blocks[part], averages[part]))
    if current:
        for part in groups([probs.size + ladders.rows * truth.current.symbols.size
                            for _, probs, _ in blocks]):
            to_current.append(block_tvs(blocks[part], [truth.current] * len(blocks[part])))

    def columns(values: list[np.ndarray]) -> np.ndarray:
        return np.concatenate(values).reshape(len(blocks), ladders.rows).T

    return (columns(to_average) if average else None,
            columns(to_current) if current else None,
            columns([block_phis(np.concatenate([probs for _, probs, _ in blocks]),
                                joined_bounds(blocks),
                                np.repeat(2**np.array(ladders.js), ladders.rows))])
            if phis else None)


def _prop3_held(phis: np.ndarray, radii: np.ndarray, truth: Truth,
                to_average: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per trial, whether each simultaneous inequality held for every dyadic window.

    ``phis`` and ``to_average`` have a row per trial and a column per
    window; ``radii`` are the windows' ``concentration_radius``.
    """
    emp_ok = ~(to_average > phis + radii).any(axis=1)
    true_ok = ~(phis > 4.0 * np.array(truth.window_lambdas) + radii).any(axis=1)
    return emp_ok, true_ok


# --- trial runs -------------------------------------------------------------


def _oracle_reads(stream: np.ndarray, current: Pmf) -> tuple:
    """The oracle curve where a trial's metrics read it.

    At every dyadic size, which the walk may choose, then the curve at the
    oracle window and that window, at T and at 1.
    """
    errs = realized_error_curve(stream, current)
    r_oracle = argmin_prefer_large(errs) + 1
    at_dyadic = errs[(1 << np.arange(dyadic_depth(errs.size) + 1)) - 1].tolist()
    return at_dyadic, float(errs[r_oracle - 1]), r_oracle, float(errs[-1]), float(errs[0])


# every trial's row is kept until its run ends: at the cap that is at most about 0.8 GB
MAX_TRIALS = 500_000


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if trials > MAX_TRIALS:
        raise ValueError(f"trials must be at most {MAX_TRIALS}")


def run_trials(scenario: DriftScenario, trials: int, delta: float,
               workers: int = 1) -> list[TrialMetrics]:
    """Run seeded trials of the estimator with all baselines and diagnostics."""
    # both checked before the truth side is built
    check_delta(delta)
    _check_trials(trials)
    q_star, r_star = q_minimum(segments(scenario), delta)
    rows = _trial_rows(scenario, {"metrics": trials}, delta, None, workers)["metrics"]
    return [TrialMetrics(trial, *metrics[:-1], q_star, r_star, metrics[-1])
            for trial, metrics in enumerate(rows)]


def write_trials_csv(rows: Sequence[TrialMetrics], scenario: DriftScenario,
                     delta: float, fh) -> None:
    """Fixed-header CSV; floats use shortest round-trip formatting."""
    fh.write(CSV_HEADER + "\n")
    for m in rows:
        fh.write(",".join([
            str(m.trial), scenario.kind, str(scenario.t), repr(float(delta)),
            str(m.chosen_r), repr(m.err_adaptive), repr(m.err_oracle),
            str(m.r_oracle), repr(m.err_full_window), repr(m.err_last_sample),
            repr(m.q_star), str(m.r_star),
            "true" if m.prop3_held else "false",
        ]) + "\n")


# --- the trial suites: one stream and one ladder per trial ------------------

PROP1_TOL = 1e-12
PROP45_TOL = 1e-9


def _prop2_failures(r: int, phis: np.ndarray, gaps: np.ndarray, delta: float,
                    truth: Truth) -> list[tuple[bool, bool]]:
    """Per trial, whether the deviation and complexity bounds failed for its size-r window.

    ``phis`` are the windows' complexities and ``gaps`` their TVs to their average.
    """
    j = r.bit_length() - 1
    deviation_bound = phis + 3.0 * math.sqrt(math.log(4.0 / delta) / (2.0 * r))
    complexity_bound = 4.0 * truth.window_lambdas[j] + math.sqrt(math.log(4.0 / delta) / r)
    return list(zip((gaps > deviation_bound).tolist(), (phis > complexity_bound).tolist()))


def _prop45_slacks(accepted: list[int], stop: list[int], bounds: list[float],
                   to_current: list[float]) -> tuple[list[float], list[float]]:
    """The walk's (continue, stop) slacks, for a trial inside the simultaneous-bounds event.

    ``accepted`` are the indices of the windows the trial's walk accepted
    and ``stop`` its violating (j, l), or (-1, -1); ``bounds`` are the
    windows' xi plus drift error, and ``to_current`` their TVs to the
    current pmf.
    """
    # continue condition: every accepted window beyond the first is
    # within five times the best bound among the earlier accepted ones
    continue_slacks = []
    best = math.inf
    for c in accepted:
        if best < math.inf:
            continue_slacks.append(to_current[c] - 5.0 * best)
        best = min(best, bounds[c])
    # stop condition: the flagged accepted window stays within twice the
    # bound of every window at least as large as the rejected candidate
    j, l = stop
    return continue_slacks, [bounds[l] - 2.0 * bound for bound in bounds[j:]] if j >= 0 else []


def _suite_block(scenario: DriftScenario, delta: float | None, r: int | None,
                 trials: tuple[tuple[str, int], ...], lo: int, hi: int) -> list[dict]:
    """Trials lo .. hi-1 of every suite among ``trials`` (name, count) whose count exceeds them.

    The suites are verify's prop1, prop2, prop3 and prop45, simulate's
    metrics and the scaling study's error, which is asked for alone.  A
    block never straddles a count, so each of its trials serves the same
    suites.  The block's streams are drawn at once; the metrics read each
    one's oracle curve (``_oracle_reads``), and then the streams are
    laddered at once and freed once they are sorted.  prop2 alone sorts
    only its one window, since the ladder would cost several times that
    window.  Each window's TV to its window average (for all but the
    error), its TV to the current pmf (for prop1, prop45 and the error)
    and its phi (for all but prop1 alone) are computed once, every window
    size of the block together (``_window_columns``); the block's trials
    are walked together once (``walk_block``), for the metrics, the error
    and prop45, and the error is the chosen window's TV to the current
    pmf.
    Results by trial, then by name: prop1's slacks; prop2's and prop3's
    (deviation failed, complexity failed); prop45's (continue, stop)
    slacks, or None outside the simultaneous-bounds event; the metrics'
    (chosen_r, err_adaptive, err_oracle, r_oracle, err_full_window,
    err_last_sample, prop3_held); the error's TV from the current pmf to
    the estimate.
    """
    suites = {name for name, n in trials if lo < n}
    truth = segments(scenario)
    j_r = r.bit_length() - 1 if "prop2" in suites else None  # prop2's window is window j_r
    streams = sample_streams(scenario, lo, hi)
    oracles = ([_oracle_reads(stream, truth.current) for stream in streams]
               if "metrics" in suites else None)
    ladders = LadderBlock(streams, [j_r] if suites == {"prop2"} else None)
    del streams
    # each size sorted largest first, so its temporaries meet only the windows at least as large
    blocks = [ladders.block(c) for c in reversed(range(len(ladders.js)))][::-1]
    to_average, to_current, phis = _window_columns(
        ladders, blocks, truth, average=suites != {"error"},
        current=bool(suites & {"prop1", "prop45", "error"}), phis=suites != {"prop1"})
    out = [{} for _ in range(lo, hi)]
    if "prop1" in suites:
        # estimation error minus statistical plus drift error, per window
        slacks = to_current - (to_average + np.array(truth.window_deltas))
        for row, trial_slacks in zip(out, slacks.tolist()):
            row["prop1"] = trial_slacks
    if suites == {"prop1"}:
        return out  # prop1 reads no phi
    if "prop2" in suites:
        c = ladders.js.index(j_r)
        for row, failed in zip(out, _prop2_failures(r, phis[:, c], to_average[:, c], delta,
                                                    truth)):
            row["prop2"] = failed
    if not suites & {"prop3", "prop45", "metrics", "error"}:
        return out
    radii = concentration_radius(np.arange(len(ladders.js)), delta)
    xis = phis + radii
    walk = walk_block(blocks, xis) if suites & {"prop45", "metrics", "error"} else None
    if suites == {"error"}:
        for row, error in zip(out, to_current[np.arange(len(out)), walk.chosen].tolist()):
            row["error"] = error
        return out
    emp_ok, true_ok = _prop3_held(phis, radii, truth, to_average)
    bounds = xis + np.array(truth.window_deltas)
    for i, row in enumerate(out):
        held = bool(emp_ok[i] and true_ok[i])
        if "prop3" in suites:
            row["prop3"] = (not emp_ok[i], not true_ok[i])
        if "prop45" in suites:
            row["prop45"] = (_prop45_slacks(walk.accepted[i].nonzero()[0].tolist(),
                                            walk.stop[i].tolist(), bounds[i].tolist(),
                                            to_current[i].tolist()) if held else None)
        if "metrics" in suites:
            chosen = int(walk.chosen[i])
            at_dyadic, *oracle = oracles[i]
            row["metrics"] = (2**chosen, at_dyadic[chosen], *oracle, held)
    return out


def _trial_rows(scenario: DriftScenario, trials: Mapping[str, int], delta: float | None,
                r: int | None, workers: int) -> dict[str, list]:
    """Each suite's per-trial results in trial order, from one ``_suite_block`` per block."""
    for n in trials.values():
        _check_trials(n)
    rows = _fan_out(_suite_block, (scenario, delta, r, tuple(trials.items())),
                    max(trials.values()), workers, _block_size(scenario), tuple(trials.values()))
    return {name: [row[name] for row in rows[:n]] for name, n in trials.items()}


def _check_window(scenario: DriftScenario, r: int) -> None:
    if r < 1 or r > scenario.t or (r & (r - 1)) != 0:
        raise ValueError("r must be a power of two within the horizon")


def _coverage_report(rows: list[tuple[bool, bool]]) -> CoverageReport:
    """Tally per-trial (deviation_failed, complexity_failed) pairs."""
    return CoverageReport(len(rows), sum(dev or cx for dev, cx in rows), (
        ("deviation_bound", sum(dev for dev, _ in rows)),
        ("complexity_bound", sum(cx for _, cx in rows)),
    ))


def _suite_report(name: str, slacks: Mapping[str, Sequence[float]], tol: float,
                  skipped: int = 0) -> SuiteReport:
    """The verdict of an exact suite from each named inequality's slacks.

    Every slack is one check; a slack above ``tol`` violates its inequality.
    ``max_slack`` is the running max over all checks, -inf when there are none.
    """
    per_inequality = tuple((ineq, sum(1 for slack in values if slack > tol))
                           for ineq, values in slacks.items())
    max_slack = reduce(max, chain.from_iterable(slacks.values()), -math.inf)
    return SuiteReport(name, sum(map(len, slacks.values())),
                       sum(count for _, count in per_inequality), max_slack,
                       per_inequality, skipped)


def _prop1_report(scenario: DriftScenario, rows: list[list[float]], tol: float) -> SuiteReport:
    truth = segments(scenario)
    averages = truth.window_averages
    to_current = block_tvs([(q.symbols, q.probs, np.array([0, q.symbols.size])) for q in averages],
                           [truth.current] * len(averages))
    return _suite_report("prop1", {
        "decomposition": list(chain.from_iterable(rows)),
        "averaging": (to_current - truth.window_deltas).tolist(),
    }, tol)


def _prop45_report(rows: list, tol: float) -> SuiteReport:
    kept = [slacks for slacks in rows if slacks is not None]
    return _suite_report("prop45", {
        "continue_factor5": [slack for cont, _ in kept for slack in cont],
        "stop_factor2": [slack for _, stop in kept for slack in stop],
    }, tol, skipped=len(rows) - len(kept))


def verify_prop2(scenario: DriftScenario, r: int, trials: int, delta: float,
                 workers: int = 1) -> CoverageReport:
    """Coverage of the single-window statistical-error bounds at size r."""
    _check_window(scenario, r)
    check_delta(delta)
    return _coverage_report(_trial_rows(scenario, {"prop2": trials}, delta, r, workers)["prop2"])


def verify_prop3(scenario: DriftScenario, trials: int, delta: float,
                 workers: int = 1) -> CoverageReport:
    """Coverage of the all-windows-simultaneously statistical-error bounds."""
    check_delta(delta)
    return _coverage_report(
        _trial_rows(scenario, {"prop3": trials}, delta, None, workers)["prop3"])


def verify_prop1(scenario: DriftScenario, trials: int,
                 tol: float = PROP1_TOL, workers: int = 1) -> SuiteReport:
    """Error decomposition: estimation error <= statistical error + drift error.

    Also checks the averaging inequality (window average within drift error
    of the current pmf), which depends only on the truth sequence.
    """
    rows = _trial_rows(scenario, {"prop1": trials}, None, None, workers)["prop1"]
    return _prop1_report(scenario, rows, tol)


def verify_prop45(scenario: DriftScenario, trials: int, delta: float,
                  tol: float = PROP45_TOL, workers: int = 1) -> SuiteReport:
    """Trace assertions for the continue (x5) and stop (x2) guarantees.

    Trials where the simultaneous-bounds event failed are excluded, since
    both guarantees are conditional on it.
    """
    check_delta(delta)
    return _prop45_report(
        _trial_rows(scenario, {"prop45": trials}, delta, None, workers)["prop45"], tol)


def verify_trial_suites(scenario: DriftScenario, trials: Mapping[str, int], delta: float,
                        r: int = 256, workers: int = 1) -> dict:
    """The reports of the suites named in ``trials`` (prop1, prop2, prop3, prop45) on one scenario.

    ``trials`` maps each suite to its trial count, and prop2 checks window
    size r.  Each report equals its own ``verify_*`` run at the default
    tolerance, but each (scenario, trial) stream is drawn and laddered once
    for all the suites.
    """
    check_delta(delta)
    if "prop2" in trials:
        _check_window(scenario, r)
    rows = _trial_rows(scenario, trials, delta, r, workers)
    report = {"prop1": lambda rows: _prop1_report(scenario, rows, PROP1_TOL),
              "prop2": _coverage_report, "prop3": _coverage_report,
              "prop45": lambda rows: _prop45_report(rows, PROP45_TOL)}
    return {name: report[name](rows[name]) for name in trials}


# --- random-pmf campaigns ----------------------------------------------------


def random_pmf(rng: np.random.Generator, max_support: int = 64) -> Pmf:
    """Random sparse pmf mixing flat, spiky, and tiny-atom shapes."""
    k = int(rng.integers(1, max_support + 1))
    style = int(rng.integers(0, 4))
    if style == 0:
        weights = rng.dirichlet(np.ones(k))
    elif style == 1:
        weights = rng.dirichlet(np.full(k, 0.15))
    elif style == 2:
        weights = np.power(rng.uniform(0.3, 0.95), np.arange(k))
    else:
        weights = rng.dirichlet(np.ones(k))
        tiny = rng.random(k) < 0.4
        weights[tiny] *= 10.0 ** rng.uniform(-9, -2, size=k)[tiny]
    weights = np.asarray(weights, dtype=np.float64)
    weights = weights[weights > 0]
    if weights.size == 0:
        weights = np.ones(1)
    weights /= np.sum(weights)
    weights[int(np.argmax(weights))] += 1.0 - float(np.sum(weights))
    symbols = np.sort(rng.choice(4 * max_support, size=weights.size, replace=False))
    return Pmf(symbols.astype(np.int64), weights)


def _perturbed_pair(rng: np.random.Generator) -> tuple[Pmf, Pmf]:
    p = random_pmf(rng)
    if rng.random() < 0.5:
        return p, random_pmf(rng)
    # nearby pmf: rescale some atoms, renormalize
    weights = p.probs * np.exp(rng.normal(0.0, 0.3, size=p.probs.size))
    weights /= np.sum(weights)
    weights[int(np.argmax(weights))] += 1.0 - float(np.sum(weights))
    return p, Pmf(p.symbols.copy(), weights)


def _campaign(name: str, names: tuple[str, ...], n: int, seed: int, tol: float,
              slacks: Callable[[np.random.Generator], tuple[float, ...]]) -> SuiteReport:
    """Draw n instances from one seeded generator, one slack per named inequality."""
    _check_trials(n)
    rng = np.random.default_rng(seed)
    draws = [slacks(rng) for _ in range(n)]
    return _suite_report(name, dict(zip(names, zip(*draws))), tol)


def _prop6_slacks(rng: np.random.Generator) -> tuple[float, float]:
    p, q = _perturbed_pair(rng)
    r, s = sorted(int(x) for x in rng.integers(1, 2**16 + 1, size=2))
    lam_pr = lambda_complexity(p, r)
    return (abs(lam_pr - lambda_complexity(q, r)) - 2.0 * tv_distance(p, q),
            lam_pr - math.sqrt(s / r) * lambda_complexity(p, s))


def verify_prop6(pairs: int, seed: int = 0, tol: float = 1e-12) -> SuiteReport:
    """Random-pmf campaign for the two complexity-functional inequalities.

    For random pmfs and random window sizes r <= s: the functional is
    2-Lipschitz in total variation, and shrinking the budget from s to r
    inflates it by at most sqrt(s/r).
    """
    return _campaign("prop6", ("tv_lipschitz", "budget_ratio"), pairs, seed, tol,
                     _prop6_slacks)


def _lambda_slacks(rng: np.random.Generator) -> tuple[float, float, float]:
    p = random_pmf(rng)
    r, s = sorted(int(x) for x in rng.integers(1, 2**16 + 1, size=2))
    lam_s = lambda_complexity(p, s)
    return (lam_s - math.sqrt(p.support_size / s),
            lam_s - math.sqrt(half_norm(p) / s),
            lam_s - lambda_complexity(p, r))


def verify_lambda_bounds(instances: int, seed: int = 0,
                         tol: float = 1e-12) -> SuiteReport:
    """Support bound, half-norm bound, and monotonicity of the complexity."""
    return _campaign("lambda_bounds", ("support_bound", "half_norm_bound", "monotone"),
                     instances, seed, tol, _lambda_slacks)


def _metric_slacks(rng: np.random.Generator) -> tuple[float, float, float, float]:
    p, q, m = (random_pmf(rng) for _ in range(3))
    pq = tv_distance(p, q)
    return (tv_distance(p, p),
            abs(pq - tv_distance(q, p)),
            pq - (tv_distance(p, m) + tv_distance(m, q)),
            max(-pq, pq - 1.0))


def verify_metric(triples: int, seed: int = 0, tol: float = 1e-12) -> SuiteReport:
    """Total variation is a metric: identity, symmetry, triangle, range."""
    return _campaign("metric", ("identity", "symmetry", "triangle", "range"),
                     triples, seed, tol, _metric_slacks)


# --- scaling study ----------------------------------------------------------


def scaling_horizon(k: int, step_delta: float) -> int:
    """Horizon for one scaling point: a fixed multiple of the ideal window."""
    if step_delta <= 0.0:
        raise ValueError("step_delta must be positive for the scaling study")
    ideal = (k / step_delta**2) ** (1.0 / 3.0)
    horizon = int(round(SCALING_HORIZON_FACTOR * ideal))
    if horizon < _SCALING_MIN_HORIZON:
        raise ValueError(
            f"step_delta {step_delta} gives horizon {horizon}, too small "
            f"for the asymptotic regime (need >= {_SCALING_MIN_HORIZON})")
    return horizon


def scaling_experiment(k: int, deltas: Sequence[float], trials: int,
                       delta: float = 0.05, seed: int = 0,
                       workers: int = 1) -> ScalingResult:
    """Mean adaptive error across drift rates, with a log-log slope fit.

    Each drift rate gets its own horizon via ``scaling_horizon`` so that
    the ideal window sits well inside the ladder while the drift is still
    active at estimation time.
    """
    if len(deltas) < 2:
        raise ValueError("need at least two drift rates to fit a slope")
    points = []
    for step_delta in deltas:
        horizon = scaling_horizon(k, step_delta)
        scenario = linear_drift(k, step_delta, horizon, seed=seed)
        errors = _trial_rows(scenario, {"error": trials}, delta, None, workers)["error"]
        points.append(ScalingPoint(step_delta, horizon, sum(errors) / trials))
    xs = np.log10([p.step_delta for p in points])
    ys = np.log10([p.mean_error for p in points])
    slope, intercept = np.polyfit(xs, ys, 1)
    return ScalingResult(tuple(points), float(slope), float(intercept))


def write_scaling_data(result: ScalingResult, fh) -> None:
    """Two-column data file: log10 drift rate, log10 mean error."""
    fh.write("# log10_delta log10_error\n")
    for p in result.points:
        fh.write(f"{repr(math.log10(p.step_delta))} {repr(math.log10(p.mean_error))}\n")


# --- worker fan-out ---------------------------------------------------------


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _trial_range(fn: Callable, common: tuple, lo: int, hi: int,
                 cut: tuple[int, Sequence[int]]) -> list:
    """``fn``'s results for trials lo .. hi-1, one call per block.

    ``cut`` is (size, stops): blocks hold at most ``size`` trials, and none
    straddles a trial count in ``stops``.
    """
    size, stops = cut
    out = []
    while lo < hi:
        end = min(hi, lo + size, *(n for n in stops if n > lo))
        out += fn(*common, lo, end)
        lo = end
    return out


def _fan_out(fn: Callable, common: tuple, trials: int, workers: int, size: int = 1,
             stops: Sequence[int] = ()) -> list:
    """The results of trials 0 .. trials-1 in trial order, from ``fn(*common, lo, hi)`` per block.

    ``fn`` returns the results of trials lo .. hi-1.  Workers take
    contiguous ranges of trials, each cut into blocks (``_trial_range``),
    and their results are concatenated.  A trial's result depends on the
    trial alone, so neither the worker count nor the blocks move it.
    """
    _check_trials(trials)
    workers = min(workers, trials, _usable_cpus())
    cut = (size, tuple(stops))
    if workers <= 1:
        return _trial_range(fn, common, 0, trials, cut)
    # imported here: a one-worker run does not pay for the process pool
    from concurrent.futures import ProcessPoolExecutor

    edges = np.linspace(0, trials, workers + 1, dtype=int)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_trial_range, fn, common, int(lo), int(hi), cut)
                   for lo, hi in zip(edges[:-1], edges[1:]) if hi > lo]
        return [out for f in futures for out in f.result()]
