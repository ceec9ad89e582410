"""Drift-scenario generators: ground-truth pmf sequences plus seeded samplers.

Each scenario describes a sequence of true distributions, one per time
step, together with a sampler drawing one independent sample per step.
Sampling is inverse-CDF over sorted symbols, seeded from (scenario seed,
trial index), so identical inputs reproduce identical streams on any
platform.  The sampler reads the run-length ``segments`` of the truth and
keeps nothing between calls: the uniform kinds (iid, abrupt, rotating)
share one CDF, and geometric and zipf take one per segment.
Infinite-support families (geometric, zipf) are truncated to exact finite
pmfs: a tail of total mass below ``TAIL_TOL`` is dropped and the largest
atom absorbs the remainder.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, fields as dataclass_fields
from functools import lru_cache
from itertools import groupby, repeat
from typing import Iterator

import numpy as np

from .adaptive import drift_sequence
from .dist import Pmf

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
                s = getattr(self, key)
                if not s > 1.0:
                    raise ValueError(f"key '{key}': exponent must exceed 1")


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


def _absorb_remainder(symbols: np.ndarray, probs: np.ndarray) -> Pmf:
    """Give any missing mass (dropped tail plus rounding) to the largest atom."""
    probs = probs.copy()
    probs[int(np.argmax(probs))] += 1.0 - float(np.sum(probs))
    return Pmf(symbols, probs)


def _geometric_atoms(p: float) -> int:
    """Atoms of the truncated geometric pmf, counted before it is built."""
    if p >= 1.0:
        return 1
    # capped, so that a vanishing p cannot overflow the count
    return math.ceil(min(math.log(TAIL_TOL) / math.log1p(-p), _MAX_TRUNCATED_SUPPORT + 1))


def _geometric_pmf(p: float, atoms: int) -> Pmf:
    if p >= 1.0:
        return Pmf.point_mass(0)
    i = np.arange(atoms, dtype=np.int64)
    probs = p * np.power(1.0 - p, i, dtype=np.float64)
    return _absorb_remainder(i, probs)


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


def _zipf_atoms(s: float) -> int:
    """Atoms of the truncated zipf pmf, counted before it is built."""
    total = _hurwitz_zeta(s, 1)
    # smallest n with relative tail mass below TAIL_TOL, by doubling + bisect
    lo, hi = 1, 2
    while _hurwitz_zeta(s, hi + 1) / total >= TAIL_TOL:
        lo, hi = hi, hi * 2
        if hi > _MAX_TRUNCATED_SUPPORT:
            raise ValueError(
                f"zipf exponent {s} needs more than {_MAX_TRUNCATED_SUPPORT} atoms "
                f"to reach tail mass {TAIL_TOL}; use a larger exponent")
    while lo < hi:
        mid = (lo + hi) // 2
        if _hurwitz_zeta(s, mid + 1) / total < TAIL_TOL:
            hi = mid
        else:
            lo = mid + 1
    return hi


def _zipf_pmf(s: float, atoms: int) -> Pmf:
    i = np.arange(1, atoms + 1, dtype=np.int64)
    probs = np.power(i, -s, dtype=np.float64) / _hurwitz_zeta(s, 1)
    return _absorb_remainder(i, probs)


# --- truth sequences -------------------------------------------------------


def _linear_alpha(scenario: DriftScenario, t: int | np.ndarray):
    """Source-symbol mass at step t (or an array of steps): drains to zero at the horizon."""
    return np.minimum((scenario.t - t) * scenario.step_delta, 1.0)


def _linear_pmf(scenario: DriftScenario, t: int) -> Pmf:
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


def _ramp_runs(start: float, end: float, t_max: int) -> Iterator[tuple[float, int]]:
    """Each distinct parameter of a linear schedule with its number of steps, oldest first.

    Generated lazily; the schedule is monotone, so equal parameters are consecutive.
    """
    ramp = (end - start) / (t_max - 1)
    for x, run in groupby(start + ramp * (t - 1) for t in range(1, t_max + 1)):
        yield x, sum(1 for _ in run)


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


@lru_cache(maxsize=64)
def segments(scenario: DriftScenario) -> tuple[tuple[int, Pmf], ...]:
    """Run-length encoding of the truth sequence, oldest first."""
    t_max = scenario.t
    if scenario.kind == "iid":
        return ((t_max, Pmf.uniform(range(scenario.k))),)
    if scenario.kind == "abrupt":
        pre = Pmf.uniform(range(scenario.k))
        post = Pmf.uniform(range(ABRUPT_POST_OFFSET, ABRUPT_POST_OFFSET + scenario.k))
        m = scenario.change_point
        return ((t_max - m, pre), (m, post))
    if scenario.kind == "rotating_support":
        _charge_truth_size(0, scenario.k, -(-t_max // scenario.period))
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
        # alpha never grows with t, so the saturated steps are a prefix
        frozen = bisect_left(range(1, t_max + 1), True,
                             key=lambda t: _linear_alpha(scenario, t) < 1.0)
        # the frozen point mass is charged as one more drifting pmf
        _charge_truth_size(0, scenario.k + 1, t_max - frozen + bool(frozen))
        out = [(frozen, Pmf.point_mass(0))] if frozen else []
        for t in range(frozen + 1, t_max + 1):
            out.append((1, _linear_pmf(scenario, t)))
        return tuple(out)
    # schedule-driven families; a flat schedule collapses to one segment
    if scenario.kind == "geometric_drift":
        start, end = scenario.geo_p_start, scenario.geo_p_end
        atoms, family = _geometric_atoms, _geometric_pmf
    else:
        start, end = scenario.zipf_s_start, scenario.zipf_s_end
        atoms, family = _zipf_atoms, _zipf_pmf
    if start == end or t_max == 1:
        n = atoms(start)
        _charge_truth_size(0, n)
        return ((t_max, family(start, n)),)
    runs = []  # (parameter, steps, atoms) of each distinct parameter, oldest first
    total = 0
    for x, steps in _ramp_runs(start, end, t_max):
        n = atoms(x)
        total = _charge_truth_size(total, n)
        runs.append((x, steps, n))
    # each distinct pmf is built once, but every step keeps its own segment
    return tuple(seg for x, steps, n in runs for seg in repeat((1, family(x, n)), steps))


def truth_pmfs(scenario: DriftScenario) -> tuple[Pmf, ...]:
    """The full truth sequence, index t-1 holding the distribution of step t.

    O(T) references; ``true_pmf`` reads one step from the segments instead.
    """
    out: list[Pmf] = []
    for count, pmf in segments(scenario):
        out.extend([pmf] * count)
    return tuple(out)


def true_pmf(scenario: DriftScenario, t: int) -> Pmf:
    """True distribution at step t (1-based), found by walking the segments."""
    if not 1 <= t <= scenario.t:
        raise ValueError(f"time step {t} outside [1, {scenario.t}]")
    for count, pmf in segments(scenario):
        t -= count
        if t <= 0:
            return pmf


def scenario_delta(scenario: DriftScenario, r: int) -> float:
    """Exact drift error of the most recent r steps, from the true pmfs."""
    if not 1 <= r <= scenario.t:
        raise ValueError(f"window size {r} outside [1, {scenario.t}]")
    return float(scenario_delta_curve(scenario)[r - 1])


@lru_cache(maxsize=32)
def scenario_delta_curve(scenario: DriftScenario) -> np.ndarray:
    """Drift errors for every window size 1..t (read-only array)."""
    curve = drift_sequence(segments(scenario))
    curve.setflags(write=False)
    return curve


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


def sample_stream(scenario: DriftScenario, trial: int) -> np.ndarray:
    """Draw one sample per step, oldest first; reproducible from (seed, trial).

    Inverse CDF over each step's sorted symbols, read from ``segments``:
    linear drift by a closed form across all steps, the uniform kinds by one
    CDF for the whole stream, geometric and zipf by one CDF per segment.
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
    segs = segments(scenario)
    if scenario.kind in ("iid", "abrupt", "rotating_support"):
        # every segment is uniform over k consecutive symbols, so a step's
        # sample is its segment's first symbol plus a rank shared by all
        starts = np.array([pmf.symbols[0] for _, pmf in segs], dtype=np.int64)
        return _inverse_cdf(segs[0][1].probs, u) + np.repeat(starts, [c for c, _ in segs])
    out = np.empty(scenario.t, dtype=np.int64)
    pos = 0
    for count, pmf in segs:
        out[pos:pos + count] = pmf.symbols[_inverse_cdf(pmf.probs, u[pos:pos + count])]
        pos += count
    return out


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
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario_config(fh.read())
