"""Sparse discrete distributions and the complexity functionals built on them.

Symbols are nonnegative integers.  Supports are finite and stored as sorted
arrays so every sum over a support runs in a fixed (sorted-symbol) order,
which keeps all derived quantities bit-reproducible from run to run.

Total variation is half the L1 distance over the sorted union of two
supports.  ``tv_distance`` sorts that union; the other TV functions know
its layout in advance and sort nothing, yet sum the same values in the
same order, so each gives ``tv_distance``'s bits: ``run_tv`` when one side
sits on consecutive symbols (a truth's current pmf), ``tv_within`` for a
pair and ``RowStack`` for many rows when one side's symbols are among the
other's (a window and its average, nested windows), and ``rows_tv`` for
rows and a pmf all on consecutive symbols (the drift curve).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

# |sum of probabilities - 1| allowed for a valid pmf
MASS_TOL = 1e-9

_INT64_MAX = np.iinfo(np.int64).max


def int64_values(values, what: str, copy: bool = False) -> np.ndarray:
    """``values`` as an int64 array, copied only if ``copy`` is set or the dtype differs.

    Only integer input is accepted: float, bool, string and object input
    (such as Python ints beyond int64) raises instead of being truncated.
    """
    arr = np.asarray(values)
    if arr.size and (arr.dtype.kind not in "iu"
                     or (arr.dtype.kind == "u" and arr.max() > _INT64_MAX)):
        raise ValueError(f"{what} must be integers within the int64 range, "
                         f"got dtype {arr.dtype}")
    return arr.astype(np.int64, copy=copy)


def _stream_array(samples) -> np.ndarray:
    """``samples`` as a one-dimensional, non-empty int64 array: ``as_stream`` but its sign check.

    The checks take O(1) on int64 input.
    """
    arr = int64_values(samples, "samples")
    if arr.ndim != 1:
        raise ValueError("a sample stream must be one-dimensional")
    if arr.size == 0:
        raise ValueError("empty sample stream")
    return arr


_NEGATIVE_SAMPLES = "samples must be nonnegative integers"


def as_stream(samples) -> np.ndarray:
    """Validate a sample stream (oldest first) into an int64 array."""
    arr = _stream_array(samples)
    if np.any(arr < 0):
        raise ValueError(_NEGATIVE_SAMPLES)
    return arr


def _sorted_atoms(symbols, probs) -> tuple[np.ndarray, np.ndarray]:
    """Normalize (symbols, probs) into sorted, validated, read-only atom copies.

    Atoms that arrive sorted cost one linear check; only other input is
    argsorted and searched for duplicates.
    """
    syms = int64_values(symbols, "symbols", copy=True)
    w = np.array(probs, dtype=np.float64)
    if syms.ndim != 1 or w.ndim != 1 or syms.shape != w.shape:
        raise ValueError("symbols and weights must be 1-D arrays of equal length")
    if syms.size == 0:
        raise ValueError("support must be non-empty")
    increasing = bool(np.all(syms[1:] > syms[:-1]))
    if not increasing:
        order = np.argsort(syms)
        syms, w = syms[order], w[order]
    if syms[0] < 0:
        raise ValueError("symbols must be nonnegative integers")
    if not increasing and np.any(syms[1:] == syms[:-1]):
        raise ValueError("duplicate symbols in support")
    if not np.all(np.isfinite(w)):
        raise ValueError("probabilities must be finite")
    lowest = w.min()
    if lowest < 0.0:
        raise ValueError("probabilities must be nonnegative")
    if lowest == 0.0:
        keep = w > 0.0
        syms, w = syms[keep], w[keep]
        if syms.size == 0:
            raise ValueError("pmf has no positive-mass atoms")
    syms.setflags(write=False)
    w.setflags(write=False)
    return syms, w


def sorted_union(*arrays: np.ndarray) -> np.ndarray:
    """Sorted distinct values of the given arrays: one sort of their concatenation.

    Used for every union of supports: numpy >= 2.3 runs its ``union1d`` and
    a ``unique`` without ``return_*`` through a hash table, several times
    slower than this sort on large supports.
    """
    merged = np.sort(np.concatenate(arrays))
    keep = np.empty(merged.size, dtype=bool)
    keep[:1] = True
    np.not_equal(merged[1:], merged[:-1], out=keep[1:])
    return merged[keep]


@dataclass(frozen=True, eq=False)
class Pmf:
    """Exact probability mass function over nonnegative integer symbols.

    Only strictly positive atoms are stored; probabilities must sum to 1
    within ``MASS_TOL``.  Instances are immutable and safe to share.
    """

    symbols: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        syms, probs = _sorted_atoms(self.symbols, self.probs)
        total = float(np.sum(probs))
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"pmf mass is {total!r}, not 1 within {MASS_TOL}")
        object.__setattr__(self, "symbols", syms)
        object.__setattr__(self, "probs", probs)

    @classmethod
    def from_dict(cls, atoms: Mapping[int, float]) -> "Pmf":
        items = sorted(atoms.items())
        return cls(np.array([s for s, _ in items]),
                   np.array([p for _, p in items], dtype=np.float64))

    @classmethod
    def point_mass(cls, symbol: int) -> "Pmf":
        return cls(np.array([symbol]), np.array([1.0]))

    @classmethod
    def uniform(cls, symbols: Iterable[int]) -> "Pmf":
        if isinstance(symbols, range):
            # distinct already, and built without one Python int per symbol;
            # the constructor sorts a descending range
            syms = np.arange(symbols.start, symbols.stop, symbols.step)
        else:
            syms = sorted_union(int64_values(np.array(list(symbols)), "symbols"))
        return cls(syms, np.full(syms.size, 1.0 / syms.size))

    @property
    def support_size(self) -> int:
        return int(self.symbols.size)

    def prob(self, symbol: int) -> float:
        """Probability of one symbol (0 when outside the support)."""
        i = np.searchsorted(self.symbols, symbol)
        if i < self.symbols.size and self.symbols[i] == symbol:
            return float(self.probs[i])
        return 0.0

    def as_dict(self) -> dict[int, float]:
        return {int(s): float(p) for s, p in zip(self.symbols, self.probs)}

    def to_json_obj(self) -> dict:
        return {"atoms": [{"symbol": int(s), "prob": float(p)}
                          for s, p in zip(self.symbols, self.probs)]}

    def write_json(self, fh) -> None:
        """Write ``json.dumps(self.to_json_obj())``, formatting the atoms a chunk at a time.

        The atom list is never held whole, as dicts or as one string, so a
        pmf of millions of atoms writes in bounded memory.  Atoms are
        formatted as ``json.dumps`` formats them: ints by ``str``, floats by
        ``repr``, the same separators.
        """
        fh.write('{"atoms": [')
        for lo in range(0, self.support_size, CHUNK_ELEMENTS):
            part = slice(lo, lo + CHUNK_ELEMENTS)
            probs = self.probs[part].tolist()
            # an empirical pmf's probabilities are counts over one size, so
            # few are distinct, and each is formatted once
            text = {p: repr(p) for p in set(probs)}
            fh.write((", " if lo else "") + ", ".join([
                f'{{"symbol": {s}, "prob": {text[p]}}}'
                for s, p in zip(self.symbols[part].tolist(), probs)]))
        fh.write("]}")


# elements of one 2-D chunk in the row-block operations, which bounds their temporaries
CHUNK_ELEMENTS = 1 << 15


def row_slices(rows: int, width: int) -> Iterator[slice]:
    """Consecutive slices of ``rows`` rows, each at most one row over ``CHUNK_ELEMENTS``."""
    step = max(1, CHUNK_ELEMENTS // width)
    return (slice(lo, min(lo + step, rows)) for lo in range(0, rows, step))


@dataclass(frozen=True, eq=False, init=False)
class EmpiricalWindow:
    """Symbol counts of a run of samples, such as a stream's most recent ones.

    Built from the samples alone: one ``np.unique`` gives the sorted
    symbols and their counts, and the samples are checked as ``as_stream``
    checks them, with the same errors, but with no pass of their own: the
    lowest sample is the first symbol.  Immutable, with read-only arrays.
    """

    symbols: np.ndarray
    counts: np.ndarray
    size: int
    probs: np.ndarray = field(repr=False)  # counts / size

    def __init__(self, samples):
        arr = _stream_array(samples)
        symbols, counts = np.unique(arr, return_counts=True)
        if symbols[0] < 0:
            raise ValueError(_NEGATIVE_SAMPLES)
        probs = counts / float(arr.size)
        for array in (symbols, counts, probs):
            array.setflags(write=False)
        for name, value in (("symbols", symbols), ("counts", counts),
                            ("size", int(arr.size)), ("probs", probs)):
            object.__setattr__(self, name, value)

    def to_pmf(self) -> Pmf:
        return Pmf(self.symbols, self.probs)


Distribution = Union[Pmf, EmpiricalWindow]  # both carry sorted symbols and their probs


def tv_distance(p: Distribution, q: Distribution) -> float:
    """Total variation distance: half the L1 distance over the union support."""
    union = sorted_union(p.symbols, q.symbols)
    diff = np.zeros(union.size)
    diff[np.searchsorted(union, p.symbols)] = p.probs
    diff[np.searchsorted(union, q.symbols)] -= q.probs
    return 0.5 * float(np.sum(np.abs(diff)))


def run_tv(run: Pmf, q: Distribution) -> float:
    """``tv_distance(run, q)`` bit for bit, for a pmf ``run`` on consecutive symbols [lo, hi).

    Their sorted union is q's symbols below lo, then lo .. hi-1, then q's
    symbols from hi on, so two ``searchsorted`` positions lay it out and no
    union is sorted.  It holds the values ``tv_distance`` sums in the same
    order (|a - b| equals |b - a|), so the sum is the same bits.  A truth's
    current pmf is such a run, since a truth row has no zero atom.
    """
    lo, width = int(run.symbols[0]), run.symbols.size
    if int(run.symbols[-1]) - lo != width - 1:
        raise ValueError("run must sit on consecutive symbols")
    a, b = q.symbols.searchsorted((lo, lo + width)).tolist()
    diff = np.empty(a + width + q.symbols.size - b)
    diff[:a] = q.probs[:a]
    diff[a:a + width] = run.probs
    diff[q.symbols[a:b] + (a - lo)] -= q.probs[a:b]
    diff[a + width:] = q.probs[b:]
    return 0.5 * float(np.abs(diff, out=diff).sum())


def _positions_within(symbols: np.ndarray, q: Distribution) -> np.ndarray:
    """Where each of ``symbols`` sits among q's sorted symbols; raises if q lacks one.

    A symbol past q's last is placed at q's end, where ``take`` reads q's
    last symbol back, so one comparison finds it too.
    """
    pos = q.symbols.searchsorted(symbols)
    if (q.symbols.take(pos, mode="clip") != symbols).any():
        raise ValueError("a support is not within the one it is compared with")
    return pos


def tv_within(p: Distribution, q: Distribution) -> float:
    """``tv_distance(p, q)`` bit for bit, for p's symbols among q's.

    Their union is q's support, so no union is sorted: q's probabilities
    less p's at their places.  |a - b| equals |b - a|, so the array holds
    the values ``tv_distance`` sums, in the same order.
    """
    diff = q.probs.copy()
    diff[_positions_within(p.symbols, q)] -= p.probs
    return 0.5 * float(np.abs(diff, out=diff).sum())


def _stack(ps: Sequence[Distribution]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The atoms of ``ps`` laid back to back: their symbols, their probabilities, their rows."""
    return (np.concatenate([p.symbols for p in ps]), np.concatenate([p.probs for p in ps]),
            np.repeat(np.arange(len(ps)), [p.symbols.size for p in ps]))


def _stacked_tvs(symbols: np.ndarray, probs: np.ndarray, rows: np.ndarray, n: int,
                 q: Distribution) -> np.ndarray:
    """``tv_within`` of n distributions whose atoms lie back to back, atom i on row ``rows[i]``.

    Each row of an n x |supp q| matrix starts as q's probabilities, and one
    scatter subtracts every atom.  A C-contiguous row sums as a 1-D array
    does, so each value is the same bits.
    """
    diff = np.empty((n, q.symbols.size))
    diff[:] = q.probs
    diff[rows, _positions_within(symbols, q)] -= probs
    return 0.5 * np.abs(diff, out=diff).sum(axis=1)


class RowStack:
    """Distributions, the rows, whose TVs are taken to distributions holding their symbols.

    ``tvs(q)`` is ``tv_within(row, q)`` for every row, bit for bit, from a
    rows x |supp q| matrix built a chunk of rows at a time (``row_slices``),
    each chunk from one ``searchsorted`` and one scatter of its rows' atoms
    laid back to back; a chunk of one row takes that row's own arrays.  A
    symbol of some row that q lacks raises.  While the matrix fits one
    chunk, the atoms come from a stack that ``append`` extends by one row's,
    so a q costs one search however many rows there are.  The first q too
    wide for that drops the stack: the walk's candidates only widen, and
    appending on the wide side would only copy.
    """

    def __init__(self, rows: Sequence[Distribution]):
        self.rows = list(rows)
        self._stack = _stack(self.rows)

    def append(self, p: Distribution) -> None:
        if self._stack is not None:
            symbols, probs, rows = self._stack
            self._stack = (np.concatenate((symbols, p.symbols)), np.concatenate((probs, p.probs)),
                           np.concatenate((rows, np.full(p.symbols.size, len(self.rows)))))
        self.rows.append(p)

    def tvs(self, q: Distribution) -> list[float]:
        n = len(self.rows)
        if self._stack is not None and n * q.symbols.size <= CHUNK_ELEMENTS:
            return _stacked_tvs(*self._stack, n, q).tolist()
        self._stack = None
        gaps = np.empty(n)
        for part in row_slices(n, q.symbols.size):
            chunk = self.rows[part]
            gaps[part] = (tv_within(chunk[0], q) if len(chunk) == 1
                          else _stacked_tvs(*_stack(chunk), len(chunk), q))
        return gaps.tolist()


def rows_tv(starts: np.ndarray, probs: np.ndarray, q: Pmf) -> np.ndarray:
    """``tv_distance(q, row)`` for every row of a block, bit for bit.

    Row i of the 2-D ``probs`` puts ``probs[i, m]`` on symbol
    ``starts[i] + m``; q must sit on consecutive symbols too.  Row and q are
    laid out on their sorted union, as ``tv_distance`` lays them out, so
    each row's sum runs over the same values in the same order.  The layout
    depends only on where the row starts against q, so rows that start
    alike are summed together, one ``np.sum(axis=1)`` per chunk.
    """
    n, m = probs.shape[1], q.symbols.size
    q_lo = int(q.symbols[0])
    if int(q.symbols[-1]) - q_lo != m - 1:
        raise ValueError("q must sit on consecutive symbols")
    # offset of each row's first symbol from q's; past either end, row and q are apart
    offsets, which = np.unique(np.clip(starts - q_lo, -n - 1, m + 1), return_inverse=True)
    gaps = np.empty(which.size)
    for k, d in enumerate(offsets.tolist()):
        if d == -n - 1:
            width, row_at, q_at = n + m, 0, n
        elif d == m + 1:
            width, row_at, q_at = n + m, m, 0
        else:  # overlapping or adjacent: the union is one run of symbols
            lo = min(d, 0)
            width, row_at, q_at = max(d + n, m) - lo, d - lo, -lo
        rows = np.flatnonzero(which == k)
        for part in row_slices(rows.size, width):
            chunk = rows[part]
            diff = np.zeros((chunk.size, width))
            diff[:, row_at:row_at + n] = probs[chunk]
            diff[:, q_at:q_at + m] -= q.probs
            gaps[chunk] = 0.5 * np.sum(np.abs(diff), axis=1)
    return gaps


def lambda_complexity(p: Distribution, r):
    """Learning-complexity functional at sample budget r.

    Atoms below mass 1/r contribute linearly; atoms at or above the
    threshold contribute sqrt(mass)/sqrt(r).  The tight rate for
    estimating the distribution from r samples.  Vectorized over ``r``: a
    scalar budget gives a float, an array of budgets an array, each from
    prefix sums over the masses in ascending order.
    """
    rs = np.asarray(r, dtype=np.float64)
    if rs.min() < 1:
        raise ValueError("sample budget r must be >= 1")
    w = np.sort(p.probs)
    prefix_mass = np.concatenate([[0.0], np.cumsum(w)])
    suffix_root = np.concatenate([[0.0], np.cumsum(np.sqrt(w)[::-1])])[::-1]
    # first index whose mass is >= 1/r
    idx = np.searchsorted(w, 1.0 / rs, side="left")
    lam = prefix_mass[idx] + suffix_root[idx] / np.sqrt(rs)
    return float(lam) if lam.ndim == 0 else lam


def half_norm(p: Distribution) -> float:
    """Squared sum of root masses; lies in [1, support size]."""
    s = float(np.sum(np.sqrt(p.probs)))
    return s * s


def phi_empirical(w: EmpiricalWindow) -> float:
    """Empirical complexity of a window: sum of sqrt(counts/r) over sqrt(r).

    Equals sqrt(half_norm(w) / r); computable from the samples alone and
    upper-bounds the statistical error of the window's estimate.
    """
    return float(np.sum(np.sqrt(w.probs)) / math.sqrt(w.size))
