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
other's (a window and its average, nested windows), ``block_tvs`` and
``block_run_tvs`` for those two cases over rows of atoms laid back to back
(a block of trials' windows of one size), and ``rows_tv`` for rows and a
pmf all on consecutive symbols (the drift curve).  A row's sum is always
one sum over one contiguous row holding exactly those values: a
C-contiguous row of a 2-D array sums as the 1-D array does, and rows of
unequal length are summed apart (``row_sums``), never padded.
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


def sorted_runs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct values of each row of a 2-D array of sorted rows, and their counts.

    One run-length pass over all rows: the rows' runs lie back to back, row
    i's at ``bounds[i]:bounds[i + 1]``.  Values and counts are those of
    ``np.unique(row, return_counts=True)``, with the same dtypes, without
    its wrapper.
    """
    width = rows.shape[1]
    flat = rows.ravel()
    first = np.empty(flat.size, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=first[1:])
    first[::width] = True  # every row opens a run
    starts = first.nonzero()[0]
    del first
    counts = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=counts[:-1])
    counts[-1] = flat.size - starts[-1]
    bounds = starts.searchsorted(np.arange(0, flat.size + 1, width))
    return flat[starts], counts, bounds


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
# rows this wide on average are worked on one at a time: a few vector
# operations per row then cost less than making temporaries of a chunk's size
WIDE_ROW = 256


def row_slices(rows: int, width: int) -> Iterator[slice]:
    """Consecutive slices of ``rows`` rows, each at most one row over ``CHUNK_ELEMENTS``."""
    step = max(1, CHUNK_ELEMENTS // width)
    return (slice(lo, min(lo + step, rows)) for lo in range(0, rows, step))


@dataclass(frozen=True, eq=False, init=False)
class EmpiricalWindow:
    """Symbol counts of a run of samples, such as a stream's most recent ones.

    Built from the samples alone: one sort and one run-length pass
    (``sorted_runs``) give the sorted symbols and their counts, and the
    samples are checked as ``as_stream`` checks them, with the same errors,
    but with no pass of their own: the lowest sample is the first symbol.
    Immutable, with read-only arrays.  ``windows.LadderBlock`` builds the
    windows of many streams at once and hands each its runs (``of_runs``).
    """

    symbols: np.ndarray
    counts: np.ndarray
    size: int
    probs: np.ndarray = field(repr=False)  # counts / size

    def __init__(self, samples):
        arr = _stream_array(samples)
        symbols, counts, _ = sorted_runs(np.sort(arr)[None])
        if symbols[0] < 0:
            raise ValueError(_NEGATIVE_SAMPLES)
        probs = counts / float(arr.size)
        for array in (symbols, counts, probs):
            array.setflags(write=False)
        self._set(symbols, counts, int(arr.size), probs)

    def _set(self, symbols, counts, size, probs) -> None:
        for name, value in (("symbols", symbols), ("counts", counts),
                            ("size", size), ("probs", probs)):
            object.__setattr__(self, name, value)

    @classmethod
    def of_runs(cls, symbols: np.ndarray, counts: np.ndarray, size: int,
                probs: np.ndarray) -> "EmpiricalWindow":
        """The window of ``size`` samples whose sorted runs are given, read-only, with their probs."""
        window = cls.__new__(cls)
        window._set(symbols, counts, size, probs)
        return window

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


def _run_range(run: Pmf) -> tuple[int, int]:
    """The first symbol and width of a pmf on consecutive symbols; raises for any other."""
    lo, width = int(run.symbols[0]), run.symbols.size
    if int(run.symbols[-1]) - lo != width - 1:
        raise ValueError("run must sit on consecutive symbols")
    return lo, width


def run_tv(run: Pmf, q: Distribution) -> float:
    """``tv_distance(run, q)`` bit for bit, for a pmf ``run`` on consecutive symbols [lo, hi).

    Their sorted union is q's symbols below lo, then lo .. hi-1, then q's
    symbols from hi on, so two ``searchsorted`` positions lay it out and no
    union is sorted.  It holds the values ``tv_distance`` sums in the same
    order (|a - b| equals |b - a|), so the sum is the same bits.  A truth's
    current pmf is such a run, since a truth row has no zero atom.
    """
    return _run_tv(run, q.symbols, q.probs)


def _run_tv(run: Pmf, symbols: np.ndarray, probs: np.ndarray) -> float:
    """``run_tv`` against the atoms (symbols, probs) of a distribution."""
    lo, width = _run_range(run)
    a, b = symbols.searchsorted((lo, lo + width)).tolist()
    diff = np.empty(a + width + symbols.size - b)
    diff[:a] = probs[:a]
    diff[a:a + width] = run.probs
    diff[symbols[a:b] + (a - lo)] -= probs[a:b]
    diff[a + width:] = probs[b:]
    return 0.5 * float(np.abs(diff, out=diff).sum())


def _positions_within(symbols: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Where each of ``symbols`` sits in the sorted ``support``; raises if it lacks one.

    A symbol past the support's last is placed at its end, where ``take``
    reads the last symbol back, so one comparison finds it too.
    """
    pos = support.searchsorted(symbols)
    if (support.take(pos, mode="clip") != symbols).any():
        raise ValueError("a support is not within the one it is compared with")
    return pos


def tv_within(p: Distribution, q: Distribution) -> float:
    """``tv_distance(p, q)`` bit for bit, for p's symbols among q's.

    Their union is q's support, so no union is sorted: q's probabilities
    less p's at their places.  |a - b| equals |b - a|, so the array holds
    the values ``tv_distance`` sums, in the same order.
    """
    return _tv_within(p.symbols, p.probs, q)


def _tv_within(symbols: np.ndarray, probs: np.ndarray, q: Distribution) -> float:
    """``tv_within`` of the atoms (symbols, probs) of a distribution."""
    diff = q.probs.copy()
    diff[_positions_within(symbols, q.symbols)] -= probs
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
    diff[rows, _positions_within(symbols, q.symbols)] -= probs
    return 0.5 * np.abs(diff, out=diff).sum(axis=1)


# atoms a full RowStack stack grows by beyond what it must hold
_STACK_SLACK = 256


class RowStack:
    """Distributions, the rows, whose TVs are taken to distributions holding their symbols.

    ``tvs(q)`` is ``tv_within(row, q)`` for every row, bit for bit, from a
    rows x |supp q| matrix built a chunk of rows at a time (``row_slices``),
    each chunk from one ``searchsorted`` and one scatter of its rows' atoms
    laid back to back; a chunk of one row takes that row's own arrays.  A
    symbol of some row that q lacks raises.  While the matrix fits one
    chunk, the atoms come from a stack that ``append`` extends by one row's,
    so a q costs one search however many rows there are.  A full stack
    grows to ``_STACK_SLACK`` atoms more than it must hold: a walk over
    small supports allocates it once or twice, and one over large supports
    holds little more than its atoms.  The first q too wide for that drops the stack: the walk's
    candidates only widen, and appending on the wide side would only copy.
    """

    def __init__(self, rows: Sequence[Distribution]):
        self.rows = list(rows)
        self._stack = _stack(self.rows)
        self._atoms = self._stack[0].size

    def append(self, p: Distribution) -> None:
        if self._stack is not None:
            atoms = self._atoms + p.symbols.size
            if atoms > self._stack[0].size:
                grown = tuple(np.empty(atoms + _STACK_SLACK, dtype=a.dtype) for a in self._stack)
                for new, old in zip(grown, self._stack):
                    new[:self._atoms] = old[:self._atoms]
                self._stack = grown
            symbols, probs, rows = self._stack
            symbols[self._atoms:atoms] = p.symbols
            probs[self._atoms:atoms] = p.probs
            rows[self._atoms:atoms] = len(self.rows)
            self._atoms = atoms
        self.rows.append(p)

    def tvs(self, q: Distribution) -> np.ndarray:
        n = len(self.rows)
        if self._stack is not None and n * q.symbols.size <= CHUNK_ELEMENTS:
            symbols, probs, rows = self._stack
            atoms = self._atoms
            return _stacked_tvs(symbols[:atoms], probs[:atoms], rows[:atoms], n, q)
        self._stack = None
        gaps = np.empty(n)
        for part in row_slices(n, q.symbols.size):
            chunk = self.rows[part]
            gaps[part] = (tv_within(chunk[0], q) if len(chunk) == 1
                          else _stacked_tvs(*_stack(chunk), len(chunk), q))
        return gaps


def row_sums(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """``values[bounds[i]:bounds[i + 1]].sum()`` for every i, bit for bit.

    The rows of one length are gathered into one C-contiguous matrix and
    summed along its rows, each as its 1-D slice sums.  No row is padded:
    a zero would move values between numpy's eight partial sums.
    """
    if bounds.size == 2:
        return np.array([values[bounds[0]:bounds[1]].sum()])
    lengths = bounds[1:] - bounds[:-1]
    distinct = set(lengths.tolist())
    if len(distinct) == 1:  # the rows already lie as one matrix
        return values[bounds[0]:bounds[-1]].reshape(lengths.size, distinct.pop()).sum(axis=1)
    sums = np.empty(lengths.size)
    for n in distinct:
        rows = (lengths == n).nonzero()[0]
        sums[rows] = values[bounds[rows, None] + np.arange(n)].sum(axis=1)
    return sums


def _chunk_rows(bounds: np.ndarray, part: slice) -> np.ndarray:
    """The row, counted from the chunk's first, of each atom of the rows in ``part``."""
    return np.arange(part.stop - part.start).repeat(
        bounds[part.start + 1:part.stop + 1] - bounds[part.start:part.stop])


def block_tvs(symbols: np.ndarray, probs: np.ndarray, bounds: np.ndarray,
              q: Distribution) -> np.ndarray:
    """``tv_within(row, q)`` for rows whose atoms lie back to back, row i's at bounds[i]:bounds[i+1].

    One matrix (``_stacked_tvs``) per chunk of rows (``row_slices``), and a
    chunk of one row on its own atoms; a symbol q lacks raises.
    """
    if bounds.size == 2:
        return np.array([_tv_within(symbols, probs, q)])
    n = bounds.size - 1
    gaps = np.empty(n)
    for part in row_slices(n, q.symbols.size):
        a, b = bounds[part.start], bounds[part.stop]
        k = part.stop - part.start
        gaps[part] = (_tv_within(symbols[a:b], probs[a:b], q) if k == 1 else
                      _stacked_tvs(symbols[a:b], probs[a:b], _chunk_rows(bounds, part), k, q))
    return gaps


def block_run_tvs(run: Pmf, symbols: np.ndarray, probs: np.ndarray, bounds: np.ndarray,
                  within: Distribution) -> np.ndarray:
    """``run_tv(run, row)`` for rows laid out as in ``block_tvs``, each row's symbols among ``within``'s.

    A chunk of rows shares one layout, the union of ``within``'s symbols and
    the run's: a matrix starts as the run's probabilities there, and one
    scatter subtracts every atom.  Each row then keeps only the places of
    its own symbols and the run's, in order, which are the values
    ``run_tv`` sums, and is summed alone or with the rows of its kept
    length (``row_sums``).  A single row is ``run_tv`` on its atoms.
    """
    if bounds.size == 2:
        return np.array([_run_tv(run, symbols, probs)])
    lo, width = _run_range(run)
    union = sorted_union(within.symbols, run.symbols)
    at = int(union.searchsorted(lo))
    start = np.zeros(union.size)
    start[at:at + width] = run.probs
    in_run = np.zeros(union.size, dtype=bool)
    in_run[at:at + width] = True
    n = bounds.size - 1
    gaps = np.empty(n)
    for part in row_slices(n, union.size):
        a, b = bounds[part.start], bounds[part.stop]
        k = part.stop - part.start
        rows, cols = _chunk_rows(bounds, part), _positions_within(symbols[a:b], union)
        diff = np.empty((k, union.size))
        diff[:] = start
        diff[rows, cols] -= probs[a:b]
        keep = np.empty((k, union.size), dtype=bool)
        keep[:] = in_run
        keep[rows, cols] = True
        ends = np.cumsum(np.count_nonzero(keep, axis=1))
        gaps[part] = 0.5 * row_sums(np.abs(diff[keep]), np.concatenate(([0], ends)))
    return gaps


def rows_tv(starts: np.ndarray, widths: np.ndarray, probs: np.ndarray, q: Pmf) -> np.ndarray:
    """``tv_distance(q, row)`` for every row, bit for bit.

    Row i puts its ``widths[i]`` probabilities, which follow the rows
    before it in the flat ``probs``, on the consecutive symbols from
    ``starts[i]``; q must sit on consecutive symbols too.  Row and q are
    laid out on their sorted union, as ``tv_distance`` lays them out, so
    each row's sum runs over the same values in the same order.  The layout
    is where the row starts against q and the union's width, so the rows
    that share one, whatever their own widths, are summed together, one
    ``np.sum(axis=1)`` per chunk.  Rows of ``WIDE_ROW`` atoms or more on
    average are measured one at a time instead (``_run_tv``), each on its
    own atoms, with no matrix of the chunk's size.
    """
    offsets = np.concatenate(([0], np.cumsum(widths)))
    if offsets[-1] >= WIDE_ROW * widths.size:
        return np.array([_run_tv(q, start + np.arange(b - a), probs[a:b]) for start, a, b
                         in zip(starts.tolist(), offsets[:-1].tolist(), offsets[1:].tolist())])
    m = q.symbols.size
    q_lo, _ = _run_range(q)
    # a row past either end of q is laid out as a row adjacent to it
    d = np.clip(starts - q_lo, -widths, m)
    union = np.maximum(d + widths, m) - np.minimum(d, 0)
    layouts, which = np.unique((d + int(widths.max())) * (int(union.max()) + 1) + union,
                               return_inverse=True)
    gaps = np.empty(starts.size)
    for k in range(layouts.size):
        rows = np.flatnonzero(which == k)
        first = rows[0]
        row_at, q_at, width = max(int(d[first]), 0), max(-int(d[first]), 0), int(union[first])
        for part in row_slices(rows.size, width):
            chunk = rows[part]
            n = widths[chunk]
            within = np.arange(int(n.sum())) - np.repeat(np.cumsum(n) - n, n)
            diff = np.zeros((chunk.size, width))
            diff.ravel()[np.repeat(np.arange(chunk.size) * width + row_at, n) + within] = (
                probs[np.repeat(offsets[chunk], n) + within])
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


def block_phis(probs: np.ndarray, bounds: np.ndarray, size: int) -> np.ndarray:
    """``phi_empirical`` of windows of ``size`` samples laid out as in ``block_tvs``, bit for bit.

    Each is one sum over its own window's root probabilities (``row_sums``).
    """
    return row_sums(np.sqrt(probs), bounds) / math.sqrt(size)


def phi_empirical(w: EmpiricalWindow) -> float:
    """Empirical complexity of a window: sum of sqrt(counts/r) over sqrt(r).

    Equals sqrt(half_norm(w) / r); computable from the samples alone and
    upper-bounds the statistical error of the window's estimate.
    """
    return float(np.sum(np.sqrt(w.probs)) / math.sqrt(w.size))
