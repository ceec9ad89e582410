"""Sparse discrete distributions and the complexity functionals built on them.

Symbols are nonnegative integers.  Supports are finite and stored as sorted
arrays so every sum over a support runs in a fixed (sorted-symbol) order,
which keeps all derived quantities bit-reproducible from run to run.
A window of samples is a ``Pmf`` too: its probabilities are its counts
over its size (``windows.LadderBlock``), and its empirical complexity is
``block_phis``.

Total variation is half the L1 distance over the sorted union of two
supports, and one kernel (``_tvs``) takes every TV here: a base row on a
layout, less each row's atoms at their places, 0.5 times each row's sum of
absolute values.  Three layouts feed it, each holding the values a pair's
sorted union holds, in the same order, so each TV has ``tv_distance``'s
bits: the union, sorted (``tv_distance``); a support that holds the rows'
symbols (``block_tvs`` and ``RowStack``: a window and its average, nested
windows); and a run of consecutive symbols with the other side's symbols
around it (``run_tv``, ``block_run_tvs`` and ``rows_tv``: a truth's
current pmf).  A row's sum is always one sum over one contiguous row
holding exactly those values: a C-contiguous row of a 2-D array sums as
the 1-D array does, and rows of unequal length are summed apart
(``row_sums``), never padded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

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


def as_stream(samples) -> np.ndarray:
    """Validate a sample stream (oldest first) into an int64 array."""
    arr = int64_values(samples, "samples")
    if arr.ndim != 1:
        raise ValueError("a sample stream must be one-dimensional")
    if arr.size == 0:
        raise ValueError("empty sample stream")
    if np.any(arr < 0):
        raise ValueError("samples must be nonnegative integers")
    return arr


def _sorted_atoms(symbols, probs, copy: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Normalize (symbols, probs) into sorted, validated, read-only atoms of mass 1.

    Atoms that arrive sorted cost one linear check; only other input is
    argsorted and searched for duplicates.  Without ``copy``, int64 symbols
    and float64 probabilities that arrive sorted, with no zero atom, are
    kept as given, and made read-only.
    """
    syms = int64_values(symbols, "symbols", copy=copy)
    w = (np.array if copy else np.asarray)(probs, dtype=np.float64)
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
    total = float(np.sum(w))
    if abs(total - 1.0) > MASS_TOL:
        raise ValueError(f"pmf mass is {total!r}, not 1 within {MASS_TOL}")
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
        self._set(*_sorted_atoms(self.symbols, self.probs))

    def _set(self, symbols: np.ndarray, probs: np.ndarray) -> None:
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "probs", probs)

    @classmethod
    def _unchecked(cls, symbols: np.ndarray, probs: np.ndarray) -> "Pmf":
        """The pmf of atoms that are valid by construction, taken as given: nothing is checked.

        The symbols must be sorted, distinct and nonnegative, the
        probabilities positive with mass 1, and both arrays read-only.
        """
        pmf = cls.__new__(cls)
        pmf._set(symbols, probs)
        return pmf

    @classmethod
    def _adopt(cls, symbols: np.ndarray, probs: np.ndarray) -> "Pmf":
        """The pmf of atoms its caller gives up: the constructor's checks, without its copies."""
        return cls._unchecked(*_sorted_atoms(symbols, probs, copy=False))

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


def _rows_per_chunk(width: int) -> int:
    """Rows of ``width`` elements in a chunk: at least one, at most one over ``CHUNK_ELEMENTS``."""
    return max(1, CHUNK_ELEMENTS // width)


def row_slices(rows: int, width: int) -> Iterator[slice]:
    """Consecutive slices of ``rows`` rows, each at most one row over ``CHUNK_ELEMENTS``."""
    step = _rows_per_chunk(width)
    return (slice(lo, min(lo + step, rows)) for lo in range(0, rows, step))


def row_sums(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """``values[bounds[i]:bounds[i + 1]].sum()`` for every i, bit for bit.

    The rows of one length are gathered into one C-contiguous matrix and
    summed along its rows, each as its 1-D slice sums.  No row is padded:
    a zero would move values between numpy's eight partial sums.
    """
    lengths = bounds[1:] - bounds[:-1]
    distinct = set(lengths.tolist())
    if len(distinct) == 1:  # the rows already lie as one matrix
        return values[bounds[0]:bounds[-1]].reshape(lengths.size, distinct.pop()).sum(axis=1)
    sums = np.empty(lengths.size)
    for n in distinct:
        rows = (lengths == n).nonzero()[0]
        sums[rows] = values[bounds[rows, None] + np.arange(n)].sum(axis=1)
    return sums


def _tvs(base: np.ndarray, flat: np.ndarray, probs: np.ndarray, n: int,
         keep: np.ndarray | None = None) -> np.ndarray:
    """0.5 times each of n rows' sum of |base less the row's atoms|, on one layout: their TVs.

    Atom i has probability ``probs[i]`` at ``flat[i]`` of the flat n x
    |layout| matrix: its row is ``flat[i] // |layout|`` and its layout
    place the remainder, and ``flat`` ascends.  A chunk of rows at a time
    (as ``row_slices`` cuts them), one scatter writes every atom into a
    zero matrix, which is then taken from ``base``: each place holds base
    less the row's atom there, or base (x - 0.0 is x).  With ``keep``, a
    mask of the layout's places, each row keeps only those places and its
    own, in layout order, and is summed alone or with the rows of its kept
    length (``row_sums``); without it each row sums whole.  The layout
    builders make each row's kept values the ones its pair's sorted union
    holds, in the same order (|a - b| equals |b - a|), and a C-contiguous
    row sums as the 1-D array does, so every TV is the pair's
    ``tv_distance`` bit for bit.
    """
    width = base.size
    step = _rows_per_chunk(width)
    sums = []
    b = 0
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        # the chunk's atoms, and their places in its matrix
        a, b = b, flat.size if hi == n else int(flat.searchsorted(hi * width))
        at = flat[a:b] - lo * width
        diff = np.zeros((hi - lo, width))
        diff.ravel()[at] = probs[a:b]
        np.subtract(base, diff, out=diff)
        np.abs(diff, out=diff)
        if keep is None:
            sums.append(diff.sum(axis=1))
            continue
        kept = np.empty(diff.shape, dtype=bool)
        kept[:] = keep
        kept.ravel()[at] = True
        ends = np.cumsum(np.count_nonzero(kept, axis=1))
        sums.append(row_sums(diff[kept], np.concatenate(([0], ends))))
    return 0.5 * (sums[0] if len(sums) == 1 else np.concatenate(sums))


def _rows_of(lengths: np.ndarray, width: int) -> np.ndarray:
    """For rows of the given lengths laid back to back, each atom's row times ``width``."""
    return np.arange(0, lengths.size * width, width).repeat(lengths)


def tv_distance(p: Pmf, q: Pmf) -> float:
    """Total variation distance: half the L1 distance over the union support.

    The union layout: p's probabilities on the sorted union, less q's.
    """
    union = sorted_union(p.symbols, q.symbols)
    base = np.zeros(union.size)
    base[union.searchsorted(p.symbols)] = p.probs
    places = union.searchsorted(q.symbols)
    return float(_tvs(base, places, q.probs, 1)[0])


# --- the subset layout: each row's symbols among q's --------------------------


def _positions_within(symbols: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Where each of ``symbols`` sits in the sorted ``support``; raises if it lacks one.

    A symbol past the support's last is placed at its end, where ``take``
    reads the last symbol back, so one comparison finds it too.
    """
    pos = support.searchsorted(symbols)
    if (support.take(pos, mode="clip") != symbols).any():
        raise ValueError("a support is not within the one it is compared with")
    return pos


def block_tvs(symbols: np.ndarray, probs: np.ndarray, bounds: np.ndarray,
              q: Pmf) -> np.ndarray:
    """``tv_distance(row, q)`` for rows whose atoms lie back to back, row i's at bounds[i]:bounds[i+1].

    Each row's symbols are among q's, so their union is q's support and
    none is sorted: q's probabilities, less each row's at their places
    (``_tvs``).  A symbol q lacks raises.
    """
    flat = _positions_within(symbols, q.symbols)
    flat += _rows_of(bounds[1:] - bounds[:-1], q.symbols.size)
    return _tvs(q.probs, flat, probs, bounds.size - 1)


# atoms a RowStack's stack makes room for before it first grows
_STACK_START = 256


class RowStack:
    """Pmfs, the rows, whose TVs are taken to pmfs holding their symbols.

    ``tvs(q)`` is ``tv_distance(row, q)`` for every row, bit for bit, on
    q's support (the layout of ``block_tvs``).  While the rows x |supp q|
    matrix fits one chunk, the rows' atoms and their row numbers come from
    a stack that ``append`` extends by one row's, so a q costs one search
    however many rows there are.  The first q too wide for that drops the
    stack, and the rows are then laid out and searched a chunk at a time
    (``row_slices``): the walk's candidates only widen, so the stack, which
    at least doubles when full, never holds much more than a chunk's atoms.
    A symbol of some row that q lacks raises.
    """

    def __init__(self, rows: Sequence[Pmf]):
        self.rows, self._atoms = [], 0
        self._stack = (np.empty(_STACK_START, dtype=np.int64), np.empty(_STACK_START),
                       np.empty(_STACK_START, dtype=np.int64))
        for p in rows:
            self.append(p)

    def append(self, p: Pmf) -> None:
        if self._stack is not None:
            a, b = self._atoms, self._atoms + p.symbols.size
            if b > self._stack[0].size:  # it grows by what it must hold: O(atoms) copies in all
                self._stack = tuple(np.concatenate((x[:a], np.empty(b, dtype=x.dtype)))
                                    for x in self._stack)
            symbols, probs, rows = self._stack
            symbols[a:b] = p.symbols
            probs[a:b] = p.probs
            rows[a:b] = len(self.rows)
            self._atoms = b
        self.rows.append(p)

    def tvs(self, q: Pmf) -> np.ndarray:
        n = len(self.rows)
        if self._stack is not None and n * q.symbols.size <= CHUNK_ELEMENTS:
            (symbols, probs, rows), k = self._stack, self._atoms
            flat = _positions_within(symbols[:k], q.symbols)
            flat += rows[:k] * q.symbols.size
            return _tvs(q.probs, flat, probs[:k], n)
        self._stack = None
        tvs = []
        for part in row_slices(n, q.symbols.size):
            chunk = self.rows[part]
            tvs.append(block_tvs(np.concatenate([p.symbols for p in chunk]),
                                 np.concatenate([p.probs for p in chunk]),
                                 np.cumsum([0] + [p.symbols.size for p in chunk]), q))
        return np.concatenate(tvs)


# --- the run layout: one side on consecutive symbols --------------------------


def _run_range(run: Pmf) -> tuple[int, int]:
    """The first symbol and width of a pmf on consecutive symbols; raises for any other."""
    lo, width = int(run.symbols[0]), run.symbols.size
    if int(run.symbols[-1]) - lo != width - 1:
        raise ValueError("run must sit on consecutive symbols")
    return lo, width


def _run_layout(run: Pmf, support: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted union of a run's symbols [lo, hi) and a sorted support, laid out without a sort.

    It is the support's symbols below lo, then lo .. hi-1, then the
    support's from hi on: two ``searchsorted`` positions.  Returns the
    run's probabilities on it, zero elsewhere, and the places of the
    support's symbols.  A truth's current pmf is such a run, since a truth
    row has no zero atom.
    """
    lo, width = _run_range(run)
    a, b = support.searchsorted((lo, lo + width)).tolist()
    base = np.zeros(a + width + support.size - b)
    base[a:a + width] = run.probs
    places = np.arange(support.size)
    places[a:b] = support[a:b] - (lo - a)
    places[b:] += a + width - b
    return base, places


def run_tv(run: Pmf, q: Pmf) -> float:
    """``tv_distance(run, q)`` bit for bit, for a pmf ``run`` on consecutive symbols [lo, hi).

    q's row sums the whole run layout of q's support (``_run_layout``).
    """
    base, places = _run_layout(run, q.symbols)
    return float(_tvs(base, places, q.probs, 1)[0])


def block_run_tvs(run: Pmf, symbols: np.ndarray, probs: np.ndarray, bounds: np.ndarray,
                  within: Pmf) -> np.ndarray:
    """``run_tv(run, row)`` for rows laid out as in ``block_tvs``, each row's symbols among ``within``'s.

    All rows share the run layout of ``within``'s support, and each keeps
    only the run's places, where its probabilities are positive, and its
    own: its own run layout.  A symbol ``within`` lacks raises.
    """
    base, places = _run_layout(run, within.symbols)
    flat = places[_positions_within(symbols, within.symbols)]
    flat += _rows_of(bounds[1:] - bounds[:-1], base.size)
    # where ``within``'s symbols are all the run's, every row sums the whole layout
    keep = base > 0 if base.size > run.symbols.size else None
    return _tvs(base, flat, probs, bounds.size - 1, keep=keep)


def rows_tv(starts: np.ndarray, widths: np.ndarray, probs: np.ndarray, q: Pmf) -> np.ndarray:
    """``tv_distance(q, row)`` for every row, bit for bit.

    Row i puts its ``widths[i]`` probabilities, which follow the rows
    before it in the flat ``probs``, on the consecutive symbols from
    ``starts[i]``; q must sit on consecutive symbols too.  A row past
    either end of q is moved next to it, which keeps the layout of its
    union with q, so all rows fit one run layout: a range of consecutive
    symbols around q's, where a symbol's place is its offset.  Each row
    keeps q's places and its own.
    """
    lo, m = _run_range(q)
    d = np.clip(starts - lo, -widths, m)
    first = min(int(d.min()), 0)  # the layout starts at symbol lo + first
    base = np.zeros(max(int((d + widths).max()), m) - first)
    base[-first:m - first] = q.probs
    bounds = np.concatenate(([0], np.cumsum(widths)))
    # each row's first atom's place in the flat matrix, less its offset in probs
    shift = np.arange(0, widths.size * base.size, base.size) + d - first - bounds[:-1]
    flat = np.arange(bounds[-1]) + np.repeat(shift, widths)
    # q's atoms are positive; rows within q's symbols all sum q's whole layout
    return _tvs(base, flat, probs, widths.size, keep=base > 0 if base.size > m else None)


def lambda_complexity(p: Pmf, r):
    """Learning-complexity functional at sample budget r.

    Atoms below mass 1/r contribute linearly; atoms at or above the
    threshold contribute sqrt(mass)/sqrt(r).  The tight rate for
    estimating the distribution from r samples.  Vectorized over ``r``: a
    scalar budget gives a float, an array of budgets an array, each from
    prefix sums over the masses in ascending order.  A scalar budget
    allocates only the sorted masses, and takes its two sums in place on
    their two sides of 1/r, adding in the order the prefix sums add: the
    window averages' complexities take scalar budgets, and a second array
    the size of the widest average would set the peak of a long truth.
    """
    rs = np.asarray(r, dtype=np.float64)
    if rs.min() < 1:
        raise ValueError("sample budget r must be >= 1")
    w = np.sort(p.probs)
    # first index whose mass is >= 1/r
    idx = np.searchsorted(w, 1.0 / rs, side="left")
    if rs.ndim == 0:
        light, heavy = w[:idx], w[idx:][::-1]
        mass = np.cumsum(light, out=light)[-1] if light.size else 0.0
        np.sqrt(heavy, out=heavy)
        root = np.cumsum(heavy, out=heavy)[-1] if heavy.size else 0.0
        return float(mass + root / np.sqrt(rs))
    prefix_mass = np.concatenate([[0.0], np.cumsum(w)])
    suffix_root = np.concatenate([[0.0], np.cumsum(np.sqrt(w)[::-1])])[::-1]
    return prefix_mass[idx] + suffix_root[idx] / np.sqrt(rs)


def half_norm(p: Pmf) -> float:
    """Squared sum of root masses; lies in [1, support size]."""
    s = float(np.sum(np.sqrt(p.probs)))
    return s * s


def block_phis(probs: np.ndarray, bounds: np.ndarray, size: int) -> np.ndarray:
    """The empirical complexity phi of windows of ``size`` samples, laid out as in ``block_tvs``.

    A window's phi is the sum of sqrt(count / r) over sqrt(r), r its size:
    sqrt(half_norm(window) / r), computable from the samples alone, and an
    upper bound on the statistical error of the window's estimate.  Each is
    one sum over its own window's root probabilities (``row_sums``).
    """
    return row_sums(np.sqrt(probs), bounds) / math.sqrt(size)
