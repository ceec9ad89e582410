"""Sparse discrete distributions and the complexity functionals built on them.

Symbols are nonnegative integers.  Supports are finite and stored as sorted
arrays so every sum over a support runs in a fixed (sorted-symbol) order,
which keeps all derived quantities bit-reproducible from run to run.
A window of samples is a ``Pmf`` too: its probabilities are its counts
over its size (``windows.LadderBlock``), and its empirical complexity is
``block_phis``.

Total variation is half the L1 distance over the sorted union of two
supports, summed as one 1-D array (``tv_distance``).  ``block_tvs`` takes
the TVs of many rows, each against its own pmf, with those bits: each row
lies on its sorted union with its pmf, laid out without a sort.  The
adaptive walk compares windows of counts, whose TVs are exact integer
sums, without either.
"""

from __future__ import annotations

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


def row_slices(rows: int, width: int) -> Iterator[slice]:
    """Consecutive slices of ``rows`` rows, each at most one row over ``CHUNK_ELEMENTS``."""
    step = max(1, CHUNK_ELEMENTS // width)
    return (slice(lo, min(lo + step, rows)) for lo in range(0, rows, step))


def row_sums(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """``values[bounds[i]:bounds[i + 1]].sum()`` for every i, bit for bit.

    The rows of one length are gathered into one C-contiguous matrix and
    summed along its rows, each as its 1-D slice sums; rows of one length
    that lie back to back are that matrix already.  No row is padded: a
    zero would move values between numpy's eight partial sums.
    """
    lengths = bounds[1:] - bounds[:-1]
    if (lengths == lengths[0]).all():  # the rows already lie as one matrix
        return values[bounds[0]:bounds[-1]].reshape(lengths.size, int(lengths[0])).sum(axis=1)
    sums = np.empty(lengths.size)
    for n in set(lengths.tolist()):
        rows = (lengths == n).nonzero()[0]
        first, last = int(rows[0]), int(rows[-1])
        if last - first == rows.size - 1:
            sums[first:last + 1] = values[bounds[first]:bounds[last + 1]].reshape(-1, n).sum(axis=1)
        else:
            sums[rows] = values[bounds[rows, None] + np.arange(n)].sum(axis=1)
    return sums


def row_edges(widths) -> np.ndarray:
    """Rows' edges in a flat layout of rows of these widths laid back to back."""
    edges = np.zeros(len(widths) + 1, dtype=np.int64)
    np.cumsum(widths, out=edges[1:])
    return edges


def tv_distance(p: Pmf, q: Pmf) -> float:
    """Total variation distance: half the L1 distance over the union support.

    p's probabilities on the sorted union, less q's, summed as one 1-D
    array: the definition whose bits every TV here has.
    """
    union = sorted_union(p.symbols, q.symbols)
    diff = np.zeros(union.size)
    diff[union.searchsorted(p.symbols)] = p.probs
    diff[union.searchsorted(q.symbols)] -= q.probs
    return 0.5 * float(np.abs(diff, out=diff).sum())


# a block of rows laid back to back: its atoms' symbols and probabilities, row
# i's at bounds[i]:bounds[i + 1], from bounds[0] = 0 to the arrays' end
Block = tuple[np.ndarray, np.ndarray, np.ndarray]


def _cat(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """The arrays back to back; one array is itself, not a copy."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def joined_bounds(blocks: Sequence[Block]) -> np.ndarray:
    """The rows' atom bounds of several blocks whose atoms are laid back to back, block by block."""
    if len(blocks) == 1:
        return blocks[0][2]
    firsts = np.cumsum([0] + [probs.size for _, probs, _ in blocks])
    return np.concatenate([bounds[:-1] + first for (_, _, bounds), first in zip(blocks, firsts)]
                          + [firsts[-1:]])


def groups(sizes) -> list[slice]:
    """Consecutive slices of items of these sizes, each ``CHUNK_ELEMENTS`` at most, or one item."""
    ends = np.cumsum(sizes)
    cuts = [0]
    while cuts[-1] < ends.size:
        start = ends[cuts[-1]] - sizes[cuts[-1]]
        cuts.append(max(cuts[-1] + 1, int(ends.searchsorted(start + CHUNK_ELEMENTS, "right"))))
    return [slice(a, b) for a, b in zip(cuts, cuts[1:])]


def _places_in(symbols: np.ndarray, q: Pmf) -> tuple[np.ndarray, np.ndarray | None]:
    """Each symbol's place in q's sorted support, and which symbols q lacks (None for none).

    A symbol q lacks takes the place of q's first symbol above it.  When q
    sits on consecutive symbols, as a truth row and a current pmf do, a
    place is the symbol's offset, found without a search.
    """
    lo, m = int(q.symbols[0]), q.symbols.size
    if int(q.symbols[-1]) - lo == m - 1:
        places = symbols - lo
        if int(places.min()) >= 0 and int(places.max()) < m:
            return places, None
        lack = (places < 0) | (places >= m)
        return np.clip(places, 0, m, out=places), lack
    places = q.symbols.searchsorted(symbols)
    lack = q.symbols.take(places, mode="clip") != symbols
    return places, lack if lack.any() else None


def _tv_chunk(pieces: list[tuple[np.ndarray, np.ndarray, Pmf, int]], atoms: np.ndarray,
               sizes: np.ndarray) -> np.ndarray:
    """The TVs of a chunk's rows, given as pieces (symbols, probabilities, q, rows) of one q each.

    Row i holds ``atoms[i]`` atoms and its q ``sizes[i]``; its union with q
    holds those of its symbols q lacks besides.  Where no row has such a
    symbol, each piece's rows lie on q's support as one matrix, and q's
    probabilities are taken from its rows by broadcasting.  Temporaries are
    freed once read: a chunk's peak is part of a truth's.
    """
    places, lacks = zip(*[_places_in(symbols, q) for symbols, _, q, _ in pieces])
    at = _cat(places)
    del places
    if all(lack is None for lack in lacks):
        # every row lies on its q's support, so a piece's rows are a matrix
        edges = row_edges(sizes)
        at += np.repeat(edges[:-1], atoms)
        diff = np.zeros(int(edges[-1]))
        diff[at] = _cat([probs for _, probs, _, _ in pieces])
        first = 0
        for _, _, q, rows in pieces:
            rest = diff[first:first + rows * q.symbols.size].reshape(rows, -1)
            np.subtract(rest, q.probs, out=rest)
            first += rest.size
    else:
        lack = _cat([np.zeros(symbols.size, dtype=bool) if lack is None else lack
                     for lack, (symbols, _, _, _) in zip(lacks, pieces)])
        del lacks
        below = np.cumsum(lack)  # the chunk's lacking symbols up to each atom
        before = np.concatenate(([0], below[np.cumsum(atoms) - 1]))  # ... before each row
        edges = row_edges(sizes + np.diff(before))
        below -= lack
        at += below
        del below
        at += np.repeat(edges[:-1] - before[:-1], atoms)
        diff = np.zeros(int(edges[-1]))
        diff[at] = _cat([probs for _, probs, _, _ in pieces])
        free = np.ones(diff.size, dtype=bool)  # q's places
        free[at[lack]] = False
        diff[free] -= _cat([np.tile(q.probs, rows) for _, _, q, rows in pieces])
    return 0.5 * row_sums(np.abs(diff, out=diff), edges)


def block_tvs(blocks: Sequence[Block], qs: Sequence[Pmf]) -> np.ndarray:
    """``tv_distance(row, q)`` for the rows of each block against its q, back to back, bit for bit.

    Row i lies on its sorted union with its q, laid out without a sort: an
    atom's place is its place in q plus the row's symbols q lacks below it
    (``_places_in``), and q's atoms fill the other places.  Each place holds
    the row's probability less q's, whose absolute value is the one
    ``tv_distance`` sums there (|a - b| is |b - a|), and each row sums as
    its 1-D layout (``row_sums``).  The rows go a chunk at a time, each at
    most ``CHUNK_ELEMENTS`` atoms of rows and of their qs, or one row
    (``groups``); a chunk may hold rows of several blocks.
    """
    counts = [bounds.size - 1 for _, _, bounds in blocks]
    firsts = row_edges(counts).tolist()  # each block's first row among all rows
    owner = np.repeat(np.arange(len(blocks)), counts)
    atoms = np.diff(joined_bounds(blocks))
    sizes = np.array([q.symbols.size for q in qs])[owner]
    tvs = np.empty(atoms.size)
    for part in groups(atoms + sizes):
        pieces = []  # consecutive blocks against one q are one piece
        for k in range(int(owner[part.start]), int(owner[part.stop - 1]) + 1):
            symbols, probs, bounds = blocks[k]
            a, z = max(part.start, firsts[k]) - firsts[k], min(part.stop, firsts[k + 1]) - firsts[k]
            edge = slice(int(bounds[a]), int(bounds[z]))
            if not pieces or pieces[-1][2] is not qs[k]:
                pieces.append(([], [], qs[k], []))
            pieces[-1][0].append(symbols[edge])
            pieces[-1][1].append(probs[edge])
            pieces[-1][3].append(z - a)
        tvs[part] = _tv_chunk([(_cat(symbols), _cat(probs), q, sum(rows))
                                for symbols, probs, q, rows in pieces], atoms[part], sizes[part])
    return tvs


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


def block_phis(probs: np.ndarray, bounds: np.ndarray, size) -> np.ndarray:
    """The empirical complexity phi of windows laid out as a ``Block``, of ``size`` samples each.

    ``size`` is one size for all windows, or each window's.  A window's phi
    is the sum of sqrt(count / r) over sqrt(r), r its size:
    sqrt(half_norm(window) / r), computable from the samples alone, and an
    upper bound on the statistical error of the window's estimate.  Each is
    one sum over its own window's root probabilities (``row_sums``).
    """
    return row_sums(np.sqrt(probs), bounds) / np.sqrt(size)
