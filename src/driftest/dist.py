"""Sparse discrete distributions and the complexity functionals built on them.

Symbols are nonnegative integers.  Supports are finite and stored as sorted
arrays so every sum over a support runs in a fixed (sorted-symbol) order,
which keeps all derived quantities bit-reproducible from run to run.
A window of samples is a ``Pmf`` too: its probabilities are its counts
over its size (``windows.LadderBlock``), and its empirical complexity is
``block_phis``.

Total variation is half the L1 distance over the sorted union of two
supports.  One kernel (``_tvs``) takes every TV of a pmf here, each row a
segment of one base less its atoms, laid out so that it holds the values
the pair's sorted union holds, in the same order, and sums as the 1-D
array does (``row_sums``): each TV has ``tv_distance``'s bits.  The
layouts are the union, sorted (``tv_distance``); a support holding the
rows' symbols (``block_tvs``: windows against their averages); and a run
of consecutive symbols (``run_tv``, ``block_run_tvs``, ``rows_tv``: a
truth's current pmf).  The adaptive walk compares windows of counts,
whose TVs are exact integer sums, without the kernel.
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
# rows this wide on average are worked on one at a time: a few vector
# operations per row then cost less than making temporaries of a chunk's size
WIDE_ROW = 256


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
    distinct = set(lengths.tolist())
    if len(distinct) == 1:  # the rows already lie as one matrix
        return values[bounds[0]:bounds[-1]].reshape(lengths.size, distinct.pop()).sum(axis=1)
    sums = np.empty(lengths.size)
    for n in distinct:
        rows = (lengths == n).nonzero()[0]
        first, last = int(rows[0]), int(rows[-1])
        if last - first == rows.size - 1:
            sums[first:last + 1] = values[bounds[first]:bounds[last + 1]].reshape(-1, n).sum(axis=1)
        else:
            sums[rows] = values[bounds[rows, None] + np.arange(n)].sum(axis=1)
    return sums


def _tvs(base: np.ndarray, starts: np.ndarray, edges: np.ndarray, flat: np.ndarray,
         probs: np.ndarray, bounds: np.ndarray, keep: np.ndarray | None = None) -> np.ndarray:
    """0.5 times each row's sum of |its segment of base less its atoms|: the rows' TVs.

    Row i lies at ``edges[i]:edges[i + 1]`` of one flat layout, holding
    the segment of ``base`` from ``starts[i]``; its atoms are
    ``bounds[i]:bounds[i + 1]`` of ``probs``, at their ascending places
    ``flat``.  A chunk of rows at a time (at most ``CHUNK_ELEMENTS`` places,
    or one wider row), each place comes to hold base less the row's atom
    there, or base (x - 0.0 is x).  Where the chunk's rows hold one
    segment, as a lone row does, one scatter writes the atoms into a zero
    matrix taken from the segment by broadcasting; otherwise an index of
    every place gathers the rows' segments.  The broadcast serves the
    one-row calls of ``tv_distance`` and ``run_tv`` (with it, the 60,000
    of the metric campaigns take 12 µs each rather than 20) and the rows of
    ``block_tvs`` that share an iid truth's average.  With ``keep``, a
    mask aligned with ``base``, each row keeps only the places its
    segment's mask keeps and its own.  No row is padded.
    """
    n, total = edges.size - 1, int(edges[-1])
    sums = np.empty(n)
    lo = 0
    while lo < n:
        first = int(edges[lo])
        hi = n if total - first <= CHUNK_ELEMENTS else max(
            lo + 1, int(edges.searchsorted(first + CHUNK_ELEMENTS, "right")) - 1)
        start, shared = int(starts[lo]), hi - lo == 1
        if not shared:
            widths = edges[lo + 1:hi + 1] - edges[lo:hi]
            shared = bool(((starts[lo + 1:hi] == start) & (widths[1:] == widths[0])).all())
        lay = edges[lo:hi + 1] - first if first else edges[:hi + 1]  # the chunk's rows' edges
        a, b = int(bounds[lo]), int(bounds[hi])
        at = flat[a:b] - first if first else flat[a:b]
        if shared:
            seg = slice(start, start + int(lay[1]))
            diff = np.zeros(int(lay[-1]))
            diff[at] = probs[a:b]
            rows = diff.reshape(hi - lo, -1)  # a matrix of the rows, one width
            np.subtract(base[seg], rows, out=rows)
        else:
            # each place's index in base: a row's first is its start, and
            # the rest follow one by one
            seg = np.ones(int(lay[-1]), dtype=np.int64)
            seg[lay[:-1]] = starts[lo:hi]
            seg[lay[1:-1]] -= starts[lo:hi - 1] + (lay[1:-1] - lay[:-2] - 1)
            np.cumsum(seg, out=seg)
            diff = base[seg]
            diff[at] -= probs[a:b]
            rows = None
        np.abs(diff, out=diff)
        if keep is not None:
            kept = np.zeros(diff.shape, dtype=bool)
            kept[at] = True
            (kept if rows is None else kept.reshape(rows.shape))[...] |= keep[seg]
            sums[lo:hi] = row_sums(diff[kept], np.concatenate(([0], np.cumsum(kept)[lay[1:] - 1])))
        elif rows is not None:
            sums[lo:hi] = rows.sum(axis=1)
        else:
            sums[lo:hi] = row_sums(diff, lay)
        lo = hi
    return 0.5 * sums


def row_edges(widths) -> np.ndarray:
    """Rows' edges in a flat layout of rows of these widths laid back to back."""
    edges = np.zeros(len(widths) + 1, dtype=np.int64)
    np.cumsum(widths, out=edges[1:])
    return edges


def _one_row(base: np.ndarray, places: np.ndarray, probs: np.ndarray,
             keep: np.ndarray | None = None) -> float:
    """The TV of one row on the whole of ``base`` (``_tvs``)."""
    return float(_tvs(base, np.zeros(1, dtype=np.int64), np.array([0, base.size]), places, probs,
                      np.array([0, probs.size]), keep)[0])


def tv_distance(p: Pmf, q: Pmf) -> float:
    """Total variation distance: half the L1 distance over the union support.

    The union layout: p's probabilities on the sorted union, less q's.
    """
    union = sorted_union(p.symbols, q.symbols)
    base = np.zeros(union.size)
    base[union.searchsorted(p.symbols)] = p.probs
    return _one_row(base, union.searchsorted(q.symbols), q.probs)


# --- the subset layout: each row's symbols among its layout's -----------------


def positions_within(symbols: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Where each of ``symbols`` sits in the sorted ``support``; raises if it lacks one.

    A symbol past the support's last is placed at its end, where ``take``
    reads the last symbol back, so one comparison finds it too.
    """
    pos = support.searchsorted(symbols)
    if (support.take(pos, mode="clip") != symbols).any():
        raise ValueError("a support is not within the one it is compared with")
    return pos


# a block of rows laid back to back: its atoms' symbols and probabilities, row
# i's at bounds[i]:bounds[i + 1], from bounds[0] = 0 to the arrays' end
Block = tuple[np.ndarray, np.ndarray, np.ndarray]


def _equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two arrays hold the same values."""
    return a is b or (a.size == b.size and bool((a == b).all()))


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


def joined(blocks: Sequence[Block]) -> Block:
    """The rows of several blocks as one block, laid back to back."""
    return (_cat([symbols for symbols, _, _ in blocks]), _cat([probs for _, probs, _ in blocks]),
            joined_bounds(blocks))


def groups(sizes) -> list[slice]:
    """Consecutive slices of items of these sizes, each ``CHUNK_ELEMENTS`` at most, or one item."""
    ends = np.cumsum(sizes)
    cuts = [0]
    while cuts[-1] < ends.size:
        start = ends[cuts[-1]] - sizes[cuts[-1]]
        cuts.append(max(cuts[-1] + 1, int(ends.searchsorted(start + CHUNK_ELEMENTS, "right"))))
    return [slice(a, b) for a, b in zip(cuts, cuts[1:])]


def block_tvs(blocks: Sequence[Block], qs: Sequence[Pmf]) -> np.ndarray:
    """``tv_distance(row, q)`` for the rows of each block against its q, back to back.

    Block k's symbols are among ``qs[k]``'s, so each row's union with q is
    q's support and none is sorted: the subset layout, q's probabilities
    less the row's at their places.  Every block takes one kernel call
    together, block k's rows on segment k of one base; a pmf equal to the
    one before it shares its segment, as an iid truth's window averages
    all do.  A symbol q lacks raises.
    """
    segment = np.cumsum([k == 0 or not (_equal(q.symbols, qs[k - 1].symbols)
                                        and _equal(q.probs, qs[k - 1].probs))
                         for k, q in enumerate(qs)]) - 1
    distinct = [q for k, q in enumerate(qs) if k == 0 or segment[k] > segment[k - 1]]
    starts = row_edges([q.symbols.size for q in distinct])[segment]
    rows = [bounds.size - 1 for _, _, bounds in blocks]
    edges, bounds = row_edges(np.repeat([q.symbols.size for q in qs], rows)), joined_bounds(blocks)
    flat = _cat([positions_within(symbols, q.symbols) for (symbols, _, _), q in zip(blocks, qs)])
    flat += edges[:-1].repeat(bounds[1:] - bounds[:-1])
    return _tvs(_cat([q.probs for q in distinct]), starts.repeat(rows), edges, flat,
                _cat([probs for _, probs, _ in blocks]), bounds)


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
    return _one_row(base, places, q.probs)


def block_run_tvs(run: Pmf, block: Block) -> np.ndarray:
    """``run_tv(run, row)`` for every row of a block, bit for bit, each on its own run layout.

    Row i's run layout is its symbols below lo, then lo .. hi-1, then its
    symbols from hi on (``_run_layout``).  With a_i of its symbols below
    lo, that is the segment of one base (zeros, the run's probabilities,
    zeros) that starts a_i places before the run, so every row of every
    window size takes one kernel call and no layout wider than a row's
    own is made.
    """
    symbols, probs, bounds = block
    lo, width = _run_range(run)
    counts = bounds[1:] - bounds[:-1]
    below, inside = (np.diff(np.concatenate(([0], np.cumsum(symbols < edge)))[bounds])
                     for edge in (lo, lo + width))
    inside -= below
    pad = int(below.max())
    base = np.zeros(pad + width + int((counts - below - inside).max()))
    base[pad:pad + width] = run.probs
    edges = row_edges(counts - inside + width)
    # an atom's place in its row's layout is its index i in the row, plus
    # the run's symbols below it, less the row's own among them:
    # i + clip(s - lo, 0, width) - clip(i - below, 0, inside)
    index = np.arange(symbols.size)
    index -= bounds[:-1].repeat(counts)
    flat = np.clip(symbols - lo, 0, width)
    flat += index
    index -= below.repeat(counts)
    flat -= np.clip(index, 0, inside.repeat(counts), out=index)
    flat += edges[:-1].repeat(counts)
    return _tvs(base, pad - below, edges, flat, probs, bounds)


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
    bounds = row_edges(widths)
    edges = np.arange(0, (widths.size + 1) * base.size, base.size)
    flat = np.arange(bounds[-1]) + np.repeat(edges[:-1] + d - first - bounds[:-1], widths)
    # q's atoms are positive; rows within q's symbols all sum q's whole layout
    return _tvs(base, np.zeros(widths.size, dtype=np.int64), edges, flat, probs, bounds,
                keep=base > 0 if base.size > m else None)


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
