"""Dyadic suffix windows of a sample stream and their statistical-error bounds.

A stream of ``T`` samples (oldest first) induces one empirical window per
dyadic size 2^j, j = 0 .. floor(log2 T), each over the most recent 2^j
samples.  A window is a ``Pmf``: its empirical distribution, the only thing
the estimator reads from it.  For every window we can compute a
data-dependent high-probability upper bound on its statistical error, its
phi (``dist.block_phis``) plus a radius; the bound carries a union-bound
weight over all dyadic sizes so that it holds for all of them at once.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .dist import Block, Pmf, as_stream, block_phis, sorted_runs

# Union-bound weight constant: 4 * pi^2 / 3.  With per-size failure shares
# delta * (6/pi^2) / (j+1)^2 this makes the simultaneous bound hold with
# total failure probability delta, since (j+1)^2 <= 2 (j^2 + 1).
UNION_BOUND_CONSTANT = 4.0 * math.pi**2 / 3.0


def dyadic_depth(t: int) -> int:
    """Largest j with 2^j <= t."""
    if t < 1:
        raise ValueError("stream length must be >= 1")
    return int(t).bit_length() - 1


class LadderBlock:
    """The dyadic suffix windows of a block of equal-length streams, one window size at a time.

    ``streams`` is a 2-D int64 array of nonnegative samples, one stream per
    row, oldest first.  For each window index j in ``js`` (by default every
    one, 0 .. floor(log2 T)), ``runs(c)`` (c the position of j in ``js``)
    sorts the rows' most recent 2^j samples with one ``np.sort(axis=1)``
    and counts them with one run-length pass (``sorted_runs``), on first
    read: the windows of that size lie back to back, trial after trial,
    their symbols and counts row i's at ``bounds[i]:bounds[i + 1]``.  The
    counts are kept in 32 bits and the probabilities computed when read
    (``probs(c)``), so a block holds 12 bytes per atom, and a reader that
    takes the sizes largest first meets each size's temporaries with only
    the larger windows built.  ``window(i, c)`` is row i's window as a
    ``Pmf``, equal to the one counted from its own samples: the same
    symbols and probabilities, bit for bit.  Sorting costs
    O(m T log T) for m streams, and samples older than the largest window
    are never touched.
    """

    def __init__(self, streams: np.ndarray, js: Sequence[int] | None = None):
        self.rows, t = streams.shape
        self.js = list(range(dyadic_depth(t) + 1)) if js is None else list(js)
        self._streams = streams
        self._runs: list[tuple[np.ndarray, np.ndarray, np.ndarray] | None] = [None] * len(self.js)

    def runs(self, c: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The symbols, counts and row bounds of the windows of size 2^js[c]."""
        if self._runs[c] is None:
            t = self._streams.shape[1]
            symbols, counts, bounds = sorted_runs(
                np.sort(self._streams[:, t - 2**self.js[c]:], axis=1))
            # a stream holds at most 2 * 10^7 samples, so a count fits 32 bits
            counts = counts.astype(np.int32)
            symbols.setflags(write=False)
            counts.setflags(write=False)
            self._runs[c] = (symbols, counts, bounds)
            if all(self._runs):
                self._streams = None  # every size is counted
        return self._runs[c]

    def probs(self, c: int) -> np.ndarray:
        """The probabilities of the windows of size 2^js[c], laid out as their counts."""
        return self.runs(c)[1] / float(2**self.js[c])

    def block(self, c: int) -> Block:
        """The windows of size 2^js[c] as a ``dist.Block``: symbols, probabilities and bounds."""
        symbols, _, bounds = self.runs(c)
        return symbols, self.probs(c), bounds

    def window(self, i: int, c: int) -> Pmf:
        """Row i's window of size 2^js[c]: a view of its symbols, and its counts over its size.

        Its runs are sorted, distinct and positive, and its samples were
        checked as a stream's, so its atoms are not checked again.
        """
        symbols, counts, bounds = self.runs(c)
        a, b = bounds[i], bounds[i + 1]
        probs = counts[a:b] / float(2**self.js[c])
        probs.setflags(write=False)
        return Pmf._unchecked(symbols[a:b], probs)

    def ladder(self, i: int) -> tuple[Pmf, ...]:
        """Row i's windows, in the order of ``js``."""
        return tuple(self.window(i, c) for c in range(len(self.js)))


def build_ladder(stream) -> tuple[Pmf, ...]:
    """The dyadic suffix windows of a stream, each counted from its own samples.

    Window j holds the most recent 2^j samples, j = 0 .. floor(log2 T): the
    one-row ``LadderBlock``.  Each window sorts its own suffix, about 2T
    samples in all: O(T log T).  Samples older than the largest dyadic
    window are never touched.
    """
    return LadderBlock(as_stream(stream)[None]).ladder(0)


def check_delta(delta: float) -> None:
    """Reject a confidence parameter outside (0, 1)."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie strictly between 0 and 1")


def union_log_weight(r, delta: float):
    """log(C * (log2(r)^2 + 1) / delta), the union-bound log factor at size r.

    Vectorized over ``r``: a scalar size gives a float, an array of sizes
    an array.
    """
    check_delta(delta)
    r = np.asarray(r, dtype=np.float64)
    if r.min() < 1:
        raise ValueError("window size must be >= 1")
    lg = np.log2(r)
    weight = np.log(UNION_BOUND_CONSTANT * (lg * lg + 1.0) / delta)
    return float(weight) if weight.ndim == 0 else weight


def concentration_radius(j, delta: float):
    """Window j's deviation term 3 sqrt(log-weight / 2^j), vectorized over ``j``."""
    j = np.asarray(j)
    if j.min() < 0:
        raise ValueError("window index must be >= 0")
    r = 2.0**j
    radius = 3.0 * np.sqrt(union_log_weight(r, delta) / r)
    return float(radius) if radius.ndim == 0 else radius


def ladder_phis(ladder: Sequence[Pmf]) -> list[float]:
    """Each window's phi, window j holding 2^j samples: ``block_phis`` of a one-row block."""
    return [float(block_phis(w.probs, np.array([0, w.probs.size]), 2**j)[0])
            for j, w in enumerate(ladder)]


def ladder_xis(phis: Sequence[float], delta: float) -> list[float]:
    """Statistical-error bound of every window: its phi plus the radius at 2^j.

    ``phis`` are the windows' ``ladder_phis``.  Not clamped to 1: small
    windows legitimately yield vacuous values, and downstream comparisons
    rely on the exact arithmetic.
    """
    radii = concentration_radius(np.arange(len(phis)), delta)
    return [phi + radius for phi, radius in zip(phis, radii.tolist())]


# --- sample stream text format -------------------------------------------
#
# One nonnegative integer per line, oldest first, read by int() from the
# stripped line; blank lines and lines starting with '#' are ignored.


def parse_stream_text(text: str) -> np.ndarray:
    """The samples of a stream file, converted in one numpy call.

    A file of ASCII lines of at most 18 digits, blank lines among them,
    takes the byte route; any other file (a '#' line, padding, a sign, a
    19-digit line) is read from its stripped lines.
    """
    samples = _parse_digit_lines(text)
    return samples if samples is not None else _parse_stripped_lines(text)


def _parse_digit_lines(text: str) -> np.ndarray | None:
    """A file holding only the bytes 0-9, '\n' and '\r', read by numpy's C text reader.

    None unless the file has at least one digit run and none longer than 18
    bytes: a longer run may pass int64, where np.fromstring saturates
    silently, and a file with no run is an error the line route names.  The
    checks build no per-line array, and ``count`` is the exact run count,
    since numpy reads past the last value when asked for more.
    """
    if not text.isascii():
        return None
    data = text.encode("ascii")
    if not data or data.translate(None, b"0123456789\n\r"):
        return None
    end = np.frombuffer(data, dtype=np.uint8) < ord("0")  # '\n' or '\r', the only non-digits
    # a run starts at the first byte or after a line end
    runs = int(not end[0]) + np.count_nonzero(end[:-1] > end[1:])
    if runs == 0:
        return None
    # a run longer than 18 bytes exists iff some 19-byte window holds no line end
    for width in (1, 2, 4, 8, 3):  # windows of 2, 4, 8, 16 and 19 bytes
        end = end[:-width] | end[width:]
    if not end.all():
        return None
    del end
    return np.fromstring(data, dtype=np.int64, sep="\n", count=runs)


def _parse_stripped_lines(text: str) -> np.ndarray:
    """The samples of the stripped lines that are neither blank nor '#' comments.

    Each token is converted by int() in one numpy call.  A refused stream
    is read again line by line only to name its error.
    """
    tokens = [line for line in map(str.strip, text.splitlines())
              if line and not line.startswith("#")]
    try:
        samples = np.array(tokens, dtype=np.int64)
        if samples.size and samples.min() >= 0:
            return samples
    except (ValueError, OverflowError):
        pass
    raise _stream_error(text)


def _stream_error(text: str) -> ValueError:
    """The error a line-by-line reading of a refused stream meets first.

    A non-integer or negative line, in line order, comes before an empty
    stream, and that before the first sample past int64.  A refused stream
    with none of these lines has no sample line at all.
    """
    past_int64 = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            value = int(line)
        except ValueError:
            return ValueError(f"line {lineno}: {line!r} is not an integer")
        if value < 0:
            return ValueError(f"line {lineno}: negative sample {value}")
        if past_int64 is None and value > np.iinfo(np.int64).max:
            past_int64 = ValueError(f"line {lineno}: sample {value} exceeds the int64 range")
    return past_int64 or ValueError("empty sample stream")


def load_stream(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_stream_text(fh.read())
