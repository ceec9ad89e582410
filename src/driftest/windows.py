"""Dyadic suffix windows of a sample stream and their statistical-error bounds.

A stream of ``T`` samples (oldest first) induces one empirical window per
dyadic size 2^j, j = 0 .. floor(log2 T), each over the most recent 2^j
samples.  For every window we can compute a data-dependent high-probability
upper bound on its statistical error; the bound carries a union-bound
weight over all dyadic sizes so that it holds for all of them at once.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .dist import EmpiricalWindow, as_stream, phi_empirical

# Union-bound weight constant: 4 * pi^2 / 3.  With per-size failure shares
# delta * (6/pi^2) / (j+1)^2 this makes the simultaneous bound hold with
# total failure probability delta, since (j+1)^2 <= 2 (j^2 + 1).
UNION_BOUND_CONSTANT = 4.0 * math.pi**2 / 3.0


def dyadic_depth(t: int) -> int:
    """Largest j with 2^j <= t."""
    if t < 1:
        raise ValueError("stream length must be >= 1")
    return int(t).bit_length() - 1


def build_ladder(stream) -> tuple[EmpiricalWindow, ...]:
    """The dyadic suffix windows of a stream, each counted from its own samples.

    Window j holds the most recent 2^j samples, j = 0 .. floor(log2 T).
    Each window sorts its own suffix, about 2T samples in all:
    O(T log T).  Samples older than the largest dyadic window are never
    touched.
    """
    arr = as_stream(stream)
    t = arr.size
    return tuple(EmpiricalWindow(arr[t - 2**j:]) for j in range(dyadic_depth(t) + 1))


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


def ladder_phis(ladder: Sequence[EmpiricalWindow]) -> list[float]:
    """Empirical complexity of every window, computed once and passed to its readers."""
    return [phi_empirical(w) for w in ladder]


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
    """The samples of a stream file, each token converted by int() in one numpy call.

    The tokens are the stripped sample lines; ``str.split`` gives them at C
    speed where every line is one token and no '#' occurs.  A refused stream
    is read again line by line only to name its error.
    """
    tokens = text.split() if "#" not in text else None
    lines = text.splitlines()
    if tokens != lines:
        del tokens  # before the line list is built, or the peak grows
        tokens = [line for line in map(str.strip, lines) if line and not line.startswith("#")]
    del lines
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
