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

from .dist import EmpiricalWindow, int64_values, phi_empirical, sorted_union

# Union-bound weight constant: 4 * pi^2 / 3.  With per-size failure shares
# delta * (6/pi^2) / (j+1)^2 this makes the simultaneous bound hold with
# total failure probability delta, since (j+1)^2 <= 2 (j^2 + 1).
UNION_BOUND_CONSTANT = 4.0 * math.pi**2 / 3.0


def dyadic_depth(t: int) -> int:
    """Largest j with 2^j <= t."""
    if t < 1:
        raise ValueError("stream length must be >= 1")
    return int(t).bit_length() - 1


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


def build_ladder(stream) -> tuple[EmpiricalWindow, ...]:
    """Count the dyadic suffix windows of a stream in one backward pass.

    Scans the most recent 2^floor(log2 T) samples from newest to oldest in
    doubling blocks, merging sorted (symbol, count) runs and snapshotting
    each time the scanned length reaches a power of two.  Window j holds
    the most recent 2^j samples.  Samples older than the largest dyadic
    window are never touched.
    """
    arr = as_stream(stream)
    t = arr.size
    depth = dyadic_depth(t)

    syms, counts = np.unique(arr[t - 1:], return_counts=True)
    windows = [EmpiricalWindow(syms, counts, 1)]
    for j in range(1, depth + 1):
        lo, hi = t - 2**j, t - 2 ** (j - 1)
        block_syms, block_counts = np.unique(arr[lo:hi], return_counts=True)
        union = sorted_union(syms, block_syms)
        merged = np.zeros(union.size, dtype=np.int64)
        merged[np.searchsorted(union, syms)] += counts
        merged[np.searchsorted(union, block_syms)] += block_counts
        syms, counts = union, merged
        windows.append(EmpiricalWindow(syms, counts, 2**j))
    return tuple(windows)


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


def ladder_xis(ladder: Sequence[EmpiricalWindow], delta: float) -> list[float]:
    """Statistical-error bound of every window: its phi plus the radius at 2^j.

    Not clamped to 1: small windows legitimately yield vacuous values, and
    downstream comparisons rely on the exact arithmetic.
    """
    radii = concentration_radius(np.arange(len(ladder)), delta)
    return [phi_empirical(w) + radius for w, radius in zip(ladder, radii.tolist())]


# --- sample stream text format -------------------------------------------
#
# One nonnegative decimal integer per line, oldest first; blank lines and
# lines starting with '#' are ignored.


def parse_stream_text(text: str) -> np.ndarray:
    samples = _parse_well_formed(text)
    return samples if samples is not None else _parse_lines(text)


def _parse_well_formed(text: str) -> np.ndarray | None:
    """The stream in one numpy call, or None for the line loop to parse.

    Runs only where every line is one unpadded token: no blank, padded or
    multi-token line, and a '#' line fails to convert.  numpy converts each
    str by int(), so the array is the line loop's.  Any failure, a negative
    sample included, returns None: errors are reported by the line loop.
    """
    tokens = text.split()
    if not tokens or tokens != text.splitlines():
        return None
    try:
        samples = np.array(tokens, dtype=np.int64)
    except (ValueError, OverflowError):
        return None
    return samples if samples.min() >= 0 else None


def _parse_lines(text: str) -> np.ndarray:
    samples = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            value = int(line)
        except ValueError:
            raise ValueError(f"line {lineno}: {line!r} is not an integer") from None
        if value < 0:
            raise ValueError(f"line {lineno}: negative sample {value}")
        samples.append(value)
    if not samples:
        raise ValueError("empty sample stream")
    try:
        return np.asarray(samples, dtype=np.int64)
    except OverflowError:
        # searched only on failure: a check per line slows parsing by about 6 %
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if line and not line.startswith("#") and int(line) > np.iinfo(np.int64).max:
                raise ValueError(
                    f"line {lineno}: sample {int(line)} exceeds the int64 range") from None
        raise


def load_stream(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_stream_text(fh.read())
