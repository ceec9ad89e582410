"""Span arithmetic for the traced run: self time and per-name totals.

A span is ``(name, start, end, parent)`` where ``parent`` is the index of
the enclosing span in the same list, or -1 for a root.  A span's self time
is its duration minus the part of its interval that its direct children
cover; overlapping children are counted once.
"""

from __future__ import annotations


def self_times(spans) -> list[float]:
    """Self time of every span, in list order."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: number of calls and summed self time in seconds."""
    out: dict[str, dict[str, float]] = {}
    for (name, *_), self_s in zip(spans, self_times(spans)):
        entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += self_s
    return out
