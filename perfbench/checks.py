"""Output checks for each CLI invocation; each returns a list of problems.

An empty list means the output is correct.  Checks read only the bytes the
CLI produced and the inputs the benchmark generated, never driftest itself.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

# Trial CSV header, as documented in the README.
CSV_HEADER = ("trial,scenario,T,delta,chosen_r,err_adaptive,err_oracle,"
              "r_oracle,err_full,err_last,q_star,r_star,prop3_held")


def check_estimate(output: bytes, samples: np.ndarray, tol: float = 1e-12) -> list[str]:
    """The estimate is the empirical pmf of a dyadic suffix; xi strictly falls."""
    try:
        obj = json.loads(output)
        r = obj["chosen_window"]
        atoms = obj["estimate"]["atoms"]
        xis = [c["xi"] for c in obj["accepted"]]
        symbols = np.array([a["symbol"] for a in atoms], dtype=np.int64)
        probs = np.array([a["prob"] for a in atoms], dtype=np.float64)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"estimate JSON unreadable: {exc!r}"]
    t = samples.size
    if not (isinstance(r, int) and 1 <= r <= t and r & (r - 1) == 0):
        return [f"chosen_window {r!r} is not a power of two <= {t}"]
    problems = []
    want_syms, want_counts = np.unique(samples[t - r:], return_counts=True)
    if not np.array_equal(symbols, want_syms):
        problems.append("estimate symbols differ from the last chosen_window samples")
    elif np.max(np.abs(probs - want_counts / r)) > tol:
        problems.append("estimate probabilities differ from empirical frequencies")
    if any(b >= a for a, b in zip(xis, xis[1:])):
        problems.append("accepted xi values do not strictly decrease")
    return problems


def check_simulate(output: bytes, trials: int, t: int, kind: str) -> list[str]:
    """README header; one row per trial in order; oracle no worse, r in [1, T]."""
    lines = output.decode("utf-8", errors="replace").splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return ["trial CSV header differs from the README"]
    rows = list(csv.DictReader(io.StringIO("\n".join(lines))))
    if len(rows) != trials:
        return [f"{len(rows)} trial rows, expected {trials}"]
    problems = []
    for i, row in enumerate(rows):
        try:
            ok = (int(row["trial"]) == i and row["scenario"] == kind
                  and int(row["T"]) == t
                  and float(row["err_oracle"]) <= float(row["err_adaptive"])
                  and 1 <= int(row["r_oracle"]) <= t)
        except (TypeError, ValueError):
            ok = False
        if not ok:
            problems.append(f"trial row {i} fails the row checks")
    return problems


def check_verify(output: bytes) -> list[str]:
    """A final line of 'verify: PASS' (the exit code is checked for every command)."""
    lines = output.decode("utf-8", errors="replace").splitlines()
    if not lines or lines[-1] != "verify: PASS":
        return ["final line is not 'verify: PASS'"]
    return []
