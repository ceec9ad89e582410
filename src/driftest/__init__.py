"""driftest: adaptive estimation of the current distribution of a drifting
discrete stream, one sample per time step.

The estimator picks how many recent samples to trust by comparing dyadic
suffix windows under data-dependent statistical-error bounds, with no
prior knowledge of the drift, the support, or its size.
"""

from .adaptive import adaptive_estimate, fixed_window_estimate
from .dist import Pmf, tv_distance
from .harness import run_trials, write_trials_csv

__version__ = "0.1.0"

__all__ = [
    "Pmf", "adaptive_estimate", "fixed_window_estimate", "run_trials",
    "tv_distance", "write_trials_csv",
]
