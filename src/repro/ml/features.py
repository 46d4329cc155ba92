"""The 36 statistical features of Section V-A.

For each of the six axes of a signal array the paper computes six
statistics -- mean, median, variance, standard deviation, upper
quartile, lower quartile -- yielding a 36-dimensional statistical
feature sample (SFS).  The paper shows SFSes are *not* person-
distinguishable (best classical accuracy < 65 %), which motivates the
deep extractor; our Fig. 7 bench reproduces that failure.
"""

from __future__ import annotations

import numpy as np

from repro.types import NUM_AXES

FEATURE_NAMES: tuple[str, ...] = (
    "mean",
    "median",
    "variance",
    "std",
    "upper_quartile",
    "lower_quartile",
)


def statistical_features_batch(signal_arrays: np.ndarray) -> np.ndarray:
    """SFS matrix ``(B, 36)`` for a batch of ``(B, 6, n)`` signal arrays.

    Vectorised over the whole batch (each statistic reduces along the
    sample axis once) and laid out axis-major: columns ``6 * a .. 6 * a + 5``
    are axis ``a``'s statistics in :data:`FEATURE_NAMES` order.  The
    tests pin each row bit for bit against a per-axis loop.
    """
    signal_arrays = np.asarray(signal_arrays, dtype=np.float64)
    if signal_arrays.ndim != 3:
        raise ValueError("expected (B, 6, n)")
    if signal_arrays.shape[1] != NUM_AXES:
        raise ValueError(f"expected (B, 6, n), got {signal_arrays.shape}")
    stats = np.stack(
        [
            signal_arrays.mean(axis=-1),
            np.median(signal_arrays, axis=-1),
            signal_arrays.var(axis=-1),
            signal_arrays.std(axis=-1),
            np.percentile(signal_arrays, 75, axis=-1),
            np.percentile(signal_arrays, 25, axis=-1),
        ],
        axis=-1,
    )
    return stats.reshape(signal_arrays.shape[0], NUM_AXES * len(FEATURE_NAMES))
