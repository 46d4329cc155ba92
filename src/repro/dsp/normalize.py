"""Normalisation helpers (Section IV, Eq. 7).

The paper min-max-normalises each signal segment so that axes
oscillating around large values (e.g. the gravity-loaded accelerometer
axis) do not conceal the contribution of quieter axes.
"""

from __future__ import annotations

import numpy as np


def min_max_normalize(segment: np.ndarray, axis: int = -1) -> np.ndarray:
    """Map values to ``[0, 1]`` along ``axis`` (the paper's Eq. 7).

    A constant segment (max == min) maps to all zeros rather than
    dividing by zero; a constant axis carries no vibration information,
    so zero is the faithful representation.
    """
    segment = np.asarray(segment, dtype=np.float64)
    lo = segment.min(axis=axis, keepdims=True)
    hi = segment.max(axis=axis, keepdims=True)
    span = hi - lo
    safe = np.where(span == 0.0, 1.0, span)
    out = (segment - lo) / safe
    return np.where(span == 0.0, 0.0, out)
