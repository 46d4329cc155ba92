"""Shared type aliases and small value objects.

The package passes numpy arrays between subsystems with strict shape
conventions.  This module names those conventions once:

``RawRecording``
    ``(n_samples, 6)`` float64 — one IMU recording; columns are
    ``ax, ay, az, gx, gy, gz`` in that order (the paper's axis order).

``SignalArray``
    ``(6, n)`` float64 — the output of preprocessing (Section IV),
    normalised and concatenated; ``n`` defaults to 60.

``GradientArray``
    ``(2, 6, n // 2)`` float64 — sign-split gradients (Section V-B);
    index 0 is the positive direction, index 1 the negative direction.

``Embedding``
    ``(d,)`` float64 — a MandiblePrint vector (d defaults to 512).
"""

from __future__ import annotations

import dataclasses
import enum
import math
from typing import TypeAlias

import numpy as np

RawRecording: TypeAlias = np.ndarray
SignalArray: TypeAlias = np.ndarray
GradientArray: TypeAlias = np.ndarray
Embedding: TypeAlias = np.ndarray

AXIS_NAMES: tuple[str, ...] = ("ax", "ay", "az", "gx", "gy", "gz")
NUM_AXES: int = 6

#: Valid ``VerificationResult.exit_stage`` provenance values.
EXIT_STAGES: frozenset[str] = frozenset({"full", "refused"})
ACCEL_AXES: tuple[int, int, int] = (0, 1, 2)
GYRO_AXES: tuple[int, int, int] = (3, 4, 5)


class Gender(enum.Enum):
    """Gender label used only by the fairness experiment (Fig. 10c)."""

    MALE = "male"
    FEMALE = "female"


class EarSide(enum.Enum):
    """Which ear the earphone is worn on (Section VII-B)."""

    RIGHT = "right"
    LEFT = "left"


class Activity(enum.Enum):
    """User activity while recording (Fig. 12, plus the scenario matrix).

    ``DRIVE`` extends the paper's walk/run set for the adversarial
    scenario matrix (DESIGN.md §4l): unlike gait, engine vibration sits
    *inside* the 20 Hz pass band, so it survives the high-pass that
    removes body motion.
    """

    STATIC = "static"
    WALK = "walk"
    RUN = "run"
    DRIVE = "drive"


class Mouthful(enum.Enum):
    """Food condition while recording (Fig. 12)."""

    NONE = "none"
    LOLLIPOP = "lollipop"
    WATER = "water"


class Tone(enum.Enum):
    """Voicing tone relative to the user's natural F0 (Fig. 14)."""

    NORMAL = "normal"
    HIGH = "high"
    LOW = "low"


@dataclasses.dataclass(frozen=True)
class VerificationResult:
    """Outcome of a single verification request.

    Attributes:
        accepted: whether the probe was accepted as the enrolled user.
        distance: cosine distance between probe and template (lower is
            more alike; see DESIGN.md on the paper's convention).
        threshold: the decision threshold that was applied.
        user_id: identifier of the enrolled template that was compared.
        degraded: the decision was made in a degraded operating mode —
            fewer than all six IMU axes were usable, or identification
            fell back to the slow per-user path (DESIGN.md §4g).  A
            degraded accept is still an accept, but callers with strict
            security postures may treat it as a step-up trigger.
        exit_stage: how the decision was produced.  ``"full"`` — the
            probe went through the whole pipeline and ``distance`` is
            its cosine distance; ``"refused"`` — the recording never
            produced a signal, so nothing was scored.
    """

    accepted: bool
    distance: float
    threshold: float
    user_id: str
    degraded: bool = False
    exit_stage: str = "full"

    def __post_init__(self) -> None:
        if not math.isfinite(self.distance):
            raise ValueError(f"non-finite distance: {self.distance}")
        if self.exit_stage not in EXIT_STAGES:
            raise ValueError(f"unknown exit_stage: {self.exit_stage!r}")


def ensure_raw_recording(arr: np.ndarray) -> np.ndarray:
    """Validate and return ``arr`` as a RawRecording.

    Raises:
        repro.errors.ShapeError: if ``arr`` is not ``(n, 6)`` numeric.
    """
    from repro.errors import ShapeError

    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != NUM_AXES:
        raise ShapeError(f"raw recording must be (n, 6), got {arr.shape}")
    return arr


def ensure_signal_array(arr: np.ndarray, n: int | None = None) -> np.ndarray:
    """Validate and return ``arr`` as a SignalArray ``(6, n)``."""
    from repro.errors import ShapeError

    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != NUM_AXES:
        raise ShapeError(f"signal array must be (6, n), got {arr.shape}")
    if n is not None and arr.shape[1] != n:
        raise ShapeError(f"signal array must be (6, {n}), got {arr.shape}")
    return arr


def ensure_gradient_array(arr: np.ndarray) -> np.ndarray:
    """Validate and return ``arr`` as a GradientArray ``(2, 6, m)``."""
    from repro.errors import ShapeError

    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[0] != 2 or arr.shape[1] != NUM_AXES:
        raise ShapeError(f"gradient array must be (2, 6, m), got {arr.shape}")
    return arr
