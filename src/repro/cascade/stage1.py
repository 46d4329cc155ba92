"""Stage-1 gate: cheap per-probe confidence scores from signals.

The scorer produces *distance-like* scores (lower = more likely the
enrolled user) from preprocessed ``(K, 6, n)`` signal stacks, fitted
per user at enrollment.  It uses the Section V-A hand features: each
probe's 36-d statistical feature sample (SFS) is compared to the
enrollment mean by a robust per-dimension z-distance,
``mean(|sfs - mu| / s)`` with the scale floored so low-variance
dimensions cannot explode the score.  Genuine probes land near 1 (one
enrollment standard deviation per dimension on average); impostors
drift upward.  The paper shows SFSes cannot carry 34-way
identification — but the cascade only needs them to flag *clear-cut*
binary cases, and the calibrated band keeps everything ambiguous on
the full pipeline.

Scoring is wrapped in the ``cascade.stage1`` fault point and the
``cascade_stage1`` latency span; an injected error propagates as a
:class:`~repro.errors.TransientError` that callers translate into
fallback-to-full-pipeline semantics (DESIGN.md §4k).
"""

from __future__ import annotations

import dataclasses
import threading

import numpy as np

from repro.errors import VerificationError
from repro.faults import runtime as faults
from repro.cascade.features import statistical_features_batch
from repro.obs import runtime as obs

#: Relative + absolute floor applied to the per-dimension SFS scale so
#: a near-constant enrollment statistic cannot blow the z-distance up.
_SCALE_FLOOR_REL = 0.05
_SCALE_FLOOR_ABS = 1e-8


@dataclasses.dataclass(frozen=True)
class Stage1Reference:
    """Per-user fitted stage-1 state.

    Attributes:
        center: enrollment mean 36-d SFS.
        scale: per-dimension robust scale.
    """

    center: np.ndarray
    scale: np.ndarray


def _fit_features(signal_arrays: np.ndarray) -> Stage1Reference:
    sfs = statistical_features_batch(signal_arrays)
    center = sfs.mean(axis=0)
    spread = sfs.std(axis=0)
    scale = np.maximum(
        spread, _SCALE_FLOOR_REL * np.abs(center) + _SCALE_FLOOR_ABS
    )
    return Stage1Reference(center=center, scale=scale)


def _score_features(
    reference: Stage1Reference, signal_arrays: np.ndarray
) -> np.ndarray:
    sfs = statistical_features_batch(signal_arrays)
    z = np.abs(sfs - reference.center[None, :]) / reference.scale[None, :]
    return z.mean(axis=1)


class Stage1Gate:
    """Facade owning the per-user stage-1 references and the scorer.

    Thread-safety mirrors the facade it serves: :meth:`fit_user` /
    :meth:`drop_user` run under the device write lock, :meth:`scores`
    under the read lock, so the internal dict lock only guards the
    reference map itself.
    """

    def __init__(self) -> None:
        self._references: dict[str, Stage1Reference] = {}
        self._lock = threading.Lock()

    # -- reference lifecycle -------------------------------------------

    def fit_user(self, user_id: str, signal_arrays: np.ndarray) -> None:
        """Fit the user's reference from enrollment signal arrays."""
        signal_arrays = np.asarray(signal_arrays, dtype=np.float64)
        if signal_arrays.ndim != 3 or signal_arrays.shape[0] == 0:
            raise VerificationError(
                "stage-1 fitting needs a non-empty (K, 6, n) signal stack"
            )
        reference = _fit_features(signal_arrays)
        with self._lock:
            self._references[user_id] = reference

    def drop_user(self, user_id: str) -> None:
        with self._lock:
            self._references.pop(user_id, None)

    def has_user(self, user_id: str) -> bool:
        with self._lock:
            return user_id in self._references

    # -- scoring --------------------------------------------------------

    def scores(self, user_id: str, signal_arrays: np.ndarray) -> np.ndarray:
        """Stage-1 scores ``(K,)`` for a stack of preprocessed signals.

        Raises:
            repro.errors.VerificationError: no reference is fitted for
                ``user_id``.
            repro.errors.TransientError: an injected ``cascade.stage1``
                fault fired; callers fall back to the full pipeline.
        """
        with self._lock:
            reference = self._references.get(user_id)
        if reference is None:
            raise VerificationError(
                f"no stage-1 reference fitted for user {user_id!r}"
            )
        faults.maybe_delay("cascade.stage1")
        faults.maybe_fail("cascade.stage1")
        with obs.span("cascade_stage1"):
            return _score_features(
                reference, np.asarray(signal_arrays, dtype=np.float64)
            )
