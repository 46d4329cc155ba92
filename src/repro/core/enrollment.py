"""Registration phase (Fig. 3, left).

The user voices 'EMM' a handful of times; each recording runs through
preprocessing and the extractor; the mean embedding becomes the
MandiblePrint template, which is projected by the user's Gaussian
matrix and sealed in the enclave.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.engine import InferenceEngine
from repro.errors import EnrollmentError
from repro.security.cancelable import CancelableTransform
from repro.types import RawRecording


@dataclasses.dataclass(frozen=True)
class EnrollmentResult:
    """What registration produced.

    Attributes:
        user_id: the enrolled identity.
        cancelable_template: the projected template that was sealed.
        transform: the Gaussian transform in force for this user.
        used_recordings: how many recordings survived preprocessing.
    """

    user_id: str
    cancelable_template: np.ndarray
    transform: CancelableTransform
    used_recordings: int


def build_template(
    engine: InferenceEngine, recordings: list[RawRecording]
) -> tuple[np.ndarray, int]:
    """Extract and average embeddings from enrollment recordings.

    The recordings run through the batched
    :class:`repro.core.engine.InferenceEngine` in one pass; recordings
    without a detectable vibration are skipped (the engine records them
    as per-item failures), and at least one must survive.  The engine
    needs its preprocessor and front end.

    Returns:
        ``(template, used_count)`` where template is ``(embedding_dim,)``.

    Raises:
        repro.errors.EnrollmentError: if no recording was usable.
    """
    outcome = engine.embed(recordings)
    if outcome.num_ok == 0:
        raise EnrollmentError("no enrollment recording contained a vibration")
    return outcome.values.mean(axis=0), outcome.num_ok


def enroll_user(
    user_id: str,
    engine: InferenceEngine,
    recordings: list[RawRecording],
    transform: CancelableTransform,
) -> EnrollmentResult:
    """Full registration: template -> cancelable projection."""
    if not recordings:
        raise EnrollmentError("enrollment requires at least one recording")
    template, used = build_template(engine, recordings)
    cancelable = transform.apply(template)
    return EnrollmentResult(
        user_id=user_id,
        cancelable_template=cancelable,
        transform=transform,
        used_recordings=used,
    )
