"""Verification phase (Fig. 3, right) and 1:N identification.

A verification request is one recording: preprocess, extract the
MandiblePrint, project with the user's Gaussian matrix, compare against
the sealed template by cosine distance, accept iff within threshold.
:func:`verify_batch` decides a whole stack of requests in one vectorised
pass through the :class:`repro.core.engine.InferenceEngine`;
:func:`identify_batch` is the 1:N counterpart.  Every decision is
counted once, by :func:`count_decisions`.  The single-recording helpers
delegate to the same engine.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.engine import InferenceEngine
from repro.core.extractor import TwoBranchExtractor
from repro.core.frontend import FrontEnd
from repro.core.similarity import accept, cosine_distance, distances_to_template
from repro.dsp.pipeline import Preprocessor
from repro.obs import runtime as obs
from repro.security.cancelable import CancelableTransform
from repro.types import RawRecording, VerificationResult

#: Distance reported for a request whose recording carried no usable
#: vibration; maximal, so it can never be accepted.
REJECTED_DISTANCE = 2.0


def decision_label(result: VerificationResult | None) -> str:
    """``"accept"``, ``"reject"`` or ``"refusal"``: the one refusal rule.

    ``None`` (identify with nothing usable, or a streamed request that
    never produced a result) and ``exit_stage == "refused"`` (no
    embedding was produced) are refusals -- failures to acquire, never
    biometric rejects.
    """
    if result is None or result.exit_stage == "refused":
        return "refusal"
    return "accept" if result.accepted else "reject"


def count_decisions(
    results: Sequence[VerificationResult | None],
) -> Sequence[VerificationResult | None]:
    """Count every result once under ``decisions_total``; returns ``results``."""
    if obs.get_registry().enabled:
        for result in results:
            obs.inc("decisions_total", decision=decision_label(result))
    return results


def verify_batch(
    user_id: str,
    engine: InferenceEngine,
    recordings: Sequence[RawRecording],
    template: np.ndarray,
    transform: CancelableTransform,
    threshold: float,
    onsets: Sequence[int | None] | None = None,
) -> list[VerificationResult]:
    """Decide a batch of verification requests in one vectorised pass.

    A recording without a detectable vibration (e.g. a zero-effort
    attack) is a refusal: rejected with the maximum distance and
    ``exit_stage == "refused"`` rather than raising, so one bad
    recording never poisons the rest of the batch.  Every usable row
    pays the extractor and is labelled ``exit_stage == "full"``.
    Results come back in input order, one per recording.

    ``onsets`` optionally gives each recording's known onset (``None``
    entries are detected); a bad hint refuses only its own request.
    """
    threshold = float(threshold)
    outcome = engine.embed(recordings, onsets)
    distances = np.full(outcome.batch_size, REJECTED_DISTANCE)
    stages = ["refused"] * outcome.batch_size
    if outcome.num_ok:
        success = np.asarray(outcome.indices, dtype=np.int64)
        with obs.span("scoring"):
            probes = transform.apply(outcome.values)
            distances[success] = distances_to_template(
                probes, np.asarray(template, dtype=np.float64)
            )
        for idx in success.tolist():
            stages[idx] = "full"
    degraded = set(int(i) for i in outcome.degraded)
    results = [
        VerificationResult(
            accepted=accept(float(d), threshold),
            distance=float(d),
            threshold=threshold,
            user_id=user_id,
            degraded=idx in degraded,
            exit_stage=stage,
        )
        for idx, (d, stage) in enumerate(zip(distances, stages))
    ]
    return count_decisions(results)


def identify_batch(
    engine: InferenceEngine,
    gallery,
    recordings: Sequence[RawRecording],
    threshold: float,
) -> list[VerificationResult | None]:
    """1:N identification of a batch against a synced gallery.

    Embeds the batch once and scores every usable probe with
    ``gallery.best_match``.  ``None`` marks a recording with no usable
    vibration, or a batch against an empty (or absent) gallery.
    """
    results: list[VerificationResult | None] = [None] * len(recordings)
    if gallery is None or gallery.num_users == 0 or not recordings:
        return count_decisions(results)
    outcome = engine.embed(recordings)
    if outcome.num_ok:
        degraded = set(int(i) for i in outcome.degraded)
        matches = gallery.best_match(outcome.values)
        for row, input_index in enumerate(np.asarray(outcome.indices).tolist()):
            match = matches[row]
            if match is None:
                continue
            results[input_index] = VerificationResult(
                accepted=accept(match.distance, threshold),
                distance=match.distance,
                threshold=threshold,
                user_id=match.user_id,
                degraded=input_index in degraded,
            )
    return count_decisions(results)


def verify_recording(
    user_id: str,
    model: TwoBranchExtractor,
    preprocessor: Preprocessor,
    frontend: FrontEnd,
    recording: RawRecording,
    template: np.ndarray,
    transform: CancelableTransform,
    threshold: float,
) -> VerificationResult:
    """Decide one verification request.

    Thin wrapper over :func:`verify_batch` with a batch of one; kept so
    deployment code that authenticates a single tap stays one call.
    """
    engine = InferenceEngine(model, preprocessor, frontend)
    return verify_batch(
        user_id, engine, [recording], template, transform, threshold
    )[0]


def verify_presented_vector(
    user_id: str,
    presented: np.ndarray,
    template: np.ndarray,
    threshold: float,
) -> VerificationResult:
    """Decide a request that presents a raw vector (replay attacks).

    The replay attacker bypasses the sensor and exhibits a stolen
    cancelable vector directly; the comparison is the same cosine rule.
    """
    distance = cosine_distance(np.asarray(presented, dtype=np.float64), template)
    return VerificationResult(
        accepted=accept(distance, threshold),
        distance=distance,
        threshold=threshold,
        user_id=user_id,
    )
