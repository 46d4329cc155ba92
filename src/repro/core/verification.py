"""Verification phase (Fig. 3, right) and 1:N identification.

A verification request is one recording: preprocess, extract the
MandiblePrint, project with the user's Gaussian matrix, compare against
the sealed template by cosine distance, accept iff within threshold.
:func:`verify_batch` decides a whole stack of requests in one vectorised
pass through the :class:`repro.core.engine.InferenceEngine`, optionally
routed through the early-exit cascade; :func:`identify_batch` is the
1:N counterpart.  Every decision is counted once, by
:func:`count_decisions`.  The single-recording helpers delegate to the
same engine.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.cascade.policy import (
    ROUTE_ACCEPT,
    ROUTE_BORDERLINE,
    ROUTE_FORCED,
    ROUTE_REJECT,
)
from repro.core.engine import InferenceEngine
from repro.core.extractor import TwoBranchExtractor
from repro.core.frontend import FrontEnd
from repro.core.similarity import accept, cosine_distance, distances_to_template
from repro.dsp.pipeline import Preprocessor
from repro.errors import TransientError
from repro.obs import runtime as obs
from repro.security.cancelable import CancelableTransform
from repro.types import RawRecording, VerificationResult

#: Distance reported for a request whose recording carried no usable
#: vibration; maximal, so it can never be accepted.
REJECTED_DISTANCE = 2.0

#: ``exit_stage`` and ``cascade_exits_total`` label of each cascade route.
_ROUTE_STAGES = {
    ROUTE_ACCEPT: "stage1",
    ROUTE_REJECT: "stage1",
    ROUTE_BORDERLINE: "stage2",
    ROUTE_FORCED: "stage2_forced",
}
_ROUTE_EXITS = {
    ROUTE_ACCEPT: "stage1_accept",
    ROUTE_REJECT: "stage1_reject",
    ROUTE_BORDERLINE: "stage2",
    ROUTE_FORCED: "stage2_forced",
}


def probe_embedding(
    model: TwoBranchExtractor,
    preprocessor: Preprocessor,
    frontend: FrontEnd,
    recording: RawRecording,
) -> np.ndarray:
    """Extract one probe MandiblePrint.

    Thin wrapper over :meth:`InferenceEngine.embed_one`.

    Raises:
        repro.errors.SignalError: (subclass) if the recording contains
            no usable vibration -- the request must be rejected, which
            :func:`verify_recording` translates into a refusal.
    """
    return InferenceEngine(model, preprocessor, frontend).embed_one(recording)


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
    gate=None,
    policy=None,
    onsets: Sequence[int | None] | None = None,
) -> list[VerificationResult]:
    """Decide a batch of verification requests in one vectorised pass.

    A recording without a detectable vibration (e.g. a zero-effort
    attack) is a refusal: rejected with the maximum distance and
    ``exit_stage == "refused"`` rather than raising, so one bad
    recording never poisons the rest of the batch.  Results come back
    in input order, one per recording.

    Without a ``gate`` every usable row pays the extractor and is
    labelled ``exit_stage == "full"``.  With a stage-1 ``gate`` and its
    exit ``policy`` the batch runs the early-exit cascade (DESIGN.md
    §4k): clear-cut probes exit on the stage-1 score with ``exit_stage
    == "stage1"`` (their ``distance`` is the stage-1 score and their
    ``threshold`` the accept-band edge, so ``accept()`` stays
    self-consistent); borderline and audit-forced probes pay the
    extractor and carry real cosine distances.  A transient stage-1
    failure (the ``cascade.stage1`` fault point) sends the whole batch
    through the extractor -- availability over speed -- with
    ``exit_stage == "full"`` and the ``fallback_full`` exit label.
    Under a gate, ``cascade_exits_total`` summed over its ``stage``
    labels equals the batch size.

    ``onsets`` optionally gives each recording's known onset (``None``
    entries are detected); a bad hint refuses only its own request.
    """
    outcome = engine.preprocessed(recordings, onsets)
    distances = np.full(outcome.batch_size, REJECTED_DISTANCE)
    thresholds = np.full(outcome.batch_size, threshold)
    stages = ["refused"] * outcome.batch_size
    exits = ["refused"] * outcome.batch_size
    success = np.asarray(outcome.indices, dtype=np.int64)
    if outcome.num_ok:
        routes = None
        if gate is not None:
            try:
                scores = gate.scores(user_id, outcome.values)
            except TransientError:
                pass  # availability over speed: the batch pays stage 2
            else:
                routes = policy.route(scores)
        if routes is None:
            # ``exits`` labels are only emitted under a gate, where
            # reaching this branch means the stage-1 fault fallback.
            stage2 = np.ones(outcome.num_ok, dtype=bool)
            for idx in success.tolist():
                stages[idx] = "full"
                exits[idx] = "fallback_full"
        else:
            stage2 = (routes == ROUTE_BORDERLINE) | (routes == ROUTE_FORCED)
            obs.set_gauge(
                "cascade_borderline_fraction",
                float((routes == ROUTE_BORDERLINE).sum()) / outcome.num_ok,
            )
            distances[success[~stage2]] = scores[~stage2]
            thresholds[success[~stage2]] = policy.t_accept
            for idx, route in zip(success.tolist(), routes.tolist()):
                stages[idx] = _ROUTE_STAGES[route]
                exits[idx] = _ROUTE_EXITS[route]
        if stage2.any():
            signals = outcome.values if stage2.all() else outcome.values[stage2]
            probes = transform.apply(engine.embed_signal_values(signals))
            distances[success[stage2]] = distances_to_template(
                probes, np.asarray(template, dtype=np.float64)
            )
    degraded = set(int(i) for i in outcome.degraded)
    results = [
        VerificationResult(
            accepted=accept(float(d), float(t)),
            distance=float(d),
            threshold=float(t),
            user_id=user_id,
            degraded=idx in degraded,
            exit_stage=stage,
        )
        for idx, (d, t, stage) in enumerate(zip(distances, thresholds, stages))
    ]
    if gate is not None and obs.get_registry().enabled:
        for label in exits:
            obs.inc("cascade_exits_total", stage=label)
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
