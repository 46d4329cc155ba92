"""Batch-first inference engine: preprocess → front end → extractor.

Every layer of the verify path is batchable — the paper's fixed
``n = 60`` segment makes whole campaigns stackable with no padding —
so the engine runs the dense stages on ``(B, ...)`` arrays and keeps
per-recording bookkeeping only where the semantics demand it (onset
detection, failure attribution).  The single-recording APIs in
:mod:`repro.core.verification` and :mod:`repro.core.system` are thin
wrappers over this module.

A batch never raises because one recording is bad: each stage returns a
:class:`BatchOutcome` that carries the stacked successes alongside
structured per-item failures (input index, error class, reason), so a
server draining a verification queue can answer every request in the
batch.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Sequence, TypeVar

import numpy as np

from repro import errors
from repro.config import ResilienceConfig
from repro.core.extractor import FrozenExtractor, TwoBranchExtractor
from repro.core.frontend import FrontEnd
from repro.core.similarity import center_embedding
from repro.dsp.pipeline import Preprocessor
from repro.errors import ConfigError, ShapeError, TransientError
from repro.faults import runtime as faults
from repro.obs import runtime as obs
from repro.types import RawRecording

T = TypeVar("T")


@dataclasses.dataclass(frozen=True)
class BatchItemFailure:
    """Why one recording of a batch could not be processed.

    Attributes:
        index: position of the recording in the input batch.
        error: exception class name (e.g. ``"OnsetNotFoundError"``).
        reason: human-readable message from the underlying exception.
    """

    index: int
    error: str
    reason: str


@dataclasses.dataclass(frozen=True)
class BatchOutcome:
    """Result of one batched stage: stacked successes + per-item failures.

    Attributes:
        values: ``(K, ...)`` stage output for the ``K`` successes, in
            input order.
        indices: ``(K,)`` input-batch position of each success row.
        failures: one entry per failed recording, sorted by index.
        batch_size: total number of recordings that entered the batch.
        degraded: sorted input indices of *successful* recordings that
            were processed in degraded mode (at least one unusable IMU
            axis was zeroed out; DESIGN.md §4g).  Always a subset of
            ``indices``.
    """

    values: np.ndarray
    indices: np.ndarray
    failures: tuple[BatchItemFailure, ...]
    batch_size: int
    degraded: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.batch_size < 0:
            raise ShapeError("batch_size must be non-negative")
        if len(self.values) != len(self.indices):
            raise ShapeError("values and indices disagree on success count")
        if len(self.indices) + len(self.failures) != self.batch_size:
            raise ShapeError("successes + failures must cover the batch")
        success = np.asarray(self.indices, dtype=np.int64).tolist()
        if any(b <= a for a, b in zip(success, success[1:])):
            raise ShapeError("success indices must be strictly increasing")
        failed = [f.index for f in self.failures]
        if any(b <= a for a, b in zip(failed, failed[1:])):
            raise ShapeError("failures must be sorted by strictly increasing index")
        covered = set(success) | set(failed)
        if len(covered) != self.batch_size or (
            covered and (min(covered) < 0 or max(covered) >= self.batch_size)
        ):
            raise ShapeError(
                "success and failure indices must partition range(batch_size)"
            )
        marked = [int(i) for i in self.degraded]
        if any(b <= a for a, b in zip(marked, marked[1:])):
            raise ShapeError("degraded indices must be strictly increasing")
        if not set(marked) <= set(success):
            raise ShapeError("degraded indices must be a subset of successes")

    @property
    def num_ok(self) -> int:
        return int(len(self.indices))

    @property
    def num_failed(self) -> int:
        return len(self.failures)

    def ok_mask(self) -> np.ndarray:
        """Boolean ``(batch_size,)`` mask of successful input positions."""
        mask = np.zeros(self.batch_size, dtype=bool)
        mask[np.asarray(self.indices, dtype=np.int64)] = True
        return mask

    def failure_for(self, index: int) -> BatchItemFailure | None:
        """The failure recorded for input ``index``, or None if it succeeded."""
        for failure in self.failures:
            if failure.index == index:
                return failure
        return None

    def scatter(self, fill_value: float) -> np.ndarray:
        """Expand ``values`` back to ``(batch_size, ...)`` input order.

        Failed positions are filled with ``fill_value``; useful for
        producing one aligned row per request.
        """
        values = np.asarray(self.values)
        out = np.full((self.batch_size,) + values.shape[1:], fill_value, dtype=np.float64)
        if self.num_ok:
            out[np.asarray(self.indices, dtype=np.int64)] = values
        return out


def _as_failures(
    failures: Sequence[tuple[int, BaseException]]
) -> tuple[BatchItemFailure, ...]:
    return tuple(
        BatchItemFailure(index=idx, error=type(exc).__name__, reason=str(exc))
        for idx, exc in failures
    )


class InferenceEngine:
    """Facade running the whole verify path on stacked batches.

    Args:
        model: a trained :class:`TwoBranchExtractor`.
        preprocessor: Section IV pipeline; optional when only
            feature-level entry points (:meth:`embed_features`) are used.
        frontend: direction-splitting front end; optional likewise.
        compute_dtype: dtype the extractor forward runs in.  ``float64``
            (the default) is bit-compatible with training; ``float32``
            is the opt-in inference fast path — roughly half the memory
            traffic and double the BLAS throughput, with embedding drift
            bounded by the parity tests.  Distances and decisions are
            computed in float64 regardless.  The engine builds its
            :class:`~repro.core.extractor.FrozenExtractor` here, once:
            it serves the model as it was at construction.
        resilience: retry/backoff and degraded-mode policy.  ``None``
            uses :class:`repro.config.ResilienceConfig` defaults: two
            retries with exponential backoff on
            :class:`~repro.errors.TransientError`, and verification
            proceeding (flagged degraded) when at least four of six IMU
            axes are usable.
    """

    def __init__(
        self,
        model: TwoBranchExtractor,
        preprocessor: Preprocessor | None = None,
        frontend: FrontEnd | None = None,
        compute_dtype: np.dtype | str = "float64",
        resilience: ResilienceConfig | None = None,
    ) -> None:
        self.extractor = FrozenExtractor(model, compute_dtype)
        self.preprocessor = preprocessor
        self.frontend = frontend
        self.resilience = resilience or ResilienceConfig()

    def _with_retry(self, fn: Callable[[], T], stage: str) -> T:
        """Run one stage, retrying transient failures with backoff.

        Only :class:`~repro.errors.TransientError` (injected faults and
        anything a deployment marks transient) is retried; programming
        errors and signal errors propagate immediately.
        """
        policy = self.resilience
        attempt = 0
        while True:
            try:
                return fn()
            except TransientError:
                if attempt >= policy.max_retries:
                    raise
                obs.inc("fault_retries_total", stage=stage)
                time.sleep(policy.backoff_delay(attempt))
                attempt += 1

    # -- stage entry points ---------------------------------------------

    def _require_signal_stages(self) -> tuple[Preprocessor, FrontEnd]:
        if self.preprocessor is None or self.frontend is None:
            raise ConfigError(
                "this engine was built without a preprocessor/front end; "
                "only feature-level entry points are available"
            )
        return self.preprocessor, self.frontend

    def _preprocess(
        self,
        recordings: Sequence[RawRecording],
        onsets: Sequence[int | None] | None,
    ) -> tuple[
        np.ndarray, np.ndarray, list[tuple[int, errors.SignalError]], tuple[int, ...]
    ]:
        """Batched Section IV pipeline: ``(K, 6, n)`` signals and outcomes."""
        preprocessor, _ = self._require_signal_stages()
        faults.maybe_delay("engine.preprocess")
        faults.maybe_fail("engine.preprocess")
        return preprocessor.process_batch_detailed(
            recordings,
            min_usable_axes=self.resilience.min_usable_axes,
            onsets=onsets,
        )

    def features(self, signal_arrays: np.ndarray) -> np.ndarray:
        """Front-end transform of stacked signals: ``(K, 2, 6, W)``."""
        _, frontend = self._require_signal_stages()
        faults.maybe_delay("engine.frontend")
        faults.maybe_fail("engine.frontend")
        with obs.span("frontend"):
            return frontend.transform_batch(signal_arrays)

    def embed_features(self, feature_arrays: np.ndarray) -> np.ndarray:
        """Centred MandiblePrints ``(K, d)`` for stacked feature arrays.

        The extractor forward runs in the engine's compute dtype, in
        chunks of the frozen forward's default 256 rows; the centring
        upcasts to float64, so everything downstream (cosine
        distances, decisions) is float64 either way.
        """
        faults.maybe_delay("engine.extractor")
        faults.maybe_fail("engine.extractor")
        with obs.span("extractor"):
            return center_embedding(self.extractor(feature_arrays))

    # -- end-to-end -----------------------------------------------------

    def embed(
        self,
        recordings: Sequence[RawRecording],
        onsets: Sequence[int | None] | None = None,
    ) -> BatchOutcome:
        """Recordings to centred MandiblePrints, with per-item failures.

        ``onsets`` are optional per-recording onset hints: a hinted
        recording skips detection (see
        :meth:`~repro.dsp.pipeline.Preprocessor.process_batch_detailed`).
        Transient stage failures are retried per the engine's
        :class:`~repro.config.ResilienceConfig`; payload corruption (the
        ``"imu"`` fault point) is applied once, before the first
        attempt, so a retry re-processes the same corrupted inputs
        rather than rolling new ones.  Corruption keeps each
        recording's length, so ``onsets`` hints stay in range.
        """
        obs.observe_batch_size("embed", len(recordings))
        recordings = faults.corrupt_recordings(recordings)
        signals, indices, failures, degraded = self._with_retry(
            lambda: self._preprocess(recordings, onsets), "preprocess"
        )
        failures = _as_failures(failures)
        for failure in failures:
            obs.inc("failures_total", error=failure.error)
        if degraded:
            obs.inc("degraded_total", float(len(degraded)), path="axes")
        if len(indices):
            features = self._with_retry(lambda: self.features(signals), "frontend")
            values = self._with_retry(
                lambda: self.embed_features(features), "extractor"
            )
        else:
            values = np.empty((0, self.extractor.config.embedding_dim))
        return BatchOutcome(
            values=values,
            indices=indices,
            failures=failures,
            batch_size=len(recordings),
            degraded=degraded,
        )

    def embed_one(self, recording: RawRecording) -> np.ndarray:
        """The one-item :meth:`embed`; raises the item's failure.

        The recording is gated exactly as in a batch (usable axes,
        degraded mode), but an unusable one raises its
        :class:`repro.errors.SignalError` subclass instead of being
        reported.
        """
        outcome = self.embed([recording])
        if outcome.failures:
            (failure,) = outcome.failures
            raise getattr(errors, failure.error)(failure.reason)
        return outcome.values[0]
