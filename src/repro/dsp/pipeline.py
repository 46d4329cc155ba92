"""The full Section IV preprocessing pipeline.

Order of operations, exactly as the paper lists them:

1. vibration detection and segmentation (``n`` samples per axis),
2. MAD-based outlier processing (detect, then two-sided mean replace),
3. high-pass four-order Butterworth filtering at 20 Hz,
4. min-max normalisation and multi-axis concatenation to ``(6, n)``.
"""

from __future__ import annotations

import dataclasses
import operator

import numpy as np

from typing import Sequence

from repro.config import HIGHPASS_ORDER, SAMPLE_RATE_HZ, PreprocessConfig
from repro.dsp.detection import detect_onsets, segment_after_onset
from repro.dsp.filters import design_highpass, zero_state_response
from repro.dsp.normalize import min_max_normalize
from repro.dsp.outliers import replace_outliers, replace_outliers_batch
from repro.errors import (
    InsufficientAxesError,
    OnsetHintError,
    OnsetNotFoundError,
    ShapeError,
    SignalError,
)
from repro.obs import runtime as obs
from repro.types import NUM_AXES, RawRecording, SignalArray

# Per-layer tracing (``perfbench/tracing.py``) times the stages by
# wrapping names on this module, so the onset stage calls the detector
# as ``detect_onset``.  ``detect_onset_from_signal``,
# ``detection_signals_batch`` and ``replace_outliers`` are no longer
# called here; they stay bound because the tracer wraps them by name.
detect_onset = detect_onset_from_signal = detection_signals_batch = detect_onsets
# The segment filter is one matmul with the zero-state response matrix
# (``segments @ response``), called as ``sosfilt`` because the tracer
# times that name as ``dsp.filter`` and the quality-gate tests inject
# filter outputs through it.  It is not ``filters.sosfilt``.
sosfilt = np.matmul

#: The quality gate's floor: a kept segment needs a usable axis whose
#: high-passed std reaches this many raw counts.
MIN_SEGMENT_STD = 50.0


def _hinted_onset(hint) -> int:
    """A caller-supplied onset as a sample index, or the item's refusal."""
    try:
        onset = operator.index(hint)
    except TypeError:
        raise OnsetHintError(
            f"onset hint must be an integer, got {type(hint).__name__}"
        ) from None
    if onset < 0:
        raise OnsetHintError(f"onset hint must be non-negative, got {onset}")
    return onset


@dataclasses.dataclass(frozen=True)
class PreprocessDebug:
    """Intermediate stages, for inspection and the Fig. 5/6 benches."""

    onset: int
    raw_segments: np.ndarray
    despiked: np.ndarray
    filtered: np.ndarray
    normalized: np.ndarray


@dataclasses.dataclass(frozen=True)
class _Stages:
    """Every stage of one batch: ``K`` cut items, ``J`` of them kept."""

    onsets: list[int]  # (K,) where each cut item was cut
    segments: np.ndarray  # (K, 6, n) raw cut segments
    despiked: np.ndarray  # (K, 6, n)
    filtered: np.ndarray  # (K, 6, n)
    normalized: np.ndarray  # (J, 6, n)
    kept: np.ndarray  # (J,) input index of each kept item
    failures: list[tuple[int, SignalError]]
    degraded: tuple[int, ...]


class Preprocessor:
    """Turns a raw recording into the paper's ``(6, n)`` signal array.

    There is one preprocessing path, :meth:`process_batch_detailed`;
    the single-recording calls are its one-item case.  The high-pass
    sections, and the segment filter's zero-state response matrix
    (:func:`~repro.dsp.filters.zero_state_response`), are built once at
    construction; processing is therefore cheap enough for the
    on-device budget the paper reports (under 10 ms per request).

    Args:
        config: stage parameters; defaults follow the paper.
    """

    def __init__(self, config: PreprocessConfig | None = None) -> None:
        self.config = config or PreprocessConfig()
        self._sos = design_highpass(
            HIGHPASS_ORDER, self.config.highpass_cutoff_hz, SAMPLE_RATE_HZ
        )
        self._response = zero_state_response(self._sos, self.config.segment_length)

    def process(self, recording: RawRecording) -> SignalArray:
        """Full pipeline for one recording; raises its failure.

        Raises:
            repro.errors.OnsetNotFoundError: nothing to authenticate.
            repro.errors.SegmentTooShortError: vibration cut off early.
            repro.errors.InsufficientAxesError: no usable axis left.
        """
        signals, _, failures, _ = self.process_batch_detailed([recording])
        if failures:
            raise failures[0][1]
        return signals[0]

    def process_debug(self, recording: RawRecording) -> PreprocessDebug:
        """Like :meth:`process` but returns every intermediate stage.

        The inspection view behind Figs. 5/6 and the golden
        intermediates; it reads the stages of the one-item batch, so its
        ``normalized`` is exactly :meth:`process`'s output.
        """
        stages = self._stages([recording])
        if stages.failures:
            raise stages.failures[0][1]
        return PreprocessDebug(
            onset=stages.onsets[0],
            raw_segments=stages.segments[0],
            despiked=stages.despiked[0],
            filtered=stages.filtered[0],
            normalized=stages.normalized[0],
        )

    def process_batch(self, recordings: Sequence[RawRecording]) -> np.ndarray:
        """Process ``(B, n, 6)`` recordings into ``(B, 6, seg_len)``.

        Recordings whose onset cannot be found are dropped; the caller
        can compare input and output batch sizes to count rejections.
        Use :meth:`process_batch_detailed` (or the
        :class:`repro.core.engine.InferenceEngine` facade) to learn
        *which* recordings failed and why.
        """
        signals, _, _, _ = self.process_batch_detailed(recordings)
        return signals

    def process_batch_detailed(
        self,
        recordings: Sequence[RawRecording],
        min_usable_axes: int = 1,
        onsets: Sequence[int | None] | None = None,
    ) -> tuple[
        np.ndarray, np.ndarray, list[tuple[int, SignalError]], tuple[int, ...]
    ]:
        """Vectorised batch pipeline with per-item failure bookkeeping.

        Each recording's onset is its own (each has its own event), but
        every dense stage runs once over the stacked batch: the onset
        detector runs the recordings of one length as the lanes of one
        :class:`~repro.dsp.detection.OnsetDetector`, and outlier
        replacement, segment filtering and normalisation each run once
        over the stacked ``(B, 6, n)`` segments.  The segment filter is
        the high-pass from rest as one ``(B, 6, n) @ (n, n)`` matmul
        with the zero-state response matrix; it agrees with
        :func:`~repro.dsp.filters.sosfilt` to rounding (about 1e-15 of
        the segment's peak), and each item's output is bitwise the
        same in any batch.

        A recording whose onset is already known (``onsets[i]`` is an
        int, e.g. the one a :class:`~repro.stream.StreamSession`'s
        streaming detector confirmed) skips detection and is cut at that
        sample; the ``None`` items are still detected together.  Every
        stage after the cut is shared, so a hint equal to the detected
        onset gives bitwise the same signal.  A hint that is not an
        integer, is negative, or leaves fewer than ``segment_length``
        samples is that item's failure
        (:class:`~repro.errors.OnsetHintError` or
        :class:`~repro.errors.SegmentTooShortError`), never an
        exception out of the batch.

        An axis is *usable* when it is finite end-to-end after filtering
        and carries any signal at all; dead channels (sensor dropout)
        and NaN bursts disable single axes without invalidating the
        whole recording (a NaN or inf sample turns its whole filtered
        axis NaN, since the matmul multiplies it into every output).
        Unusable axes are zeroed before normalisation
        and the recording is reported as *degraded*; recordings with
        fewer than ``min_usable_axes`` usable axes fail with
        :class:`~repro.errors.InsufficientAxesError` (DESIGN.md §4g).

        Args:
            recordings: a ``(B, n, 6)`` array or a sequence of
                ``(n_i, 6)`` recordings (lengths may differ).
            min_usable_axes: minimum usable-axis count a recording needs
                to proceed.  The default of 1 reproduces the historical
                gate; the engine threads
                :attr:`repro.config.ResilienceConfig.min_usable_axes`
                through here.
            onsets: optional per-recording onset hints, aligned with
                ``recordings``; ``None`` (or a ``None`` entry) detects.

        Returns:
            ``(signals, indices, failures, degraded)``: signals is the
            ``(K, 6, seg_len)`` stack of successes, indices the
            input-order position of each success, failures a list of
            ``(index, exception)`` pairs sorted by index, and degraded
            the sorted input indices of successes that lost at least one
            axis.
        """
        stages = self._stages(recordings, min_usable_axes, onsets)
        return stages.normalized, stages.kept, stages.failures, stages.degraded

    def _stages(
        self,
        recordings: Sequence[RawRecording],
        min_usable_axes: int = 1,
        onsets: Sequence[int | None] | None = None,
    ) -> _Stages:
        cfg = self.config
        items = [np.asarray(r, dtype=np.float64) for r in recordings]
        failures: list[tuple[int, SignalError]] = []
        cut: list[int] = []
        segments: list[np.ndarray] = []
        indices: list[int] = []

        if onsets is None:
            onsets = [None] * len(items)
        elif len(onsets) != len(items):
            raise ShapeError(
                f"{len(onsets)} onset hints for {len(items)} recordings"
            )

        with obs.span("onset"):
            # Only the items without a hint are detected.
            detect = [idx for idx, hint in enumerate(onsets) if hint is None]
            found = {}
            if detect:
                detected = detect_onset([items[i] for i in detect], cfg, self._sos)
                found = dict(zip(detect, detected))
            for idx, item in enumerate(items):
                try:
                    onset = found[idx] if idx in found else _hinted_onset(onsets[idx])
                    if isinstance(onset, SignalError):
                        raise onset
                    segments.append(
                        segment_after_onset(item, onset, cfg.segment_length)
                    )
                    cut.append(onset)
                    indices.append(idx)
                except SignalError as exc:
                    failures.append((idx, exc))

        empty = np.empty((0, NUM_AXES, cfg.segment_length))
        if not segments:
            return _Stages(
                [], empty, empty, empty, empty, np.empty(0, dtype=np.int64),
                failures, (),
            )

        stacked = np.stack(segments)
        with obs.span("outlier"):
            despiked = replace_outliers_batch(stacked, threshold=cfg.mad_threshold)
        with obs.span("filter"):
            filtered = sosfilt(despiked, self._response)
        # Axis usability: finite end-to-end and carrying any signal.  A
        # dead channel or NaN burst disables that axis only, so the
        # sustained-energy gate below runs over usable axes and cannot
        # be poisoned by a single NaN.  A finite axis whose std overflows
        # to inf is usable; one whose std is NaN (opposite overflows in
        # the mean) is not, since NaN > 1e-9 is false.
        axis_std = filtered.std(axis=2)
        usable = np.isfinite(filtered).all(axis=2) & (axis_std > 1e-9)
        # Quality gate: after outlier replacement a segment that was
        # 'detected' off sensor glitches collapses to noise; a genuine
        # 'EMM' sustains hundreds of counts of high-passed energy.
        # Rejecting here turns glitch-triggered requests into refusals
        # instead of authenticating near-silence.
        sustained = np.where(usable, axis_std, 0.0).max(axis=1) >= MIN_SEGMENT_STD
        enough = usable.sum(axis=1) >= min_usable_axes
        keep = sustained & enough
        for local in np.flatnonzero(~keep):
            if not sustained[local]:
                failures.append(
                    (
                        indices[local],
                        OnsetNotFoundError(
                            "segment carries no sustained vibration after despiking"
                        ),
                    )
                )
            else:
                count = int(usable[local].sum())
                failures.append(
                    (
                        indices[local],
                        InsufficientAxesError(
                            f"only {count} of {NUM_AXES} axes usable; "
                            f"policy requires {min_usable_axes}"
                        ),
                    )
                )
        failures.sort(key=lambda pair: pair[0])
        kept_filtered = filtered[keep]  # boolean indexing copies
        kept_usable = usable[keep]
        whole = kept_usable.all(axis=1)
        if not whole.all():
            kept_filtered[~kept_usable] = 0.0
        if keep.any():
            with obs.span("normalize"):
                normalized = min_max_normalize(kept_filtered, axis=-1)
        else:
            normalized = empty
        kept_idx = np.asarray(indices, dtype=np.int64)[keep]
        degraded = tuple(kept_idx[~whole].tolist())
        return _Stages(
            cut, stacked, despiked, filtered, normalized, kept_idx, failures, degraded
        )
