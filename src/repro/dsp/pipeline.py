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

from repro.config import PreprocessConfig
from repro.dsp.detection import (
    coarse_onsets,
    detect_onset,
    detect_onset_from_signal,
    detection_signals_batch,
    segment_after_onset,
)
from repro.dsp.filters import design_highpass, sosfilt
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


class Preprocessor:
    """Turns a raw recording into the paper's ``(6, n)`` signal array.

    The high-pass sections are designed once at construction; processing
    is therefore cheap enough for the on-device budget the paper reports
    (under 10 ms per request).

    Args:
        config: stage parameters; defaults follow the paper.
    """

    def __init__(self, config: PreprocessConfig | None = None) -> None:
        self.config = config or PreprocessConfig()
        self._sos = design_highpass(
            self.config.highpass_order,
            self.config.highpass_cutoff_hz,
            self.config.sample_rate_hz,
        )

    def process(self, recording: RawRecording) -> SignalArray:
        """Full pipeline; raises on undetectable or too-short vibration.

        Raises:
            repro.errors.OnsetNotFoundError: nothing to authenticate.
            repro.errors.SegmentTooShortError: vibration cut off early.
        """
        return self.process_debug(recording).normalized

    def process_debug(self, recording: RawRecording) -> PreprocessDebug:
        """Like :meth:`process` but returns every intermediate stage."""
        cfg = self.config
        with obs.span("onset"):
            onset = detect_onset(recording, cfg)
            segments = segment_after_onset(recording, onset, cfg.segment_length)

        with obs.span("outlier"):
            despiked = np.empty_like(segments)
            for axis in range(NUM_AXES):
                despiked[axis] = replace_outliers(
                    segments[axis], threshold=cfg.mad_threshold
                )

        with obs.span("filter"):
            filtered = sosfilt(self._sos, despiked)
        # Quality gate: after outlier replacement a segment that was
        # 'detected' off sensor glitches collapses to noise; a genuine
        # 'EMM' sustains hundreds of counts of high-passed energy.
        # Rejecting here turns glitch-triggered requests into refusals
        # instead of authenticating near-silence.
        if float(filtered.std(axis=1).max()) < cfg.min_segment_std:
            raise OnsetNotFoundError(
                "segment carries no sustained vibration after despiking"
            )
        with obs.span("normalize"):
            normalized = min_max_normalize(filtered, axis=-1)
        return PreprocessDebug(
            onset=onset,
            raw_segments=segments,
            despiked=despiked,
            filtered=filtered,
            normalized=normalized,
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

        Each recording's onset is refined and cut per item (each has its
        own event), but every dense stage — the detection high-pass, the
        onset window scan, outlier replacement, segment filtering and
        normalisation — runs once over the stacked ``(B, 6, n)`` array.
        Per item the output is numerically identical to :meth:`process`.

        A recording whose onset is already known (``onsets[i]`` is an
        int, e.g. the one a :class:`~repro.stream.StreamSession`'s
        streaming detector confirmed) skips detection and is cut at that
        sample; the ``None`` items are still detected together in one
        batched pass.  Every stage after the cut is shared, so a hint
        equal to the detected onset gives bitwise the same signal.  A
        hint that is not an integer, is negative, or leaves fewer than
        ``segment_length`` samples is that item's failure
        (:class:`~repro.errors.OnsetHintError` or
        :class:`~repro.errors.SegmentTooShortError`), never an
        exception out of the batch.

        An axis is *usable* when it is finite end-to-end after filtering
        and carries any signal at all; dead channels (sensor dropout)
        and NaN bursts disable single axes without invalidating the
        whole recording.  Unusable axes are zeroed before normalisation
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
        cfg = self.config
        items = [np.asarray(r, dtype=np.float64) for r in recordings]
        failures: list[tuple[int, SignalError]] = []
        segments: list[np.ndarray] = []
        indices: list[int] = []

        if onsets is None:
            onsets = [None] * len(items)
        elif len(onsets) != len(items):
            raise ShapeError(
                f"{len(onsets)} onset hints for {len(items)} recordings"
            )

        with obs.span("onset"):
            # Only the items without a hint are detected, stacked into
            # one pass when they share a shape.
            detect = [idx for idx, hint in enumerate(onsets) if hint is None]
            rectangular = (
                len(detect) > 0
                and all(
                    items[i].ndim == 2 and items[i].shape[1] == NUM_AXES
                    for i in detect
                )
                and len({items[i].shape[0] for i in detect}) == 1
            )
            if rectangular:
                detections = detection_signals_batch(
                    np.stack([items[i] for i in detect]), cfg, sos=self._sos
                )
                coarse = coarse_onsets(detections, cfg)
                row = {idx: r for r, idx in enumerate(detect)}
            for idx, item in enumerate(items):
                try:
                    if onsets[idx] is not None:
                        onset = _hinted_onset(onsets[idx])
                    elif rectangular:
                        r = row[idx]
                        onset = detect_onset_from_signal(
                            detections[r], cfg, coarse_start=int(coarse[r])
                        )
                    else:
                        onset = detect_onset(item, cfg, sos=self._sos)
                    segments.append(
                        segment_after_onset(item, onset, cfg.segment_length)
                    )
                    indices.append(idx)
                except SignalError as exc:
                    failures.append((idx, exc))

        empty = np.empty((0, NUM_AXES, cfg.segment_length))
        if not segments:
            return empty, np.empty(0, dtype=np.int64), failures, ()

        stacked = np.stack(segments)
        with obs.span("outlier"):
            despiked = replace_outliers_batch(stacked, threshold=cfg.mad_threshold)
        with obs.span("filter"):
            filtered = sosfilt(self._sos, despiked)
        # Axis usability: finite end-to-end and carrying any signal.  A
        # dead channel or NaN burst disables that axis only, so the
        # sustained-energy gate below runs over usable axes and cannot
        # be poisoned by a single NaN.
        finite = np.isfinite(filtered).all(axis=2)
        axis_std = np.where(finite, np.nan_to_num(filtered.std(axis=2)), 0.0)
        usable = finite & (axis_std > 1e-9)
        # Same quality gate as process_debug, vectorised across items.
        sustained = np.where(usable, axis_std, 0.0).max(axis=1) >= cfg.min_segment_std
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
        if not keep.any():
            return empty, np.empty(0, dtype=np.int64), failures, ()
        kept_filtered = filtered[keep]  # boolean indexing copies
        kept_usable = usable[keep]
        if not kept_usable.all():
            kept_filtered[~kept_usable] = 0.0
        with obs.span("normalize"):
            normalized = min_max_normalize(kept_filtered, axis=-1)
        kept_idx = np.asarray(indices, dtype=np.int64)[keep]
        degraded = tuple(
            int(i) for i, row in zip(kept_idx, kept_usable) if not row.all()
        )
        return normalized, kept_idx, failures, degraded
