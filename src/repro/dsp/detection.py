"""Vibration onset detection (Section IV).

The paper's rule: divide the accelerometer signal into ten-sample
windows (stride ten); the vibration starts at the first window whose
standard deviation exceeds 250 raw counts, provided the following
windows stay at or above 100.  The start timestamp is the first sample
of that window.

The paper illustrates the rule on the z accelerometer axis, but which
axis carries the energy depends on how the earbud couples to the ear,
so :func:`detect_onset` evaluates all three accelerometer axes and
takes, per window, the maximum std across them.  This is equivalent for
well-coupled axes and strictly more robust otherwise.

Detection also runs on the *high-passed* accelerometer (the same 20 Hz
Butterworth the pipeline applies later): walking and running move the
whole head by several m/s^2 below 20 Hz, which would otherwise trigger
the std rule long before the user voices anything and anchor the
segment on body motion instead of the vibration event.  Above 20 Hz
only the mandible vibration remains, so the paper's thresholds keep
their meaning under every activity condition.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.config import PreprocessConfig
from repro.errors import OnsetNotFoundError, ShapeError
from repro.types import ACCEL_AXES, ensure_raw_recording


def _detection_sos(
    config: PreprocessConfig, sos: np.ndarray | None = None
) -> np.ndarray:
    """The high-pass sections used for detection (design once, reuse)."""
    from repro.dsp.filters import design_highpass

    if sos is not None:
        return sos
    return design_highpass(
        config.highpass_order, config.highpass_cutoff_hz, config.sample_rate_hz
    )


def _detection_pad(config: PreprocessConfig) -> int:
    return max(
        int(round(4.0 * config.sample_rate_hz / config.highpass_cutoff_hz)), 8
    )


def _detection_signal(
    recording: np.ndarray,
    config: PreprocessConfig,
    sos: np.ndarray | None = None,
) -> np.ndarray:
    """High-passed accelerometer block ``(n, 3)`` used for detection.

    The first-sample padding lets the filter settle on the gravity DC
    level before the real samples arrive; without it the start-up
    transient of the high-pass looks like a huge vibration at t = 0 and
    the std rule triggers immediately.
    """
    from repro.dsp.filters import sosfilt

    recording = ensure_raw_recording(recording)
    block = recording[:, list(ACCEL_AXES)]
    pad = _detection_pad(config)
    padded = np.concatenate([np.repeat(block[:1], pad, axis=0), block])
    return sosfilt(_detection_sos(config, sos), padded.T).T[pad:]


def detection_signals_batch(
    recordings: np.ndarray,
    config: PreprocessConfig,
    sos: np.ndarray | None = None,
) -> np.ndarray:
    """Detection signals for a rectangular ``(B, n, 6)`` batch at once.

    One biquad pass filters every recording's accelerometer block
    simultaneously; each slice ``[b]`` equals
    ``_detection_signal(recordings[b], config)`` because the filter
    recursion is elementwise over the batch dimension.
    """
    from repro.dsp.filters import sosfilt

    recordings = np.asarray(recordings, dtype=np.float64)
    if recordings.ndim != 3 or recordings.shape[2] != 6:
        raise ShapeError(f"expected (B, n, 6), got {recordings.shape}")
    block = recordings[:, :, list(ACCEL_AXES)]
    pad = _detection_pad(config)
    padded = np.concatenate(
        [np.repeat(block[:, :1], pad, axis=1), block], axis=1
    )
    # (B, n + pad, 3) -> (B, 3, n + pad): filter along time, per item.
    filtered = sosfilt(_detection_sos(config, sos), padded.transpose(0, 2, 1))
    return filtered.transpose(0, 2, 1)[:, pad:]


def window_metrics(axis_major: np.ndarray, window: int) -> np.ndarray:
    """Per-window detection metric of ``(..., 3, n)`` axis-major blocks.

    Returns ``(..., n // window)``: for each stride-``window`` window,
    the maximum over the three accelerometer axes of its std.  Trailing
    samples that do not fill a window are dropped.  The windows are
    copied into one C-contiguous ``(..., 3, frames, window)`` block and
    reduced along its last axis.  numpy picks its summation order by
    memory layout, so this gives every std the order of one contiguous
    framed window, whatever the layout of the caller's array.
    """
    frames = axis_major.shape[-1] // window
    blocks = np.ascontiguousarray(axis_major[..., : frames * window])
    blocks = blocks.reshape(*blocks.shape[:-1], frames, window)
    return blocks.std(axis=-1).max(axis=-2)


def first_confirmed(metric: np.ndarray, config: PreprocessConfig) -> np.ndarray:
    """Index of the first window that fires the std rule, along the last axis.

    Window ``i`` fires when ``metric[i]`` is not ``<= onset_std_start``
    (so a NaN metric passes the start test) and the next
    ``onset_sustain_windows`` metrics are all ``>= onset_std_sustain``
    (so a NaN fails the sustain test).  A window whose sustain run is
    cut off by the end of ``metric`` never fires.  Returns ``-1`` where
    no window fires.
    """
    sustain = config.onset_sustain_windows
    decidable = metric.shape[-1] - sustain
    if decidable <= 0:
        return np.full(metric.shape[:-1], -1)
    starts = ~(metric[..., :decidable] <= config.onset_std_start)
    # Sliding-window minimum of the sustain test; the run starting at
    # window i + 1 confirms window i.
    runs = sliding_window_view(metric >= config.onset_std_sustain, sustain, axis=-1)
    fired = starts & runs[..., 1:, :].all(axis=-1)
    return np.where(fired.any(axis=-1), fired.argmax(axis=-1), -1)


def coarse_onsets(detections: np.ndarray, config: PreprocessConfig) -> np.ndarray:
    """Start of the triggering window of each ``(B, n, 3)`` detection signal.

    The std rule for a whole batch in one reduction; ``-1`` where no
    window fires.  :func:`detect_onset_from_signal` refines an entry to
    stride-1 precision.
    """
    window = config.onset_window
    fired = first_confirmed(
        window_metrics(detections.transpose(0, 2, 1), window), config
    )
    return np.where(fired >= 0, fired * window, -1)


def onset_metric(
    recording: np.ndarray,
    window: int = 10,
    config: PreprocessConfig | None = None,
) -> np.ndarray:
    """Per-window detection metric: max high-passed accel std across axes."""
    config = config or PreprocessConfig(onset_window=window)
    return window_metrics(_detection_signal(recording, config).T, window)


def detect_onset_from_signal(
    detection: np.ndarray,
    config: PreprocessConfig | None = None,
    coarse_start: int | None = None,
) -> int:
    """The paper's std rule on an already high-passed ``(n, 3)`` block.

    The batch pipeline filters a whole ``(B, n, 6)`` stack in one pass
    (:func:`detection_signals_batch`), runs the window scan for the
    whole stack at once (:func:`coarse_onsets`) and then calls this per
    item with ``coarse_start`` set, so each recording still gets its own
    refined onset and its own error.

    Args:
        detection: the ``(n, 3)`` detection signal.
        config: thresholds; defaults to the paper's values.
        coarse_start: the item's :func:`coarse_onsets` entry (``-1``
            when no window fired); scanned here when ``None``.

    Raises:
        repro.errors.OnsetNotFoundError: if no window satisfies the rule.
    """
    config = config or PreprocessConfig()
    detection = np.asarray(detection, dtype=np.float64)
    if detection.ndim != 2 or detection.shape[1] != 3:
        raise ShapeError(f"detection signal must be (n, 3), got {detection.shape}")
    if detection.shape[0] < config.onset_window:
        raise OnsetNotFoundError("recording shorter than one window")
    if coarse_start is None:
        coarse_start = int(coarse_onsets(detection[None], config)[0])
    if coarse_start < 0:
        raise OnsetNotFoundError(
            "no window exceeded "
            f"{config.onset_std_start} with {config.onset_sustain_windows} "
            f"sustained windows >= {config.onset_std_sustain}"
        )
    return _refine_onset(detection, coarse_start, config)


def detect_onset(
    recording: np.ndarray,
    config: PreprocessConfig | None = None,
    sos: np.ndarray | None = None,
) -> int:
    """Find the start sample of the vibration event.

    Args:
        recording: raw ``(n, 6)`` counts.
        config: thresholds; defaults to the paper's values.
        sos: optional pre-designed detection high-pass sections (the
            pipeline passes its own so the design step is not repeated
            per recording).

    Returns:
        The sample index of the first value of the triggering window.

    Raises:
        repro.errors.OnsetNotFoundError: if no window satisfies the rule.
    """
    config = config or PreprocessConfig()
    recording = ensure_raw_recording(recording)
    detection = _detection_signal(recording, config, sos)
    return detect_onset_from_signal(detection, config)


def _refine_onset(
    detection: np.ndarray, coarse_start: int, config: PreprocessConfig
) -> int:
    """Refine a coarse (stride = window) onset to stride-1 precision.

    The paper's windows slide by a whole window (ten samples), so where
    the vibration falls relative to window boundaries shifts the segment
    start by up to ten samples (~28 ms at 350 Hz) from trial to trial --
    the dominant source of intra-user misalignment.  We re-apply the
    *same* std rule on a stride-1 grid around the triggering window and
    return the earliest crossing, giving every trial the same alignment
    relative to the vibration attack.
    """
    window = config.onset_window
    lo, hi = refinement_bounds(detection.shape[0], coarse_start, window)
    if hi <= lo:
        return coarse_start
    return refine_from_region(detection[lo : hi + window].T, lo, hi, window)


def refinement_bounds(
    num_samples: int, coarse_start: int, window: int
) -> tuple[int, int]:
    """The stride-1 search range ``[lo, hi]`` for refinement starts.

    ``hi`` stops depending on the signal length once
    ``num_samples >= coarse_start + 3 * window`` — the condition the
    streaming detector waits for before it finalises an onset, because
    from that point every longer prefix yields the same bounds.
    """
    lo = max(0, coarse_start - window)
    hi = min(num_samples - window, coarse_start + 2 * window)
    return lo, hi


def refine_from_region(
    region: np.ndarray, lo: int, hi: int, window: int
) -> int:
    """Half-rise refinement over ``detection[lo : hi + window]``.

    ``region`` is that slice axis-major, ``(3, hi + window - lo)``; the
    return value is the absolute refined onset.  The stride-1 windows
    are copied into one C-contiguous ``(3, hi - lo + 1, window)`` block,
    so each std reduces a contiguous run exactly as
    :func:`window_metrics` does.
    """
    # Rolling std of the detection metric on a stride-1 grid.
    windows = np.ascontiguousarray(sliding_window_view(region, window, axis=-1))
    rolling = windows.std(axis=-1).max(axis=0)
    # Anchor at the half-rise point of the attack.  A relative anchor is
    # effort-invariant: a louder trial crosses any *absolute* threshold
    # earlier, which would shift the segment between trials.
    half = 0.5 * float(rolling.max())
    crossing = int(np.argmax(rolling >= half))
    return lo + crossing


def has_vibration(
    recording: np.ndarray, config: PreprocessConfig | None = None
) -> bool:
    """Whether the recording contains a detectable vibration event."""
    try:
        detect_onset(recording, config)
    except OnsetNotFoundError:
        return False
    return True


def segment_after_onset(
    recording: np.ndarray,
    onset: int,
    length: int,
) -> np.ndarray:
    """Cut ``length`` samples per axis starting at ``onset``.

    Returns:
        ``(6, length)`` array (axes as rows, the paper's segment layout).

    Raises:
        repro.errors.SegmentTooShortError: if fewer than ``length``
            samples remain after the onset.
    """
    from repro.errors import SegmentTooShortError

    recording = ensure_raw_recording(recording)
    if onset < 0:
        raise ShapeError("onset must be non-negative")
    available = recording.shape[0] - onset
    if available < length:
        raise SegmentTooShortError(
            f"need {length} samples after onset {onset}, have {available}"
        )
    return recording[onset : onset + length].T.copy()
