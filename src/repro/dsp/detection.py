"""Vibration onset detection (Section IV).

The paper's rule: divide the accelerometer signal into ten-sample
windows (stride ten); the vibration starts at the first window whose
standard deviation exceeds 250 raw counts, provided the following
windows stay at or above 100.  The start timestamp is the first sample
of that window.

The paper illustrates the rule on the z accelerometer axis, but which
axis carries the energy depends on how the earbud couples to the ear,
so the detector evaluates all three accelerometer axes and takes, per
window, the maximum std across them.  This is equivalent for
well-coupled axes and strictly more robust otherwise.

Detection also runs on the *high-passed* accelerometer (the same 20 Hz
Butterworth the pipeline applies later): walking and running move the
whole head by several m/s^2 below 20 Hz, which would otherwise trigger
the std rule long before the user voices anything and anchor the
segment on body motion instead of the vibration event.  Above 20 Hz
only the mandible vibration remains, so the paper's thresholds keep
their meaning under every activity condition.

There is one implementation of the rule, :class:`OnsetDetector`: it
consumes lanes of time-aligned feeds chunk by chunk and stops filtering
a lane once its onset is final.  A batch of recordings is a fully
pushed stream (:func:`detect_onsets`), one recording is a batch of one
(:func:`detect_onset`), and a live feed is one lane pushed as it
arrives (:class:`repro.stream.StreamingOnsetDetector`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.config import HIGHPASS_ORDER, SAMPLE_RATE_HZ, PreprocessConfig
from repro.dsp.filters import cascade, design_highpass, normalized_sections, zero_state
from repro.errors import OnsetNotFoundError, ShapeError, SignalError
from repro.types import ACCEL_AXES, ensure_raw_recording

#: How :func:`detect_onsets` pushes a stack: the first push covers
#: ``DETECT_FIRST`` samples, later ones ``DETECT_STEP`` each, until every
#: lane is decided.  A push costs a fixed set of numpy calls for the whole
#: stack, about as much as filtering 80 samples of one lane, while a lane
#: keeps filtering until the push that makes its onset final.  Onsets of
#: the seeded 210-sample recordings turn final by sample 130 in nine cases
#: of ten, so one lane mostly needs one push.  Against the whole-block
#: detector this replaced, the stage measured 6% faster for one lane and
#: 20% faster for 64 lanes (2-CPU Xeon, numpy 2, one BLAS thread).
DETECT_FIRST = 130
DETECT_STEP = 30

#: The paper's std rule in raw counts: a window starts the vibration
#: when its std exceeds ``ONSET_STD_START`` and the following windows
#: stay at or above ``ONSET_STD_SUSTAIN``.
ONSET_STD_START = 250.0
ONSET_STD_SUSTAIN = 100.0


def _detection_sos(
    config: PreprocessConfig, sos: np.ndarray | None = None
) -> np.ndarray:
    """The high-pass sections used for detection (design once, reuse)."""
    if sos is not None:
        return sos
    return design_highpass(HIGHPASS_ORDER, config.highpass_cutoff_hz, SAMPLE_RATE_HZ)


def _detection_pad(config: PreprocessConfig) -> int:
    return max(int(round(4.0 * SAMPLE_RATE_HZ / config.highpass_cutoff_hz)), 8)


def window_metrics(axis_major: np.ndarray, window: int) -> np.ndarray:
    """Per-window detection metric of ``(..., 3, n)`` axis-major blocks.

    Returns ``(..., n // window)``: for each stride-``window`` window,
    the maximum over the three accelerometer axes of its std.  Trailing
    samples that do not fill a window are dropped.  The windows are
    copied into one C-contiguous ``(..., 3, frames, window)`` block and
    reduced along its last axis.  numpy picks its summation order by
    memory layout, so this gives every std the order of one contiguous
    framed window, whatever the layout of the caller's array and however
    the signal was chunked.
    """
    frames = axis_major.shape[-1] // window
    blocks = np.ascontiguousarray(axis_major[..., : frames * window])
    blocks = blocks.reshape(*blocks.shape[:-1], frames, window)
    return blocks.std(axis=-1).max(axis=-2)


def first_confirmed(metric: np.ndarray, config: PreprocessConfig) -> np.ndarray:
    """Index of the first window that fires the std rule, along the last axis.

    Window ``i`` fires when ``metric[i]`` is not ``<= ONSET_STD_START``
    (so a NaN metric passes the start test) and the next
    ``onset_sustain_windows`` metrics are all ``>= ONSET_STD_SUSTAIN``
    (so a NaN fails the sustain test).  A window whose sustain run is
    cut off by the end of ``metric`` never fires.  Returns ``-1`` where
    no window fires.
    """
    sustain = config.onset_sustain_windows
    decidable = metric.shape[-1] - sustain
    if decidable <= 0:
        return np.full(metric.shape[:-1], -1)
    fired = ~(metric[..., :decidable] <= ONSET_STD_START)
    # The run of windows i + 1 .. i + sustain confirms window i.
    sustained = metric >= ONSET_STD_SUSTAIN
    for lag in range(1, sustain + 1):
        fired &= sustained[..., lag : lag + decidable]
    return np.where(fired.any(axis=-1), fired.argmax(axis=-1), -1)


def refinement_bounds(
    num_samples: int, coarse_start: int, window: int
) -> tuple[int, int]:
    """The stride-1 search range ``[lo, hi]`` for refinement starts.

    ``hi`` stops depending on the signal length once
    ``num_samples >= coarse_start + 3 * window`` — the condition the
    detector waits for before it finalises an onset, because from that
    point every longer prefix yields the same bounds.
    """
    lo = max(0, coarse_start - window)
    hi = min(num_samples - window, coarse_start + 2 * window)
    return lo, hi


def refine_from_region(
    region: np.ndarray, lo: int, hi: int, window: int
) -> int:
    """Half-rise refinement over ``detection[lo : hi + window]``.

    ``region`` is that slice axis-major, ``(3, hi + window - lo)``; the
    return value is the absolute refined onset.  The paper's windows
    slide by a whole window (ten samples), so where the vibration falls
    relative to window boundaries shifts the segment start by up to ten
    samples (~28 ms at 350 Hz) from trial to trial -- the dominant
    source of intra-user misalignment.  The same std rule is re-applied
    on a stride-1 grid around the triggering window; the stride-1
    windows are copied into one C-contiguous ``(3, hi - lo + 1,
    window)`` block, so each std reduces a contiguous run exactly as
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


class OnsetDetector:
    """The std rule over ``lanes`` time-aligned feeds, chunk by chunk.

    Each :meth:`push` hands every lane its next ``k`` raw accelerometer
    samples.  The detector high-passes them with the pipeline's 20 Hz
    Butterworth through :func:`repro.dsp.filters.cascade`, carrying the
    filter registers across pushes, after settling each lane on its
    first sample's gravity level (without that the filter's start-up
    transient looks like a huge vibration at t = 0).  It then extends
    the window metrics and runs :func:`first_confirmed` once for all
    open lanes.

    A lane's onset becomes *final* once its sustain tail is complete and
    the refinement bounds no longer depend on the length
    (``coarse + 3 * window`` samples): no later sample can change it.
    The lane is then refined, recorded in :attr:`onsets` and
    :attr:`final_at`, and retired, so it is neither filtered nor scanned
    again.  :meth:`finish` applies end-of-signal semantics to the lanes
    still open: a window whose sustain tail is cut off never fires, and
    the refinement range is clamped to the signal length.

    Filtering and the window std are chunking-invariant (the filter
    recursion reads only the current sample and the carried registers;
    every std reduces one contiguous window), and which window fires
    depends only on the metrics, so any chunking of a signal gives
    bitwise the onset of pushing it whole.  Retained history is bounded:
    the detector keeps samples from one window before the first window
    not yet decided on, which trails the newest window by at most the
    sustain run.

    Args:
        config: thresholds; defaults to the paper's values.
        sos: pre-designed detection high-pass sections.
        lanes: number of feeds.
    """

    def __init__(
        self,
        config: PreprocessConfig | None = None,
        sos: np.ndarray | None = None,
        lanes: int = 1,
    ) -> None:
        self.config = config or PreprocessConfig()
        self._sections = normalized_sections(_detection_sos(self.config, sos))
        self._pad = _detection_pad(self.config)
        #: Final onset per lane; ``-1`` while undecided or when none fired.
        self.onsets = np.full(lanes, -1)
        #: Per lane, the shortest prefix that confirms its onset.
        self.final_at = np.full(lanes, -1)
        self.samples_seen = 0
        # State of the open lanes, row-aligned with ``_open``: filter
        # registers (three rows per lane, primed on the first push), the
        # detection samples from ``_base`` on, and the window metrics
        # from window ``_candidate`` (the first one not yet decided) on.
        self._open = np.arange(lanes)
        self._registers: list[list[float]] | None = None
        self._signal = np.empty((lanes, 3, 0))
        self._base = 0
        self._metrics = np.empty((lanes, 0))
        self._candidate = 0

    @property
    def done(self) -> bool:
        """Whether every lane is decided."""
        return self._open.size == 0

    def push(self, accel: np.ndarray) -> None:
        """Consume the next samples of every lane: raw ``(lanes, 3, k)`` counts.

        Rows of lanes already decided are ignored.
        """
        if self.done or accel.shape[-1] == 0:
            return
        if self._open.size < accel.shape[0]:
            accel = accel[self._open]
        filtered = self._filter(accel)
        self._signal = np.concatenate([self._signal, filtered], axis=-1)
        self.samples_seen += accel.shape[-1]
        self._scan(final=False)

    def finish(self) -> None:
        """End of signal: decide every open lane with the clamped rule."""
        if not self.done:
            self._scan(final=True)

    def _filter(self, block: np.ndarray) -> np.ndarray:
        if self._registers is None:
            self._registers = zero_state(self._sections, 3 * block.shape[0])
            # The pad outputs are discarded; only the registers matter.
            cascade(
                self._sections,
                np.repeat(block[..., :1], self._pad, axis=-1),
                self._registers,
            )
        return cascade(self._sections, block, self._registers)

    def _scan(self, final: bool) -> None:
        cfg = self.config
        window = cfg.onset_window
        # Complete the newly full stride-aligned metric windows.
        done = (self._candidate + self._metrics.shape[-1]) * window
        ready = (self.samples_seen - done) // window * window
        if ready:
            start = done - self._base
            fresh = window_metrics(self._signal[..., start : start + ready], window)
            self._metrics = np.concatenate([self._metrics, fresh], axis=-1)
        # Windows before the candidate never fire, so one scan from the
        # shared candidate finds every lane's first firing window.  A lane
        # that fired waits there until its onset is final; any other lane
        # has decided every window whose sustain tail is complete.
        step = max(self._metrics.shape[-1] - cfg.onset_sustain_windows, 0)
        keep = []
        for row, fired in enumerate(first_confirmed(self._metrics, cfg).tolist()):
            coarse = (self._candidate + fired) * window
            if fired >= 0 and (final or coarse + 3 * window <= self.samples_seen):
                self._settle(row, coarse)
            elif not final:
                keep.append(row)
                if fired >= 0:
                    step = min(step, fired)
        self._retire(keep, step)

    def _settle(self, row: int, coarse: int) -> None:
        """Refine and record the onset of open-lane ``row``."""
        window = self.config.onset_window
        lane = self._open[row]
        self.final_at[lane] = (
            coarse + max(1 + self.config.onset_sustain_windows, 3) * window
        )
        lo, hi = refinement_bounds(self.samples_seen, coarse, window)
        region = self._signal[row, :, lo - self._base : hi + window - self._base]
        self.onsets[lane] = (
            refine_from_region(region, lo, hi, window) if hi > lo else coarse
        )

    def _retire(self, keep: list[int], step: int) -> None:
        """Keep the open-lane rows ``keep``; advance the candidate by ``step``."""
        if len(keep) < self._open.size:
            self._open = self._open[keep]
            self._signal = self._signal[keep]
            self._metrics = self._metrics[keep]
            self._registers = [
                self._registers[3 * row + axis] for row in keep for axis in range(3)
            ]
        self._candidate += step
        self._metrics = self._metrics[:, step:]
        # Refinement reads from one window before the candidate on.
        tail = max(self._base, (self._candidate - 1) * self.config.onset_window)
        self._signal = self._signal[..., tail - self._base :]
        self._base = tail


def _not_found(num_samples: int, config: PreprocessConfig) -> OnsetNotFoundError:
    if num_samples < config.onset_window:
        return OnsetNotFoundError("recording shorter than one window")
    return OnsetNotFoundError(
        "no window exceeded "
        f"{ONSET_STD_START} with {config.onset_sustain_windows} "
        f"sustained windows >= {ONSET_STD_SUSTAIN}"
    )


def detect_onsets(
    recordings: Sequence[np.ndarray],
    config: PreprocessConfig | None = None,
    sos: np.ndarray | None = None,
) -> list[int | SignalError]:
    """Each recording's onset, or the error that recording fails with.

    Recordings of one length run as the lanes of one
    :class:`OnsetDetector`, pushed in the :data:`DETECT_FIRST` /
    :data:`DETECT_STEP` schedule until every lane is decided or the
    samples run out.  A recording that is not ``(n, 6)`` gets a
    :class:`~repro.errors.ShapeError`, one without a confirmed onset an
    :class:`~repro.errors.OnsetNotFoundError`.
    """
    config = config or PreprocessConfig()
    sos = _detection_sos(config, sos)
    results: list[int | SignalError] = [0] * len(recordings)
    valid: dict[int, np.ndarray] = {}
    lengths: dict[int, list[int]] = {}
    for index, recording in enumerate(recordings):
        try:
            valid[index] = ensure_raw_recording(recording)
        except ShapeError as exc:
            results[index] = exc
            continue
        lengths.setdefault(valid[index].shape[0], []).append(index)
    for num_samples, members in lengths.items():
        stack = np.stack([valid[index] for index in members])
        accel = stack[:, :, list(ACCEL_AXES)].transpose(0, 2, 1)
        detector = OnsetDetector(config, sos, lanes=len(members))
        start = 0
        for stop in [*range(DETECT_FIRST, num_samples, DETECT_STEP), num_samples]:
            detector.push(accel[..., start:stop])
            start = stop
            if detector.done:
                break
        detector.finish()
        for index, onset in zip(members, detector.onsets.tolist()):
            results[index] = onset if onset >= 0 else _not_found(num_samples, config)
    return results


def detect_onset(
    recording: np.ndarray,
    config: PreprocessConfig | None = None,
    sos: np.ndarray | None = None,
) -> int:
    """Find the start sample of the vibration event.

    The one-recording case of :func:`detect_onsets`.

    Args:
        recording: raw ``(n, 6)`` counts.
        config: thresholds; defaults to the paper's values.
        sos: optional pre-designed detection high-pass sections.

    Returns:
        The sample index of the first value of the triggering window,
        refined to stride-1 precision.

    Raises:
        repro.errors.OnsetNotFoundError: if no window satisfies the rule.
    """
    (onset,) = detect_onsets([recording], config, sos)
    if isinstance(onset, SignalError):
        raise onset
    return onset


def onset_metric(
    recording: np.ndarray,
    window: int = 10,
    config: PreprocessConfig | None = None,
) -> np.ndarray:
    """Per-window detection metric over the whole recording (Fig. 5)."""
    config = config or PreprocessConfig(onset_window=window)
    recording = ensure_raw_recording(recording)
    accel = recording[:, list(ACCEL_AXES)].T[None]
    return window_metrics(OnsetDetector(config)._filter(accel)[0], window)


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
