"""The streaming faces of the Section IV DSP primitives.

Both are held to one standard: **bitwise equality with the batch
pipeline on the concatenated signal, for every possible chunking of the
input** — including 1-sample chunks and uneven tails (verified by
``tests/test_stream_equivalence.py`` and ``tests/test_dsp_array_parity.py``).

* :class:`StreamingSOSFilter` runs :func:`repro.dsp.filters.cascade`,
  the scalar kernel behind :func:`repro.dsp.filters.sosfilt`, and keeps
  its per-lane, per-section ``(s1, s2)`` registers across ``push``
  calls.  The kernel's update reads only the current sample and the
  registers, so any chunking of the time axis with carried registers
  equals one whole-signal call, and a fresh (or ``reset``) filter starts
  from the batch function's zero-initial-condition state.

* :class:`StreamingOnsetDetector` is one lane of the one onset
  detector, :class:`repro.dsp.detection.OnsetDetector`, which the batch
  pipeline runs over whole stacks of recordings.

The segment stages after the onset have no streaming twin.  MAD
outlier replacement is median-based, so it has no exact streaming form
anyway; a session hands its captured window and confirmed onset to the
batch preprocessor, which cuts the segment there and runs the one copy
of despike → high-pass → usable-axis gate → Eq. 7.
"""

from __future__ import annotations

import math

import numpy as np

from repro.config import PreprocessConfig
from repro.dsp.detection import OnsetDetector
from repro.dsp.filters import cascade, normalized_sections, zero_state
from repro.errors import ShapeError
from repro.types import ACCEL_AXES, NUM_AXES


class StreamingSOSFilter:
    """Chunked biquad cascade carrying per-section state across pushes.

    The streaming twin of :func:`repro.dsp.filters.sosfilt`: feeding
    any partition of a signal through :meth:`push` yields, concatenated,
    the bitwise-identical output of one whole-signal ``sosfilt`` call —
    including the first-chunk transient, because a fresh filter starts
    from the same zero-initial-condition state the batch function
    documents.

    Args:
        sos: ``(num_sections, 6)`` second-order sections.
        batch_shape: leading shape of each pushed chunk; ``(3,)`` for
            an accelerometer block, ``()`` for one lane.
    """

    def __init__(self, sos: np.ndarray, batch_shape: tuple[int, ...] = ()) -> None:
        self._sections = normalized_sections(sos)
        self._batch_shape = tuple(batch_shape)
        self.reset()

    def reset(self) -> None:
        """Return to the zero-initial-condition state (a fresh filter)."""
        self._state = zero_state(self._sections, math.prod(self._batch_shape))
        self._samples = 0

    @property
    def samples_seen(self) -> int:
        return self._samples

    def push(self, chunk: np.ndarray) -> np.ndarray:
        """Filter one ``(*batch_shape, k)`` chunk; returns the same shape."""
        chunk = np.asarray(chunk, dtype=np.float64)
        if chunk.shape[:-1] != self._batch_shape:
            raise ShapeError(
                f"chunk batch shape {chunk.shape[:-1]} != {self._batch_shape}"
            )
        out = cascade(self._sections, chunk, self._state)
        self._samples += chunk.shape[-1]
        return out


class StreamingOnsetDetector:
    """One live IMU feed through the onset detector.

    Consumes raw ``(k, 6)`` chunks and reports the paper's onset the
    moment it becomes *final*: at that point the returned index is
    bitwise what :func:`repro.dsp.detection.detect_onset` computes on
    any longer prefix of the same stream.  :meth:`finish` applies the
    end-of-signal rule to a finite stream, so pushing a recording and
    finishing equals ``detect_onset`` on it.
    """

    def __init__(
        self,
        config: PreprocessConfig | None = None,
        sos: np.ndarray | None = None,
    ) -> None:
        self._detector = OnsetDetector(config, sos)
        self.config = self._detector.config

    @property
    def samples_seen(self) -> int:
        return self._detector.samples_seen

    @property
    def onset(self) -> int | None:
        """The confirmed onset sample index, or None."""
        onset = int(self._detector.onsets[0])
        return onset if onset >= 0 else None

    @property
    def final_at(self) -> int | None:
        """Shortest prefix length that confirms the latched onset.

        Once :attr:`onset` is set (by ``push``, not ``finish``), batch
        detection on any prefix of at least this many samples finds the
        identical onset.  Independent of how the stream was chunked —
        the value sessions use to cut a partition-invariant
        verification window.
        """
        final_at = int(self._detector.final_at[0])
        return final_at if final_at >= 0 else None

    def push(self, chunk: np.ndarray) -> int | None:
        """Consume one raw ``(k, 6)`` chunk; the onset once confirmed.

        Once an onset is latched, further pushes are no-ops that keep
        returning it — the session layer stops feeding the detector and
        re-arms a fresh one after its cooldown.
        """
        chunk = np.asarray(chunk, dtype=np.float64)
        if chunk.ndim != 2 or chunk.shape[1] != NUM_AXES:
            raise ShapeError(f"chunk must be (k, 6), got {chunk.shape}")
        self._detector.push(chunk[:, list(ACCEL_AXES)].T[None])
        return self.onset

    def finish(self) -> int | None:
        """End-of-stream decision; ``None`` where ``detect_onset`` raises."""
        self._detector.finish()
        return self.onset
