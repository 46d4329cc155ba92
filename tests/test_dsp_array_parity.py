"""Bitwise parity of the scalar biquad kernel and the array-form onset rule.

The reference implementations below are frozen copies of the numpy
loops the kernel and the array-form rule replaced: a per-sample loop
vectorised over the lanes for ``sosfilt`` (and its streaming twin), and
a per-item window scan plus a per-start ``std`` loop for onset
detection.  Every comparison is exact, on the raw bits of the float64
outputs, so a changed rounding, a flipped zero sign or a different NaN
shows up.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import PreprocessConfig
from repro.dsp import pipeline as pipeline_module
from repro.dsp.detection import (
    _detection_signal,
    coarse_onsets,
    detect_onset_from_signal,
    detection_signals_batch,
    first_confirmed,
    refine_from_region,
    refinement_bounds,
    segment_after_onset,
    window_metrics,
)
from repro.dsp.filters import design_highpass, normalized_sections, sosfilt
from repro.dsp.pipeline import Preprocessor
from repro.errors import OnsetNotFoundError
from repro.stream import StreamingOnsetDetector, StreamingSOSFilter
from repro.types import ACCEL_AXES

FS = 350.0


# -- frozen references ---------------------------------------------------------


def loop_filter(sections, signal, s1=None, s2=None):
    """The per-sample numpy loop; returns the output and the registers."""
    out = np.array(signal, dtype=np.float64)
    batch_shape = out.shape[:-1]
    s1 = [np.zeros(batch_shape) for _ in sections] if s1 is None else s1
    s2 = [np.zeros(batch_shape) for _ in sections] if s2 is None else s2
    with np.errstate(invalid="ignore", over="ignore"):
        for j, (b0, b1, b2, a1, a2) in enumerate(sections):
            r1, r2 = s1[j], s2[j]
            for i in range(out.shape[-1]):
                x = out[..., i]
                y = b0 * x + r1
                r1 = b1 * x - a1 * y + r2
                r2 = b2 * x - a2 * y
                out[..., i] = y
            s1[j], s2[j] = r1, r2
    return out, s1, s2


def loop_metric(detection, window):
    """Per-axis framed window std, then the max across axes."""
    stds = []
    for axis in range(3):
        signal = detection[:, axis]
        frames = signal.size // window
        idx = np.arange(window)[None, :] + window * np.arange(frames)[:, None]
        stds.append(signal[idx].std(axis=1))
    if stds[0].size == 0:
        return np.empty(0)
    return np.max(np.stack(stds, axis=0), axis=0)


def loop_first(metric, config):
    """The candidate-by-candidate std-rule scan."""
    sustain = config.onset_sustain_windows
    for idx in range(metric.size):
        if metric[idx] <= config.onset_std_start:
            continue
        tail = metric[idx + 1 : idx + 1 + sustain]
        if tail.size < sustain:
            continue
        if np.all(tail >= config.onset_std_sustain):
            return idx
    return -1


def loop_refine(region, lo, hi, window):
    """Stride-1 refinement over a ``(len, 3)`` time-contiguous region."""
    rolling = np.empty(hi - lo + 1)
    for offset, start in enumerate(range(lo, hi + 1)):
        chunk = region[start - lo : start - lo + window]
        rolling[offset] = chunk.std(axis=0).max()
    half = 0.5 * float(rolling.max())
    return lo + int(np.argmax(rolling >= half))


def loop_onset(detection, config):
    """The whole per-item rule; ``None`` where no onset is found."""
    window = config.onset_window
    metric = loop_metric(detection, window)
    idx = loop_first(metric, config) if metric.size else -1
    if idx < 0:
        return None
    coarse = idx * window
    lo, hi = refinement_bounds(detection.shape[0], coarse, window)
    if hi <= lo:
        return coarse
    return loop_refine(detection[lo : hi + window], lo, hi, window)


def assert_bitwise(actual, expected):
    actual = np.ascontiguousarray(actual, dtype=np.float64)
    expected = np.ascontiguousarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape
    assert np.array_equal(actual.view(np.uint64), expected.view(np.uint64))


# -- the kernel ----------------------------------------------------------------


class TestKernelParity:
    @pytest.mark.parametrize("order", [2, 4, 6, 8])
    @pytest.mark.parametrize(
        "shape", [(490,), (3, 490), (64, 3, 280), (64, 6, 60)]
    )
    def test_matches_numpy_loop(self, order, shape):
        rng = np.random.default_rng(order * 100 + len(shape))
        sos = design_highpass(order, 20.0, FS)
        signal = rng.normal(0.0, 300.0, size=shape) + 1000.0
        expected, _, _ = loop_filter(normalized_sections(sos), signal)
        assert_bitwise(sosfilt(sos, signal), expected)

    def test_rescaled_sections(self):
        rng = np.random.default_rng(1)
        sos = design_highpass(4, 20.0, FS) * 3.0
        signal = rng.normal(size=(3, 200))
        expected, _, _ = loop_filter(normalized_sections(sos), signal)
        assert_bitwise(sosfilt(sos, signal), expected)

    def test_transposed_views(self):
        # detection_signals_batch filters (B, n + pad, 3) as its
        # (B, 3, n + pad) transpose: a non-contiguous view.
        rng = np.random.default_rng(2)
        sos = design_highpass(4, 20.0, FS)
        block = rng.normal(0.0, 500.0, size=(16, 300, 3))
        view = block.transpose(0, 2, 1)
        assert not view.flags.c_contiguous
        expected, _, _ = loop_filter(normalized_sections(sos), view)
        assert_bitwise(sosfilt(sos, view), expected)
        strided = rng.normal(size=(6, 400))[:, ::2]
        expected, _, _ = loop_filter(normalized_sections(sos), strided)
        assert_bitwise(sosfilt(sos, strided), expected)

    def test_nan_and_inf_lanes(self):
        rng = np.random.default_rng(3)
        sos = design_highpass(4, 20.0, FS)
        signal = rng.normal(0.0, 100.0, size=(6, 120))
        signal[1, 40:45] = np.nan
        signal[2, 10] = np.inf
        signal[3, 70] = -np.inf
        signal[4] = np.nan
        signal[5, 0] = -0.0
        expected, _, _ = loop_filter(normalized_sections(sos), signal)
        assert_bitwise(sosfilt(sos, signal), expected)

    @pytest.mark.parametrize("shape", [(0,), (3, 0), (4, 3, 0), (0, 5), (0, 3, 7)])
    def test_empty_signals(self, shape):
        sos = design_highpass(4, 20.0, FS)
        out = sosfilt(sos, np.zeros(shape))
        assert out.shape == shape
        assert out.dtype == np.float64

    @pytest.mark.parametrize("seed", range(6))
    def test_random_chunkings_with_carried_state(self, seed):
        rng = np.random.default_rng(seed)
        order = int(rng.choice([2, 4, 6, 8]))
        sos = design_highpass(order, 20.0, FS)
        sections = normalized_sections(sos)
        batch_shape = [(), (3,), (2, 3)][seed % 3]
        signal = rng.normal(0.0, 200.0, size=batch_shape + (int(rng.integers(1, 300)),))
        signal[..., int(rng.integers(signal.shape[-1]))] = np.nan
        stream = StreamingSOSFilter(sos, batch_shape=batch_shape)
        s1 = s2 = None
        pos = 0
        while pos < signal.shape[-1]:
            take = int(rng.integers(0, 40))  # zero-length chunks included
            chunk = signal[..., pos : pos + take]
            expected, s1, s2 = loop_filter(sections, chunk, s1, s2)
            assert_bitwise(stream.push(chunk), expected)
            pos += take
        assert stream.samples_seen == signal.shape[-1]
        whole, _, _ = loop_filter(sections, signal)
        fresh = StreamingSOSFilter(sos, batch_shape=batch_shape)
        assert_bitwise(fresh.push(signal), whole)

    def test_empty_stream_chunk_keeps_state(self):
        sos = design_highpass(4, 20.0, FS)
        rng = np.random.default_rng(9)
        signal = rng.normal(size=(3, 50))
        stream = StreamingSOSFilter(sos, batch_shape=(3,))
        first = stream.push(signal[:, :20])
        empty = stream.push(signal[:, 20:20])
        assert empty.shape == (3, 0)
        rest = stream.push(signal[:, 20:])
        assert_bitwise(np.concatenate([first, rest], axis=-1), sosfilt(sos, signal))


# -- the onset rule ------------------------------------------------------------


def _recordings(population, recorder):
    """Seeded clean, silent, dead-axis, NaN-burst and short recordings."""
    rng = np.random.default_rng(11)
    clean = [
        recorder.record(population[i % len(population)], trial_index=300 + i)
        for i in range(8)
    ]
    n = clean[0].shape[0]
    silent = [rng.normal(0.0, 8.0, size=(n, 6)) for _ in range(3)]
    dead = []
    for i in range(3):
        rec = clean[i].copy()
        rec[:, list(ACCEL_AXES)[: i + 1]] = 0.0
        dead.append(rec)
    burst = []
    for i in range(3):
        rec = clean[3 + i].copy()
        start = int(rng.integers(0, n - 20))
        rec[start : start + 15, ACCEL_AXES[i]] = np.nan
        burst.append(rec)
    glitch = rng.normal(0.0, 8.0, size=(n, 6))
    glitch[rng.integers(n, size=4), rng.integers(6, size=4)] = 3000.0
    return clean + silent + dead + burst + [glitch]


class TestOnsetParity:
    def test_window_metrics_match_framed_loop(self, population, recorder):
        config = PreprocessConfig()
        for recording in _recordings(population, recorder):
            detection = _detection_signal(recording, config)
            assert_bitwise(
                window_metrics(detection.T, config.onset_window),
                loop_metric(detection, config.onset_window),
            )

    @pytest.mark.parametrize("sustain", [0, 1, 3, 5])
    def test_first_confirmed_matches_scan(self, sustain):
        rng = np.random.default_rng(sustain)
        config = PreprocessConfig(onset_sustain_windows=sustain)
        metrics = rng.choice([10.0, 150.0, 300.0, np.nan], size=(400, 12))
        metrics[::7] = rng.uniform(0.0, 400.0, size=metrics[::7].shape)
        expected = [loop_first(row, config) for row in metrics]
        assert list(first_confirmed(metrics, config)) == expected
        for row, want in zip(metrics[:40], expected):
            assert int(first_confirmed(row, config)) == want
        for width in range(sustain + 2):
            short = metrics[:, :width]
            assert list(first_confirmed(short, config)) == [
                loop_first(row, config) for row in short
            ]

    def test_refinement_matches_loop(self):
        rng = np.random.default_rng(5)
        window = 10
        for _ in range(50):
            n = int(rng.integers(40, 120))
            detection = rng.normal(0.0, 100.0, size=(3, n)).T  # time-contiguous
            detection[int(rng.integers(n)) :] *= 20.0
            if rng.random() < 0.2:
                detection[int(rng.integers(n)), int(rng.integers(3))] = np.nan
            coarse = int(rng.integers(0, n - window)) // window * window
            lo, hi = refinement_bounds(n, coarse, window)
            if hi <= lo:
                continue
            region = detection[lo : hi + window]
            assert refine_from_region(region.T, lo, hi, window) == loop_refine(
                region, lo, hi, window
            )

    def test_rule_ignores_memory_layout(self, population, recorder):
        # The batch path hands the rule time-contiguous columns; a
        # caller's C-ordered (n, 3) copy must give the same bits.
        config = PreprocessConfig()
        window = config.onset_window
        for recording in _recordings(population, recorder):
            detection = _detection_signal(recording, config)
            c_order = np.ascontiguousarray(detection)
            assert_bitwise(
                window_metrics(c_order.T, window), window_metrics(detection.T, window)
            )
            n = detection.shape[0]
            for coarse in range(0, n - 3 * window, 7 * window):
                lo, hi = refinement_bounds(n, coarse, window)
                assert refine_from_region(
                    c_order[lo : hi + window].T, lo, hi, window
                ) == refine_from_region(detection[lo : hi + window].T, lo, hi, window)

    def test_single_and_batch_onsets_match_loop(self, population, recorder):
        config = PreprocessConfig()
        recordings = _recordings(population, recorder)
        detections = detection_signals_batch(np.stack(recordings), config)
        coarse = coarse_onsets(detections, config)
        for idx, recording in enumerate(recordings):
            expected = loop_onset(detections[idx], config)
            single = _detection_signal(recording, config)
            for got in (
                lambda: detect_onset_from_signal(single, config),
                lambda: detect_onset_from_signal(
                    detections[idx], config, coarse_start=int(coarse[idx])
                ),
            ):
                if expected is None:
                    with pytest.raises(OnsetNotFoundError):
                        got()
                else:
                    assert got() == expected
        kinds = [loop_onset(d, config) is not None for d in detections]
        assert any(kinds) and not all(kinds)

    def test_pipeline_matches_loop(self, population, recorder, monkeypatch):
        config = PreprocessConfig()
        recordings = _recordings(population, recorder)
        cut = []

        def record_onset(recording, onset, length):
            cut.append(onset)
            return segment_after_onset(recording, onset, length)

        monkeypatch.setattr(pipeline_module, "segment_after_onset", record_onset)
        Preprocessor(config).process_batch_detailed(recordings)
        detections = detection_signals_batch(np.stack(recordings), config)
        expected = [loop_onset(d, config) for d in detections]
        assert cut == [onset for onset in expected if onset is not None]

    def test_too_short_recordings(self):
        config = PreprocessConfig()
        rng = np.random.default_rng(6)
        short = rng.normal(0.0, 500.0, size=(3, 8, 6))
        detections = detection_signals_batch(short, config)
        assert list(coarse_onsets(detections, config)) == [-1, -1, -1]
        with pytest.raises(OnsetNotFoundError, match="shorter than one window"):
            detect_onset_from_signal(detections[0], config)

    def test_streaming_detector_matches_loop(self, population, recorder):
        config = PreprocessConfig()
        rng = np.random.default_rng(7)
        for recording in _recordings(population, recorder):
            expected = loop_onset(_detection_signal(recording, config), config)
            detector = StreamingOnsetDetector(config)
            onset, pos = None, 0
            while pos < recording.shape[0] and onset is None:
                take = int(rng.integers(1, 60))
                onset = detector.push(recording[pos : pos + take])
                pos += take
            if onset is None:
                onset = detector.finish()
            assert onset == expected
