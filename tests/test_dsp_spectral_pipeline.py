"""Spectral helpers and the full preprocessing pipeline."""

import numpy as np
import pytest

from repro.config import PreprocessConfig
from repro.dsp.pipeline import Preprocessor
from repro.dsp.spectral import (
    band_energy,
    band_energy_ratio,
    dominant_frequency,
    hann_window,
    periodogram,
    spectral_centroid,
)
from repro.errors import ConfigError, OnsetNotFoundError, ShapeError

FS = 350.0


class TestSpectral:
    def test_hann_endpoints(self):
        win = hann_window(64)
        assert win[0] == pytest.approx(0.0)
        assert win.max() <= 1.0

    def test_periodogram_parseval(self, rng):
        """Total PSD mass times bin width ~ signal variance."""
        x = rng.normal(0.0, 2.0, size=4096)
        freqs, psd = periodogram(x, FS, window=False)
        df = freqs[1] - freqs[0]
        assert np.sum(psd) * df == pytest.approx(np.var(x) + np.mean(x) ** 2, rel=0.05)

    def test_dominant_frequency_of_tone(self):
        t = np.arange(2048) / FS
        tone = np.sin(2 * np.pi * 60.0 * t)
        assert dominant_frequency(tone, FS) == pytest.approx(60.0, abs=1.0)

    def test_band_energy_concentrated_at_tone(self):
        t = np.arange(2048) / FS
        tone = np.sin(2 * np.pi * 60.0 * t)
        inside = band_energy(tone, FS, 55.0, 65.0)
        outside = band_energy(tone, FS, 100.0, 170.0)
        assert inside > 100 * outside

    def test_band_energy_ratio_low_tone(self):
        t = np.arange(2048) / FS
        assert band_energy_ratio(np.sin(2 * np.pi * 5.0 * t), FS, 20.0) > 0.95

    def test_spectral_centroid_between_tones(self):
        t = np.arange(4096) / FS
        x = np.sin(2 * np.pi * 40.0 * t) + np.sin(2 * np.pi * 120.0 * t)
        centroid = spectral_centroid(x, FS)
        assert 60.0 < centroid < 100.0

    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            periodogram(np.array([]), FS)

    def test_rejects_bad_rate(self):
        with pytest.raises(ConfigError):
            periodogram(np.zeros(16), -1.0)

    def test_rejects_bad_band(self):
        with pytest.raises(ConfigError):
            band_energy(np.zeros(16), FS, 50.0, 40.0)


class TestPreprocessor:
    def test_output_shape_and_range(self, recording):
        out = Preprocessor().process(recording)
        assert out.shape == (6, 60)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_silence_rejected(self):
        with pytest.raises(OnsetNotFoundError):
            Preprocessor().process(np.zeros((210, 6)))

    def test_debug_stages_coherent(self, recording):
        debug = Preprocessor().process_debug(recording)
        assert debug.raw_segments.shape == (6, 60)
        assert debug.despiked.shape == (6, 60)
        assert debug.filtered.shape == (6, 60)
        np.testing.assert_array_equal(debug.normalized, Preprocessor().process(recording))

    def test_highpass_removes_gravity_offset(self, recording):
        debug = Preprocessor().process_debug(recording)
        raw_mean = np.abs(debug.raw_segments.mean(axis=1)).max()
        # Steady-state mean of the filtered tail should be far below the
        # gravity-loaded raw offset.
        filtered_mean = np.abs(debug.filtered[:, 30:].mean(axis=1)).max()
        assert filtered_mean < 0.05 * raw_mean

    def test_deterministic(self, recording):
        a = Preprocessor().process(recording)
        b = Preprocessor().process(recording)
        np.testing.assert_array_equal(a, b)

    def test_custom_segment_length(self, recording):
        cfg = PreprocessConfig(segment_length=40)
        assert Preprocessor(cfg).process(recording).shape == (6, 40)

    def test_batch_drops_undetectable(self, recording):
        batch = np.stack([recording, np.zeros_like(recording)])
        out = Preprocessor().process_batch(batch)
        assert out.shape == (1, 6, 60)

    def test_batch_all_silent_returns_empty(self):
        out = Preprocessor().process_batch(np.zeros((2, 210, 6)))
        assert out.shape == (0, 6, 60)

    def test_despiking_changes_spiked_recording(self, recording, rng):
        spiked = recording.copy()
        debug_clean = Preprocessor().process_debug(recording)
        onset = debug_clean.onset
        spiked[onset + 30 : onset + 33, 2] += 20000.0
        debug = Preprocessor().process_debug(spiked)
        # The spikes were replaced somewhere in the az segment.
        assert np.any(debug.raw_segments[2] != debug.despiked[2])
        # And the despiked segment no longer contains the huge values.
        assert np.abs(debug.despiked[2]).max() < np.abs(debug.raw_segments[2]).max()


def _reference_gate(filtered, min_std, min_usable):
    """The quality-gate expression before it dropped ``nan_to_num``."""
    finite = np.isfinite(filtered).all(axis=2)
    axis_std = np.where(finite, np.nan_to_num(filtered.std(axis=2)), 0.0)
    usable = finite & (axis_std > 1e-9)
    sustained = np.where(usable, axis_std, 0.0).max(axis=1) >= min_std
    enough = usable.sum(axis=1) >= min_usable
    return usable, sustained, enough


def _gate_cases(rng):
    """``(8, 6, 60)`` filtered stacks, one gate situation per item."""
    n = 60
    std_overflow = 1e200 * (-1.0) ** np.arange(n)  # finite; std is inf
    # Finite, but the pairwise sum meets +inf and -inf: the std is NaN.
    std_nan = np.where(np.arange(n) % 8 < 4, 1e308, -1e308)
    filtered = rng.normal(0.0, 300.0, size=(8, 6, n))
    filtered[1, 1, 10:20] = np.nan  # NaN burst on one axis
    filtered[2, 3] = 5.0  # dead axis
    filtered[3, 0] = std_overflow
    filtered[4, 5] = std_nan
    filtered[5] = rng.normal(0.0, 1e-3, size=(6, n))  # silence
    filtered[6, :2] = 0.0  # two dead axes and a NaN burst: 3 usable
    filtered[6, 2, 30] = np.nan
    filtered[7] = 0.0  # only the overflowing axis is usable
    filtered[7, 0] = std_overflow
    filtered[7, 1] = std_nan
    return filtered


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestQualityGate:
    """Usable axes, degraded set and refusal class, pinned per policy."""

    @pytest.mark.parametrize("min_usable_axes", [1, 4, 6])
    def test_matches_reference_expression(self, monkeypatch, rng, min_usable_axes):
        from repro.dsp import pipeline as pipeline_module
        from repro.dsp.normalize import min_max_normalize
        from repro.errors import InsufficientAxesError

        filtered = _gate_cases(rng)
        with np.errstate(all="ignore"):
            assert np.isinf(filtered[3, 0].std()) and np.isnan(filtered[4, 5].std())
        monkeypatch.setattr(pipeline_module, "sosfilt", lambda sos, x: filtered.copy())
        pre = Preprocessor()
        recordings = rng.normal(0.0, 100.0, size=(8, 210, 6))
        signals, kept, failures, degraded = pre.process_batch_detailed(
            recordings, min_usable_axes=min_usable_axes, onsets=[0] * 8
        )

        usable, sustained, enough = _reference_gate(
            filtered, pipeline_module.MIN_SEGMENT_STD, min_usable_axes
        )
        keep = sustained & enough
        assert list(kept) == list(np.flatnonzero(keep))
        expected_failures = [
            (i, OnsetNotFoundError if not sustained[i] else InsufficientAxesError)
            for i in np.flatnonzero(~keep)
        ]
        assert [(i, type(e)) for i, e in failures] == expected_failures
        assert degraded == tuple(
            i for i in np.flatnonzero(keep) if not usable[i].all()
        )
        zeroed = np.where(usable[:, :, None], filtered, 0.0)[keep]
        np.testing.assert_array_equal(signals, min_max_normalize(zeroed, axis=-1))
        # The cases cover what they claim: silence refuses, and the inf
        # axis is usable while the NaN-std axis is not.
        assert not sustained[5]
        assert usable[3, 0] and not usable[4, 5]
        assert usable[7].tolist() == [True, False, False, False, False, False]
        if min_usable_axes == 1:
            assert set(kept) == {0, 1, 2, 3, 4, 6, 7}
            assert degraded == (1, 2, 4, 6, 7)
        elif min_usable_axes == 4:
            assert set(kept) == {0, 1, 2, 3, 4}
        else:
            assert set(kept) == {0, 3}


@pytest.fixture(scope="module")
def wearer_recordings(population, recorder):
    """Eight real recordings, one per person, with their detected onsets."""
    recordings = np.stack(
        [recorder.record(person, trial_index=3) for person in population]
    )
    onsets = Preprocessor()._stages(recordings).onsets
    assert len(onsets) == len(recordings)
    return recordings, onsets


def _perturbed(wearer_recordings, count, seed):
    """``count`` seeded variants of the wearers (gain, offset, noise)."""
    recordings, onsets = wearer_recordings
    rng = np.random.default_rng(seed)
    base = np.arange(count) % len(recordings)
    gain = rng.uniform(0.7, 1.3, size=(count, 1, 1))
    offset = rng.normal(0.0, 500.0, size=(count, 1, 6))
    noise = rng.normal(0.0, 5.0, size=(count, *recordings.shape[1:]))
    return recordings[base] * gain + offset + noise, [onsets[i] for i in base]


class TestSegmentFilter:
    """The segment high-pass as one zero-state response matmul."""

    def test_item_bitwise_equal_in_any_stack(self, wearer_recordings):
        pre = Preprocessor()
        target = wearer_recordings[0][1]
        alone = pre.process_debug(target)
        others, hints = _perturbed(wearer_recordings, 63, seed=7)
        for size in (2, 8, 64):
            for position in (0, size // 2, size - 1):
                for target_hint in (None, alone.onset):
                    stack = np.insert(others[: size - 1], position, target, axis=0)
                    # Every other item hinted, so detected and hinted
                    # items share the stack.
                    onsets = [h if i % 2 else None for i, h in enumerate(hints)]
                    onsets = onsets[: size - 1]
                    onsets.insert(position, target_hint)
                    stages = pre._stages(stack, onsets=onsets)
                    assert stages.kept.tolist() == list(range(size))
                    assert stages.onsets[position] == alone.onset
                    assert stages.filtered[position].tobytes() == alone.filtered.tobytes()
                    assert (
                        stages.normalized[position].tobytes()
                        == alone.normalized.tobytes()
                    )

    def test_within_bound_of_recursion(self, wearer_recordings):
        from repro.dsp.filters import sosfilt

        pre = Preprocessor()
        recordings, onsets = _perturbed(wearer_recordings, 320, seed=11)
        stages = pre._stages(recordings, onsets=onsets)
        assert len(stages.filtered) == 320
        reference = sosfilt(pre._sos, stages.despiked)
        # About 1e-15 of the segments' peak (~2e4 counts) in practice.
        np.testing.assert_allclose(stages.filtered, reference, rtol=0, atol=1e-9)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("min_usable_axes", [1, 5])
    def test_faults_gate_like_the_recursion(
        self, monkeypatch, wearer_recordings, min_usable_axes
    ):
        from repro.dsp import filters
        from repro.dsp import pipeline as pipeline_module

        recordings, onsets = wearer_recordings
        faulty = recordings[:7].copy()
        seg = [slice(onset, onset + 60) for onset in onsets[:7]]
        faulty[0, seg[0].start + 20 : seg[0].start + 26, 1] = np.nan  # NaN burst
        faulty[1, seg[1].start + 40, 4] = np.inf  # one inf sample (despiked)
        faulty[2, seg[2], 3] = 0.0  # dead axis
        faulty[3, seg[3], 2] = 4321.0  # stuck-constant axis
        faulty[4, seg[4], :] = 0.0  # silent: every axis dead
        faulty[5, seg[5], 0] = np.nan  # NaN axis plus a dead one
        faulty[5, seg[5], 5] = 0.0
        # Saturated at inf from sample 20 on: the MAD is NaN, so the
        # outlier stage leaves the infs for the filter.
        faulty[6, seg[6].start + 20 : seg[6].stop, 4] = np.inf
        hints = list(onsets[:7])
        pre = Preprocessor()

        def gate(stages_result):
            stages, (_, kept, failures, degraded) = stages_result
            filtered = stages.filtered
            with np.errstate(all="ignore"):
                usable = np.isfinite(filtered).all(axis=2) & (filtered.std(axis=2) > 1e-9)
            return usable, kept.tolist(), [(i, type(e)) for i, e in failures], degraded

        def run():
            return (
                pre._stages(faulty, min_usable_axes, hints),
                pre.process_batch_detailed(faulty, min_usable_axes, hints),
            )

        matmul = run()
        monkeypatch.setattr(
            pipeline_module, "sosfilt", lambda x, response: filters.sosfilt(pre._sos, x)
        )
        recursion = run()
        usable, kept, failures, degraded = gate(matmul)
        want_usable, want_kept, want_failures, want_degraded = gate(recursion)
        np.testing.assert_array_equal(usable, want_usable)
        assert (kept, failures, degraded) == (want_kept, want_failures, want_degraded)
        assert usable.tolist() == [
            [axis != 1 for axis in range(6)],
            [True] * 6,
            [axis != 3 for axis in range(6)],
            [True] * 6,
            [False] * 6,
            [axis not in (0, 5) for axis in range(6)],
            [axis != 4 for axis in range(6)],
        ]
        assert np.isfinite(matmul[0].despiked[1, 4]).all()
        assert np.isinf(matmul[0].despiked[6, 4]).any()
        if min_usable_axes == 1:
            assert kept == [0, 1, 2, 3, 5, 6] and degraded == (0, 2, 5, 6)
        else:
            assert kept == [0, 1, 2, 3, 6] and degraded == (0, 2, 6)
        # The matmul spreads a non-finite sample over its whole axis; the
        # recursion only from that sample on.  Both refuse the axis.
        filtered, reference = matmul[0].filtered, recursion[0].filtered
        for item, axis in ((0, 1), (6, 4)):
            assert np.isnan(filtered[item, axis]).all()
            assert np.isfinite(reference[item, axis, :20]).all()
            assert not np.isfinite(reference[item, axis, 20:]).any()
