"""Butterworth design and filtering tests, cross-validated against scipy."""

import numpy as np
import pytest
from scipy import signal as scipy_signal

from repro.dsp.filters import (
    butterworth_prototype_poles,
    design_highpass,
    frequency_response,
    normalized_sections,
    sosfilt,
    zero_state_response,
)
from repro.errors import ConfigError, ShapeError

FS = 350.0


class TestPrototype:
    def test_poles_on_unit_circle(self):
        poles = butterworth_prototype_poles(4)
        np.testing.assert_allclose(np.abs(poles), 1.0)

    def test_poles_in_left_half_plane(self):
        poles = butterworth_prototype_poles(6)
        assert np.all(poles.real < 0.0)

    def test_poles_conjugate_symmetric(self):
        poles = butterworth_prototype_poles(4)
        for pole in poles:
            assert np.min(np.abs(poles - np.conj(pole))) < 1e-12

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ConfigError):
            butterworth_prototype_poles(0)


class TestDesignVsScipy:
    @pytest.mark.parametrize("order", [2, 4, 6, 8])
    def test_highpass_magnitude_matches_scipy(self, order):
        sos = design_highpass(order, 20.0, FS)
        sos_ref = scipy_signal.butter(order, 20.0, "highpass", fs=FS, output="sos")
        freqs = np.linspace(1.0, FS / 2 - 1, 400)
        ours = np.abs(frequency_response(sos, freqs, FS))
        w = 2 * np.pi * freqs / FS
        _, ref = scipy_signal.sosfreqz(sos_ref, worN=w)
        np.testing.assert_allclose(ours, np.abs(ref), atol=1e-10)

    def test_halfpower_at_cutoff(self):
        sos = design_highpass(4, 20.0, FS)
        mag = np.abs(frequency_response(sos, np.array([20.0]), FS))[0]
        assert mag == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-6)

    def test_rejects_odd_order(self):
        with pytest.raises(ConfigError):
            design_highpass(3, 20.0, FS)

    def test_rejects_cutoff_beyond_nyquist(self):
        with pytest.raises(ConfigError):
            design_highpass(4, 200.0, FS)


class TestSosfilt:
    def test_matches_scipy_filtering(self, rng):
        sos = design_highpass(4, 20.0, FS)
        x = rng.normal(size=300)
        ours = sosfilt(sos, x)
        ref = scipy_signal.sosfilt(sos, x)
        np.testing.assert_allclose(ours, ref, atol=1e-10)

    def test_batched_equals_loop(self, rng):
        sos = design_highpass(4, 20.0, FS)
        x = rng.normal(size=(6, 100))
        batched = sosfilt(sos, x)
        for axis in range(6):
            np.testing.assert_allclose(batched[axis], sosfilt(sos, x[axis]))

    def test_highpass_kills_dc(self):
        out = sosfilt(design_highpass(4, 20.0, FS), np.full(400, 123.0))
        assert np.abs(out[-50:]).max() < 1.0

    def test_highpass_preserves_inband_tone(self):
        t = np.arange(1400) / FS
        tone = np.sin(2 * np.pi * 100.0 * t)
        out = sosfilt(design_highpass(4, 20.0, FS), tone)
        # Steady-state amplitude preserved within 5 %.
        assert np.abs(out[700:]).max() == pytest.approx(1.0, rel=0.05)

    def test_highpass_attenuates_body_motion_band(self):
        t = np.arange(1400) / FS
        sway = np.sin(2 * np.pi * 3.0 * t)
        out = sosfilt(design_highpass(4, 20.0, FS), sway)
        assert np.abs(out[700:]).max() < 0.05

    def test_rejects_bad_sos_shape(self):
        with pytest.raises(ShapeError):
            sosfilt(np.zeros((2, 5)), np.zeros(10))

    def test_input_not_mutated(self, rng):
        sos = design_highpass(2, 20.0, FS)
        x = rng.normal(size=50)
        original = x.copy()
        sosfilt(sos, x)
        np.testing.assert_array_equal(x, original)


class TestZeroInitialConditionContract:
    """``sosfilt`` always starts from rest — the documented contract
    the streaming twin (and every padding caller) relies on."""

    def test_first_output_is_cascaded_b0_times_x0(self, rng):
        # With s1 = s2 = 0 the first output of each section is b0 * x0,
        # so the cascade's first output is (prod b0) * x0 exactly.
        sos = design_highpass(4, 20.0, FS)
        x = rng.normal(size=30)
        sections = normalized_sections(sos)
        expected = x[0]
        for b0, _, _, _, _ in sections:
            expected = b0 * expected
        assert sosfilt(sos, x)[0] == expected

    def test_repeated_calls_are_independent(self, rng):
        # No state leaks between calls: same input, same output.
        sos = design_highpass(4, 20.0, FS)
        x = rng.normal(size=100)
        first = sosfilt(sos, x)
        sosfilt(sos, rng.normal(size=64))  # unrelated traffic
        np.testing.assert_array_equal(sosfilt(sos, x), first)

    def test_split_filtering_differs_without_carried_state(self, rng):
        # Filtering two halves independently is NOT the same as one
        # call — each half restarts from rest.  This is exactly why the
        # streaming twin must carry (s1, s2) across chunks.
        sos = design_highpass(4, 20.0, FS)
        x = rng.normal(size=120)
        whole = sosfilt(sos, x)
        split = np.concatenate([sosfilt(sos, x[:60]), sosfilt(sos, x[60:])])
        assert not np.array_equal(whole, split)

    def test_settling_pad_suppresses_startup_transient(self):
        # The detection path's first-sample padding: a constant input
        # long enough for the high-pass to settle leaves outputs near
        # zero, so real samples see no spurious startup energy.
        sos = design_highpass(4, 20.0, FS)
        pad = max(int(round(4.0 * FS / 20.0)), 8)
        constant = np.full(pad + 50, 123.4)
        out = sosfilt(sos, constant)
        assert abs(out[0]) > 1.0  # raw startup transient is large
        # Settled after the pad: residual ripple is orders of magnitude
        # below the detector's 100-count sustain threshold.
        assert np.all(np.abs(out[pad:]) < 0.01)

    def test_normalized_sections_divide_by_a0_once(self):
        sos = design_highpass(4, 20.0, FS)
        scaled = sos * 3.0  # a0 = 3 everywhere; same transfer function
        plain = normalized_sections(sos)
        rescaled = normalized_sections(scaled)
        for (b0, b1, b2, a1, a2), (c0, c1, c2, d1, d2) in zip(plain, rescaled):
            np.testing.assert_allclose(
                [c0, c1, c2, d1, d2], [b0, b1, b2, a1, a2], rtol=1e-12
            )

    def test_normalized_sections_passthrough_when_a0_is_one(self):
        # a0 == 1 (the design_* output) must not be touched at all —
        # even a divide-by-1.0 could flip the last ulp.
        sos = design_highpass(4, 20.0, FS)
        for row, (b0, b1, b2, a1, a2) in zip(sos, normalized_sections(sos)):
            assert (b0, b1, b2) == (row[0], row[1], row[2])
            assert (a1, a2) == (row[4], row[5])


class TestZeroStateResponse:
    """The segment filter's ``(n, n)`` matrix: ``signal @ response``."""

    @pytest.mark.parametrize("n", [60, 37])
    def test_bitwise_equal_to_filtered_identity(self, n):
        sos = design_highpass(4, 20.0, FS)
        response = zero_state_response(sos, n)
        expected = sosfilt(sos, np.eye(n))
        assert response.shape == (n, n)
        assert response.tobytes() == expected.tobytes()

    def test_read_only_and_causal(self):
        response = zero_state_response(design_highpass(4, 20.0, FS), 60)
        assert not response.flags.writeable
        np.testing.assert_array_equal(np.tril(response, -1), 0.0)

    def test_rejects_empty_length(self):
        with pytest.raises(ShapeError):
            zero_state_response(design_highpass(4, 20.0, FS), 0)
