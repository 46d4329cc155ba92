"""Tests for the extended anatomy parameters and the coupling response."""

import dataclasses

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.imu.sensor import _ear_coupling_filter, _peaking_biquad


class TestExtendedAnatomy:
    def test_resonance_parameters_validated(self, population):
        person = population[0]
        with pytest.raises(ConfigError):
            dataclasses.replace(person, ear_resonance_hz=10.0)
        with pytest.raises(ConfigError):
            dataclasses.replace(person, ear_resonance_q=-1.0)
        with pytest.raises(ConfigError):
            dataclasses.replace(person, closure_sharpness=9.0)
        with pytest.raises(ConfigError):
            dataclasses.replace(person, breathiness=5.0)
        with pytest.raises(ConfigError):
            dataclasses.replace(person, mode2_hz=1000.0)
        with pytest.raises(ConfigError):
            dataclasses.replace(person, notch_q=0.0)

    def test_population_spreads_resonances(self):
        from repro.physio import sample_population

        pop = sample_population(30, 5, seed=2)
        centers = [p.ear_resonance_hz for p in pop]
        assert np.std(centers) > 15.0
        modes = [p.mode2_hz for p in pop]
        assert np.std(modes) > 20.0


class TestCouplingResponse:
    RATE = 2800.0

    def test_peaking_biquad_boosts_center(self):
        b, a = _peaking_biquad(100.0, 5.0, 12.0, self.RATE)
        # Evaluate |H| at the centre and far away.
        w_center = np.exp(-2j * np.pi * 100.0 / self.RATE)
        w_far = np.exp(-2j * np.pi * 700.0 / self.RATE)

        def mag(z):
            return abs(
                (b[0] + b[1] * z + b[2] * z**2) / (a[0] + a[1] * z + a[2] * z**2)
            )

        boost_db = 20.0 * np.log10(mag(w_center))
        assert boost_db == pytest.approx(12.0, abs=1.0)
        assert mag(w_far) == pytest.approx(1.0, abs=0.1)

    def test_negative_gain_cuts(self):
        b, a = _peaking_biquad(100.0, 5.0, -15.0, self.RATE)
        z = np.exp(-2j * np.pi * 100.0 / self.RATE)
        mag = abs((b[0] + b[1] * z + b[2] * z**2) / (a[0] + a[1] * z + a[2] * z**2))
        assert 20.0 * np.log10(mag) == pytest.approx(-15.0, abs=1.0)

    def test_coupling_filter_is_person_specific(self, population, rng):
        signal = rng.normal(size=2800)
        out_a = _ear_coupling_filter(signal, population[0], self.RATE)
        out_b = _ear_coupling_filter(signal, population[1], self.RATE)
        assert not np.allclose(out_a, out_b)

    def test_coupling_filter_shapes_spectrum_at_resonance(self, population, rng):
        person = population[1]
        signal = rng.normal(size=28000)
        out = _ear_coupling_filter(signal, person, self.RATE)
        freqs = np.fft.rfftfreq(signal.size, 1.0 / self.RATE)
        in_spec = np.abs(np.fft.rfft(signal)) ** 2
        out_spec = np.abs(np.fft.rfft(out)) ** 2
        near = np.abs(freqs - person.ear_resonance_hz) < 5.0
        far = (freqs > 600) & (freqs < 900)
        gain_near = out_spec[near].sum() / in_spec[near].sum()
        gain_far = out_spec[far].sum() / in_spec[far].sum()
        assert gain_near > 1.5 * gain_far
