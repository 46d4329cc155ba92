"""Seed-determinism contracts for every stochastic source.

Every attacker in :mod:`repro.security.attacks` and every physiological
generator must be a pure function of its seeds: identical seeds give
bitwise-identical output (reproducible benchmarks, resumable scenario
matrices), and different seeds / trial indices actually decorrelate
(an "attack corpus" of one repeated recording would be a fake).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Recorder, sample_population
from repro.config import SamplingConfig
from repro.errors import ConfigError
from repro.physio.voice import VoiceSource
from repro.security.attacks import (
    ImpersonationAttacker,
    ReplayAttacker,
    ZeroEffortAttacker,
)

# The scenario matrix's long capture: 3.6 s trials, 0.45 s of voicing.
SAMPLING = SamplingConfig(duration_s=3.6, utterance_s=0.45)


@pytest.fixture(scope="module")
def pair():
    people = sample_population(2, 1, seed=33)
    return people[0], people[1]


def _recorders():
    return Recorder(seed=4), Recorder(seed=4)


class TestAttackerDeterminism:
    def test_zero_effort_same_seed_bitwise(self, pair):
        attacker, _ = pair
        rec_a, rec_b = _recorders()
        a = ZeroEffortAttacker(rec_a).forge_recording(attacker, trial_index=3)
        b = ZeroEffortAttacker(rec_b).forge_recording(attacker, trial_index=3)
        np.testing.assert_array_equal(a, b)

    def test_zero_effort_trials_decorrelate(self, pair):
        attacker, _ = pair
        forger = ZeroEffortAttacker(Recorder(seed=4))
        a = forger.forge_recording(attacker, trial_index=0)
        b = forger.forge_recording(attacker, trial_index=1)
        assert not np.array_equal(a, b)

    def test_vibration_aware_same_seed_bitwise(self, pair):
        attacker, _ = pair
        rec_a, rec_b = _recorders()
        # The vibration-aware attacker's corpus is their own recordings.
        a = rec_a.record(attacker, trial_index=2)
        b = rec_b.record(attacker, trial_index=2)
        np.testing.assert_array_equal(a, b)

    def test_vibration_aware_trials_decorrelate(self, pair):
        attacker, _ = pair
        recorder = Recorder(seed=4)
        assert not np.array_equal(
            recorder.record(attacker, trial_index=0),
            recorder.record(attacker, trial_index=1),
        )

    def test_impersonation_same_seed_bitwise(self, pair):
        attacker, victim = pair
        rec_a, rec_b = _recorders()
        a = ImpersonationAttacker(rec_a).forge_recording(
            attacker, victim, trial_index=5
        )
        b = ImpersonationAttacker(rec_b).forge_recording(
            attacker, victim, trial_index=5
        )
        np.testing.assert_array_equal(a, b)

    def test_impersonation_direction_matters(self, pair):
        """A>B and B>A mimicry must not share a random stream."""
        attacker, victim = pair
        forger = ImpersonationAttacker(Recorder(seed=4))
        forward = forger.forge_recording(attacker, victim, trial_index=0)
        reverse = forger.forge_recording(victim, attacker, trial_index=0)
        assert not np.array_equal(forward, reverse)

    def test_mimic_profile_keeps_attacker_anatomy(self, pair):
        attacker, victim = pair
        forger = ImpersonationAttacker(Recorder(seed=4))
        mimic = forger.mimic_profile(
            attacker, victim, np.random.default_rng(0)
        )
        assert mimic.person_id == attacker.person_id
        assert mimic.natural_frequency_hz == attacker.natural_frequency_hz
        assert mimic.harmonic_tilt == victim.harmonic_tilt

    def test_replay_store_is_exact(self, pair):
        attacker, _ = pair
        replay = ReplayAttacker()
        template = np.random.default_rng(9).normal(size=64)
        replay.steal(attacker.person_id, template)
        np.testing.assert_array_equal(
            replay.stolen_template(attacker.person_id), template
        )
        assert replay.has_stolen(attacker.person_id)
        with pytest.raises(ConfigError):
            replay.stolen_template("never-stolen")


class TestPhysioDeterminism:
    def test_voice_source_same_rng_bitwise(self, pair):
        person, _ = pair
        voice = VoiceSource(person)
        a = voice.synthesize(0.6, 2800.0, np.random.default_rng(11))
        b = voice.synthesize(0.6, 2800.0, np.random.default_rng(11))
        np.testing.assert_array_equal(a, b)
        c = voice.synthesize(0.6, 2800.0, np.random.default_rng(12))
        assert not np.array_equal(a, c)

    def test_long_capture_recorder_same_seed_bitwise(self, pair):
        person, _ = pair
        a = Recorder(sampling=SAMPLING, seed=6)
        b = Recorder(sampling=SAMPLING, seed=6)
        np.testing.assert_array_equal(
            a.record(person, trial_index=1), b.record(person, trial_index=1)
        )

    def test_long_capture_recorder_seeds_decorrelate(self, pair):
        person, _ = pair
        a = Recorder(sampling=SAMPLING, seed=6)
        c = Recorder(sampling=SAMPLING, seed=7)
        assert not np.array_equal(
            a.record(person, trial_index=1), c.record(person, trial_index=1)
        )
        assert not np.array_equal(
            a.record(person, trial_index=1), a.record(person, trial_index=2)
        )
