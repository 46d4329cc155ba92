"""Cardiac micro-vibration channel: generator, verifier, fused system.

Long-trial fixtures (3.6 s at 350 Hz) are module-scoped: each capture
synthesises several cardiac cycles through the full sensor model, so
the suite records once and reuses the pools.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import Recorder, sample_population
from repro.config import (
    SAMPLE_RATE_HZ,
    MandiPassConfig,
    SamplingConfig,
    SecurityConfig,
)
from repro.errors import (
    ConfigError,
    EnrollmentError,
    SignalError,
    VerificationError,
)
from repro.physio.heartbeat import (
    REJECTED_DISTANCE,
    CardiacProfile,
    HeartbeatGenerator,
    HeartbeatVerifier,
)

SAMPLING = SamplingConfig(duration_s=3.6, utterance_s=0.45)


def _acquired_probe(verifier, recorder, person, start):
    """First probe from ``start`` whose heartbeat actually acquires.

    Acquisition refuses on ~15% of 3.6 s trials (too few clean beats in
    the unmasked tail), so single-trial tests would be flaky.
    """
    for trial in range(start, start + 12):
        probe = recorder.record(person, trial_index=trial)
        try:
            verifier.beat_features(probe)
        except SignalError:
            continue
        return probe
    raise AssertionError("no trial acquired a heartbeat")


@pytest.fixture(scope="module")
def people():
    return sample_population(3, 1, seed=21)


@pytest.fixture(scope="module")
def hb_recorder():
    return Recorder(sampling=SAMPLING, seed=5, heartbeat=True)


@pytest.fixture(scope="module")
def fitted_verifier(people, hb_recorder):
    verifier = HeartbeatVerifier(rate_hz=SAMPLE_RATE_HZ)
    for person in people:
        verifier.fit(
            person.person_id,
            [hb_recorder.record(person, trial_index=i) for i in range(4)],
        )
    return verifier


class TestCardiacProfile:
    def test_from_person_deterministic(self, people):
        a = CardiacProfile.from_person(people[0])
        b = CardiacProfile.from_person(people[0])
        assert a.rest_rate_bpm == b.rest_rate_bpm
        assert a.s1_freq_hz == b.s1_freq_hz
        np.testing.assert_array_equal(a.coupling, b.coupling)
        np.testing.assert_array_equal(a.gyro_coupling, b.gyro_coupling)

    def test_distinct_people_distinct_hearts(self, people):
        a = CardiacProfile.from_person(people[0])
        b = CardiacProfile.from_person(people[1])
        assert a.s1_freq_hz != b.s1_freq_hz
        assert a.rest_rate_bpm != b.rest_rate_bpm

    def test_coupling_vectors_well_formed(self, people):
        cardiac = CardiacProfile.from_person(people[0])
        assert cardiac.coupling.shape == (3,)
        assert cardiac.gyro_coupling.shape == (3,)
        assert np.isfinite(cardiac.coupling).all()
        assert np.linalg.norm(cardiac.coupling) > 0.0

    def test_rest_rate_in_physiological_band(self, people):
        for person in people:
            cardiac = CardiacProfile.from_person(person)
            assert 54.0 <= cardiac.rest_rate_bpm <= 86.0

    def test_rejects_out_of_range_rate(self, people):
        cardiac = CardiacProfile.from_person(people[0])
        with pytest.raises(ConfigError):
            dataclasses.replace(cardiac, rest_rate_bpm=300.0)


class TestHeartbeatGenerator:
    def test_beat_kernel_unit_peak(self, people):
        gen = HeartbeatGenerator()
        kernel = gen.beat_kernel(CardiacProfile.from_person(people[0]), 350.0)
        assert np.max(np.abs(kernel)) == pytest.approx(1.0)

    def test_path_gain_attenuates(self):
        assert 0.0 < HeartbeatGenerator().path_gain() < 1.0

    def test_synthesize_shape_and_units(self, people):
        gen = HeartbeatGenerator()
        out = gen.synthesize(
            people[0], None, 1024, 350.0, np.random.default_rng(0)
        )
        assert out.shape == (1024, 6)
        # Micro-vibration: well under 1 m/s^2 at the ear.
        assert 0.0 < np.abs(out[:, :3]).max() < 0.5

    def test_counts_scale_by_device(self, people, hb_recorder):
        gen = HeartbeatGenerator()
        phys = gen.synthesize(
            people[0], None, 512, 350.0, np.random.default_rng(3)
        )
        counts = gen.counts(
            people[0], None, 512, 350.0, hb_recorder.device,
            np.random.default_rng(3),
        )
        np.testing.assert_allclose(
            counts[:, :3], phys[:, :3] * hb_recorder.device.accel_sensitivity
        )

    def test_rejects_bad_args(self, people):
        with pytest.raises(ConfigError):
            HeartbeatGenerator(heart_to_ear_m=0.0)
        with pytest.raises(ConfigError):
            HeartbeatGenerator().synthesize(
                people[0], None, 0, 350.0, np.random.default_rng(0)
            )


class TestHeartbeatVerifier:
    def test_genuine_closer_than_impostor(
        self, people, hb_recorder, fitted_verifier
    ):
        genuine, impostor = [], []
        for person in people:
            for trial in range(3):
                probe = hb_recorder.record(person, trial_index=50 + trial)
                try:
                    features = fitted_verifier.beat_features(probe)
                except SignalError:
                    continue
                for other in people:
                    d = fitted_verifier.score_features(
                        other.person_id, features
                    )
                    (genuine if other is person else impostor).append(d)
        assert genuine and impostor
        assert np.mean(genuine) < np.mean(impostor) - 0.1

    def test_verify_accepts_genuine(self, people, hb_recorder, fitted_verifier):
        accepted = 0
        for trial in range(3):
            probe = hb_recorder.record(people[0], trial_index=70 + trial)
            result = fitted_verifier.verify(people[0].person_id, probe)
            accepted += result.accepted
        assert accepted >= 1

    def test_verify_refuses_heartbeat_free_signal(self, people, fitted_verifier):
        silent = np.zeros((SAMPLING.num_samples, 6))
        result = fitted_verifier.verify(people[0].person_id, silent)
        assert result.exit_stage == "refused"
        assert not result.accepted
        assert result.distance == REJECTED_DISTANCE

    def test_score_features_matches_score(
        self, people, hb_recorder, fitted_verifier
    ):
        probe = _acquired_probe(fitted_verifier, hb_recorder, people[0], 90)
        direct = fitted_verifier.score(people[0].person_id, probe)
        via_features = fitted_verifier.score_features(
            people[0].person_id, fitted_verifier.beat_features(probe)
        )
        assert direct == via_features

    def test_unknown_user_raises(self, fitted_verifier, people, hb_recorder):
        probe = hb_recorder.record(people[0], trial_index=91)
        with pytest.raises(VerificationError):
            fitted_verifier.verify("nobody", probe)

    def test_drop_user_forgets_template(self, people, hb_recorder):
        verifier = HeartbeatVerifier(rate_hz=SAMPLE_RATE_HZ)
        verifier.fit(
            people[0].person_id,
            [hb_recorder.record(people[0], trial_index=i) for i in range(3)],
        )
        assert verifier.has_user(people[0].person_id)
        verifier.drop_user(people[0].person_id)
        assert not verifier.has_user(people[0].person_id)

    def test_enrollment_without_heartbeat_raises(self, people):
        verifier = HeartbeatVerifier(rate_hz=SAMPLE_RATE_HZ)
        silent = [np.zeros((SAMPLING.num_samples, 6)) for _ in range(3)]
        with pytest.raises(EnrollmentError):
            verifier.fit(people[0].person_id, silent)

    def test_z_scoring_mode(self, people, hb_recorder):
        verifier = HeartbeatVerifier(rate_hz=SAMPLE_RATE_HZ, scoring="z")
        verifier.fit(
            people[0].person_id,
            [hb_recorder.record(people[0], trial_index=i) for i in range(4)],
        )
        probe = _acquired_probe(verifier, hb_recorder, people[0], 95)
        d = verifier.score(people[0].person_id, probe)
        assert 0.0 <= d < 2.0


class TestRecorderHeartbeatChannel:
    def test_disabled_recorder_is_bitwise_unchanged(self, people):
        """The heartbeat knob must not perturb historical recordings."""
        plain = Recorder(sampling=SAMPLING, seed=5)
        off = Recorder(sampling=SAMPLING, seed=5, heartbeat=False)
        np.testing.assert_array_equal(
            plain.record(people[0], trial_index=0),
            off.record(people[0], trial_index=0),
        )

    def test_enabled_recorder_differs_but_is_deterministic(self, people):
        a = Recorder(sampling=SAMPLING, seed=5, heartbeat=True)
        b = Recorder(sampling=SAMPLING, seed=5, heartbeat=True)
        plain = Recorder(sampling=SAMPLING, seed=5)
        first = a.record(people[0], trial_index=0)
        np.testing.assert_array_equal(first, b.record(people[0], trial_index=0))
        assert not np.array_equal(first, plain.record(people[0], trial_index=0))

    def test_session_carries_heartbeat_per_trial(self, people):
        on = Recorder(sampling=SAMPLING, seed=5, heartbeat=True)
        off = Recorder(sampling=SAMPLING, seed=5)
        with_hb = on.record_session(people[0], num_trials=2)
        without = off.record_session(people[0], num_trials=2)
        assert with_hb.shape == without.shape
        assert not np.array_equal(with_hb[0], without[0])
        assert not np.array_equal(with_hb[1], without[1])


class TestFusedSystem:
    """The IMU decision of a plain ``MandiPass`` fused with the cardiac
    channel by the scenario matrix's score, the one fused-decision rule
    (refused modality = absent, DESIGN.md §4l)."""

    @pytest.fixture(scope="class")
    def imu_system(self, trained_model, people, hb_recorder):
        from repro.core.system import MandiPass

        config = MandiPassConfig(
            sampling=SAMPLING,
            extractor=trained_model.config,
            security=SecurityConfig(
                template_dim=trained_model.config.embedding_dim,
                projected_dim=trained_model.config.embedding_dim,
                matrix_seed=7,
            ),
        )
        system = MandiPass(trained_model, config=config)
        for person in people:
            recordings = [
                hb_recorder.record(person, trial_index=i) for i in range(4)
            ]
            system.enroll(person.person_id, recordings)
        return system

    @staticmethod
    def _fused(system, verifier, user, probe):
        from repro.eval.scenarios import _fused_score

        imu = system.verify(user, probe)
        heart = verifier.verify(user, probe)
        score = _fused_score(
            imu.distance,
            imu.exit_stage == "refused",
            heart.distance,
            heart.exit_stage == "refused",
            imu.threshold,
            heart.threshold,
            (1.0, 1.0),
        )
        return imu, heart, score

    def test_fused_verification_round_trip(
        self, imu_system, fitted_verifier, people, hb_recorder
    ):
        user = people[0].person_id
        probe = _acquired_probe(fitted_verifier, hb_recorder, people[0], 61)
        _, heart, score = self._fused(imu_system, fitted_verifier, user, probe)
        assert heart.exit_stage == "full"
        assert score <= 1.0
        impostor_probe = hb_recorder.record(people[1], trial_index=61)
        _, _, impostor = self._fused(
            imu_system, fitted_verifier, user, impostor_probe
        )
        assert impostor > 1.0

    def test_refused_heartbeat_falls_back_to_imu(
        self, imu_system, fitted_verifier, people, hb_recorder
    ):
        """A probe with cardiac signal destroyed is scored by the IMU
        alone: the heartbeat refusal is absent, not impostor evidence."""
        user = people[0].person_id
        probe = hb_recorder.record(people[0], trial_index=62).copy()
        # Crush the quiet tail the cardiac verifier needs; the 'EMM'
        # burst near the onset stays intact for the IMU pipeline.
        probe[SAMPLING.num_samples // 2 :] = 0.0
        imu, heart, score = self._fused(imu_system, fitted_verifier, user, probe)
        assert heart.exit_stage == "refused"
        assert imu.exit_stage == "full"
        assert score == imu.distance / imu.threshold
        assert (score <= 1.0) == imu.accepted
