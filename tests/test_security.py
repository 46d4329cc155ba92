"""Cancelable templates, enclave, and attacker model tests (Section VI)."""

import numpy as np
import pytest

from repro.core.similarity import cosine_distance
from repro.dsp.detection import detect_onsets
from repro.errors import (
    ConfigError,
    EnclaveSealedError,
    OnsetNotFoundError,
    ShapeError,
    TemplateRevokedError,
)
from repro.imu import Recorder
from repro.security import CancelableTransform, SecureEnclave
from repro.security.attacks import (
    ImpersonationAttacker,
    ReplayAttacker,
    ZeroEffortAttacker,
)


class TestCancelableTransform:
    def test_same_matrix_preserves_geometry(self, rng):
        """Random projection approximately preserves cosine distances."""
        transform = CancelableTransform(256, seed=0)
        u = rng.normal(size=256)
        v = u + 0.3 * rng.normal(size=256)
        original = cosine_distance(u, v)
        projected = cosine_distance(transform.apply(u), transform.apply(v))
        assert projected == pytest.approx(original, abs=0.1)

    def test_different_matrices_decorrelate(self, rng):
        """The same vector under two matrices is near-orthogonal: the
        core of the replay defence."""
        t1 = CancelableTransform(256, seed=0)
        t2 = t1.renew()
        v = rng.normal(size=256)
        distance = cosine_distance(t1.apply(v), t2.apply(v))
        assert distance > 0.7

    def test_renew_changes_seed_deterministically(self):
        t1 = CancelableTransform(64, seed=5)
        t2 = t1.renew()
        assert t1.seed != t2.seed
        assert CancelableTransform(64, seed=5).renew().seed == t2.seed

    def test_batch_application(self, rng):
        transform = CancelableTransform(32, seed=1)
        batch = rng.normal(size=(10, 32))
        out = transform.apply(batch)
        assert out.shape == (10, 32)
        np.testing.assert_allclose(out[3], transform.apply(batch[3]))

    def test_output_dim_override(self, rng):
        transform = CancelableTransform(32, output_dim=16, seed=1)
        assert transform.apply(rng.normal(size=32)).shape == (16,)

    def test_matrix_not_writable(self):
        transform = CancelableTransform(8, seed=0)
        with pytest.raises(ValueError):
            transform.matrix[0, 0] = 99.0

    def test_norm_preserved_in_expectation(self, rng):
        transform = CancelableTransform(512, seed=0)
        v = rng.normal(size=512)
        ratio = np.linalg.norm(transform.apply(v)) / np.linalg.norm(v)
        assert 0.8 < ratio < 1.2

    def test_rejects_wrong_dim(self, rng):
        with pytest.raises(ShapeError):
            CancelableTransform(32, seed=0).apply(rng.normal(size=16))

    def test_equality_by_seed(self):
        assert CancelableTransform(8, seed=1) == CancelableTransform(8, seed=1)
        assert CancelableTransform(8, seed=1) != CancelableTransform(8, seed=2)


class TestSecureEnclave:
    def test_seal_unseal_round_trip(self, rng):
        enclave = SecureEnclave()
        template = rng.normal(size=16)
        enclave.seal("alice", template, transform_seed=3)
        record = enclave.unseal("alice")
        np.testing.assert_array_equal(record.template, template)
        assert record.transform_seed == 3

    def test_unknown_user_raises(self):
        with pytest.raises(EnclaveSealedError):
            SecureEnclave().unseal("ghost")

    def test_unauthorized_access_raises_and_logged(self, rng):
        enclave = SecureEnclave()
        enclave.seal("alice", rng.normal(size=4), 0)
        with pytest.raises(EnclaveSealedError):
            enclave.unseal("alice", authorized=False)
        log = enclave.audit_log()
        assert any(not entry.authorized for entry in log)

    def test_revoked_slot_raises(self, rng):
        enclave = SecureEnclave()
        enclave.seal("alice", rng.normal(size=4), 0)
        enclave.revoke("alice")
        with pytest.raises(TemplateRevokedError):
            enclave.unseal("alice")

    def test_revoke_unknown_raises(self):
        with pytest.raises(EnclaveSealedError):
            SecureEnclave().revoke("ghost")

    def test_sealed_template_immutable(self, rng):
        enclave = SecureEnclave()
        enclave.seal("alice", rng.normal(size=4), 0)
        with pytest.raises(ValueError):
            enclave.unseal("alice").template[0] = 1.0

    def test_template_nbytes(self, rng):
        enclave = SecureEnclave()
        enclave.seal("alice", rng.normal(size=512), 0)
        # Paper: a cancelable template consumes ~1.8-2 KB.
        assert enclave.template_nbytes("alice") == 2048

    def test_reseal_replaces(self, rng):
        enclave = SecureEnclave()
        enclave.seal("alice", np.zeros(4), 0)
        enclave.seal("alice", np.ones(4), 1)
        np.testing.assert_array_equal(enclave.unseal("alice").template, np.ones(4))


class TestAttackers:
    def test_zero_effort_has_no_vibration(self, population):
        attacker = ZeroEffortAttacker(Recorder(seed=1))
        forged = attacker.forge_recording(population[0])
        assert forged.shape == (210, 6)
        (onset,) = detect_onsets([forged])
        assert isinstance(onset, OnsetNotFoundError)

    def test_vibration_aware_produces_real_vibration(self, population):
        """The attacker's own 'EMM' is an ordinary recording of them."""
        forged = Recorder(seed=1).record(population[0])
        (onset,) = detect_onsets([forged])
        assert isinstance(onset, int)

    def test_impersonator_copies_voice_not_anatomy(self, population, rng):
        attacker_person, victim = population[0], population[1]
        imp = ImpersonationAttacker(Recorder(seed=1), mimicry_error=0.0)
        mimic = imp.mimic_profile(attacker_person, victim, rng)
        assert mimic.f0_hz == pytest.approx(victim.f0_hz)
        assert mimic.duty_cycle == pytest.approx(victim.duty_cycle)
        # Mandible biomechanics stay the attacker's own.
        assert mimic.mass == attacker_person.mass
        assert mimic.k1 == attacker_person.k1
        assert mimic.c1 == attacker_person.c1

    def test_impersonator_mimicry_error_bounds(self, population, rng):
        imp = ImpersonationAttacker(Recorder(seed=1), mimicry_error=0.05)
        mimic = imp.mimic_profile(population[0], population[1], rng)
        assert abs(np.log(mimic.f0_hz / population[1].f0_hz)) < 0.25

    def test_impersonator_rejects_negative_error(self):
        with pytest.raises(ConfigError):
            ImpersonationAttacker(Recorder(seed=1), mimicry_error=-0.1)

    def test_replay_attacker_stores_and_returns(self, rng):
        replay = ReplayAttacker()
        template = rng.normal(size=8)
        replay.steal("alice", template)
        assert replay.has_stolen("alice")
        np.testing.assert_array_equal(replay.stolen_template("alice"), template)

    def test_replay_without_theft_raises(self):
        with pytest.raises(ConfigError):
            ReplayAttacker().stolen_template("alice")
