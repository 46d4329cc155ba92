"""Enrollment, verification and the MandiPass facade."""

import numpy as np
import pytest

from repro.core.engine import InferenceEngine
from repro.core.enrollment import build_template, enroll_user
from repro.core.frontend import make_frontend
from repro.core.verification import verify_presented_vector
from repro.dsp.pipeline import Preprocessor
from repro.errors import (
    EnrollmentError,
    TemplateRevokedError,
    VerificationError,
)
from repro.imu import Recorder
from repro.security.cancelable import CancelableTransform


@pytest.fixture(scope="module")
def enrolled(mandipass_system, population):
    """Enroll person 1 ('alice') on the shared system."""
    recorder = Recorder(seed=77)
    alice = population[1]
    recordings = [recorder.record(alice, trial_index=i) for i in range(5)]
    used = mandipass_system.enroll("alice", recordings)
    assert used >= 3
    return mandipass_system, alice, recorder


class TestEnrollment:
    def test_empty_recordings_rejected(self, trained_model):
        engine = InferenceEngine(trained_model, Preprocessor(), make_frontend("spectral"))
        with pytest.raises(EnrollmentError):
            enroll_user(
                "x", engine, [],
                CancelableTransform(trained_model.config.embedding_dim, seed=0),
            )

    def test_silent_recordings_rejected(self, trained_model):
        engine = InferenceEngine(trained_model, Preprocessor(), make_frontend("spectral"))
        silent = [np.zeros((210, 6))]
        with pytest.raises(EnrollmentError):
            build_template(engine, silent)

    def test_template_dimension(self, trained_model, population):
        recorder = Recorder(seed=3)
        engine = InferenceEngine(trained_model, Preprocessor(), make_frontend("spectral"))
        recs = [recorder.record(population[2], trial_index=i) for i in range(3)]
        template, used = build_template(engine, recs)
        assert template.shape == (trained_model.config.embedding_dim,)
        assert used == 3


class TestVerification:
    def test_genuine_accepted(self, enrolled):
        system, alice, recorder = enrolled
        result = system.verify("alice", recorder.record(alice, trial_index=50))
        assert result.accepted
        assert result.distance < result.threshold

    def test_impostor_rejected(self, enrolled, population):
        system, _, recorder = enrolled
        impostor = population[4]
        result = system.verify("alice", recorder.record(impostor, trial_index=50))
        assert not result.accepted

    def test_silent_probe_rejected_not_raised(self, enrolled):
        system, _, _ = enrolled
        result = system.verify("alice", np.zeros((210, 6)))
        assert not result.accepted
        assert result.distance == 2.0

    def test_unenrolled_user_raises(self, enrolled):
        system, _, recorder = enrolled
        with pytest.raises(VerificationError):
            system.verify("nobody", np.zeros((210, 6)))

    def test_presented_template_matches_itself(self, enrolled):
        system, _, _ = enrolled
        stolen = system.stored_template("alice")
        result = system.verify_presented("alice", stolen)
        assert result.accepted  # replay works before revocation...

    def test_presented_vector_helper(self, rng):
        template = rng.normal(size=32)
        ok = verify_presented_vector("u", template, template, threshold=0.45)
        assert ok.accepted
        bad = verify_presented_vector("u", rng.normal(size=32), template, 0.45)
        assert bad.distance > 0.1


class TestRevocationRenewal:
    def test_revoked_template_unusable(self, trained_model, population):
        from repro.config import MandiPassConfig, SecurityConfig
        from repro import MandiPass

        config = MandiPassConfig(
            extractor=trained_model.config,
            security=SecurityConfig(
                template_dim=trained_model.config.embedding_dim,
                projected_dim=trained_model.config.embedding_dim,
                matrix_seed=3,
            ),
        )
        system = MandiPass(trained_model, config=config)
        recorder = Recorder(seed=5)
        person = population[2]
        recs = [recorder.record(person, trial_index=i) for i in range(4)]
        system.enroll("bob", recs)
        system.revoke("bob")
        with pytest.raises((TemplateRevokedError, VerificationError)):
            system.verify("bob", recorder.record(person, trial_index=9))

    def test_renew_defeats_stolen_template(self, trained_model, population):
        """Section VI: after the Gaussian matrix changes, the stolen
        cancelable template no longer verifies."""
        from repro.config import MandiPassConfig, SecurityConfig
        from repro import MandiPass

        config = MandiPassConfig(
            extractor=trained_model.config,
            security=SecurityConfig(
                template_dim=trained_model.config.embedding_dim,
                projected_dim=trained_model.config.embedding_dim,
                matrix_seed=11,
            ),
        )
        system = MandiPass(trained_model, config=config)
        recorder = Recorder(seed=6)
        person = population[3]
        recs = [recorder.record(person, trial_index=i) for i in range(4)]
        system.enroll("carol", recs)
        stolen = system.stored_template("carol").copy()

        system.renew("carol", recs)
        replay = system.verify_presented("carol", stolen)
        assert not replay.accepted

        # The legitimate user still verifies after renewal.
        genuine = system.verify("carol", recorder.record(person, trial_index=30))
        assert genuine.accepted

    def test_storage_accounting(self, enrolled):
        system, _, _ = enrolled
        model_only = system.storage_nbytes()
        with_template = system.storage_nbytes("alice")
        assert with_template > model_only
        # Paper: total under 6 MB for the full-size model; our small test
        # model just needs to be consistent.
        assert with_template - model_only == system.enclave.template_nbytes("alice")
