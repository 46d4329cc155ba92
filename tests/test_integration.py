"""Cross-module integration tests: the full MandiPass story."""

import numpy as np
import pytest

from repro import MandiPass, Recorder
from repro.config import MandiPassConfig, SecurityConfig
from repro.core.similarity import cosine_distance
from repro.physio import sample_population
from repro.physio.conditions import RecordingCondition
from repro.security.attacks import (
    ImpersonationAttacker,
    ReplayAttacker,
    ZeroEffortAttacker,
)
from repro.types import Activity, EarSide, Mouthful, Tone


@pytest.fixture(scope="module")
def deployed(trained_model, population):
    """A deployed device with three enrolled users."""
    config = MandiPassConfig(
        extractor=trained_model.config,
        security=SecurityConfig(
            template_dim=trained_model.config.embedding_dim,
            projected_dim=trained_model.config.embedding_dim,
            matrix_seed=42,
        ),
    )
    system = MandiPass(trained_model, config=config)
    recorder = Recorder(seed=11)
    users = {"u1": population[1], "u2": population[4], "u3": population[6]}
    for name, person in users.items():
        recordings = [recorder.record(person, trial_index=i) for i in range(6)]
        system.enroll(name, recordings)
    return system, users, recorder


class TestGenuineFlows:
    def test_all_users_verify(self, deployed):
        system, users, recorder = deployed
        for name, person in users.items():
            result = system.verify(name, recorder.record(person, trial_index=200))
            assert result.accepted, f"{name} falsely rejected (d={result.distance:.3f})"

    def test_cross_user_rejection(self, deployed):
        system, users, recorder = deployed
        probe = recorder.record(users["u2"], trial_index=300)
        assert not system.verify("u1", probe).accepted
        assert not system.verify("u3", probe).accepted

    def test_verification_under_conditions(self, deployed):
        """Lollipop / water / tone / orientation probes still verify for
        the enrolled user most of the time (Figs. 12-14)."""
        system, users, recorder = deployed
        person = users["u1"]
        conditions = [
            RecordingCondition(mouthful=Mouthful.LOLLIPOP),
            RecordingCondition(mouthful=Mouthful.WATER),
            RecordingCondition(tone=Tone.HIGH),
            RecordingCondition(tone=Tone.LOW),
            RecordingCondition(orientation_deg=90.0),
        ]
        # The session fixture trains a deliberately small extractor, so
        # assert the invariant that matters at this scale: condition
        # probes stay far below impostor-level distances (~1.0+); the
        # production-scale acceptance rates live in the benchmarks.
        accepted = 0
        for cond in conditions:
            distances = [
                system.verify(
                    "u1", recorder.record(person, cond, trial_index=idx)
                ).distance
                for idx in range(3)
            ]
            median = float(np.median(distances))
            accepted += int(median <= system.config.decision.threshold)
            assert median < 0.95, f"{cond.describe()}: {median:.3f}"
        assert accepted >= 2

    def test_walk_probe_stays_genuine_side(self, deployed):
        system, users, recorder = deployed
        cond = RecordingCondition(activity=Activity.WALK)
        distances = [
            system.verify(
                "u1", recorder.record(users["u1"], cond, trial_index=i)
            ).distance
            for i in range(5)
        ]
        # Far below the impostor level even when a single trial crosses
        # the small fixture model's operating threshold.
        assert float(np.median(distances)) < 0.7


class TestAttackFlows:
    def test_zero_effort_rejected(self, deployed, population):
        system, _, recorder = deployed
        attacker = ZeroEffortAttacker(recorder)
        for idx in range(3):
            forged = attacker.forge_recording(population[7], trial_index=idx)
            assert not system.verify("u1", forged).accepted

    def test_vibration_aware_rejected(self, deployed, population):
        """The attacker voices 'EMM' with their own mandible: an
        ordinary impostor recording."""
        system, _, recorder = deployed
        forged = recorder.record(population[7], trial_index=0)
        assert not system.verify("u1", forged).accepted

    def test_impersonation_mostly_rejected(self, deployed, population):
        """The small fixture model may let a rare mimicry attempt squeak
        by; the rate must stay near the impostor floor (the production
        rate is measured in benchmarks/test_security_assessment.py)."""
        system, users, recorder = deployed
        attacker = ImpersonationAttacker(recorder)
        accepted = 0
        for trial in range(6):
            forged = attacker.forge_recording(
                population[7], users["u1"], trial_index=trial
            )
            accepted += int(system.verify("u1", forged).accepted)
        assert accepted <= 1

    def test_replay_defeated_by_renewal(self, deployed):
        system, users, recorder = deployed
        replay = ReplayAttacker()
        replay.steal("u3", system.stored_template("u3"))
        # Before renewal the stolen vector passes (it IS the template).
        assert system.verify_presented("u3", replay.stolen_template("u3")).accepted
        # After renewal it no longer does.
        recordings = [recorder.record(users["u3"], trial_index=i) for i in range(6)]
        system.renew("u3", recordings)
        assert not system.verify_presented("u3", replay.stolen_template("u3")).accepted
        # But the genuine user still verifies.
        assert system.verify("u3", recorder.record(users["u3"], trial_index=50)).accepted


class TestStability:
    def test_left_ear_verification(self, deployed):
        """Left-ear probes stay on the genuine side for the small
        fixture model; the production-scale VSR (paper: 98.02 %) lives in
        benchmarks/test_device_earside.py."""
        system, users, recorder = deployed
        cond = RecordingCondition(ear_side=EarSide.LEFT)
        distances = [
            system.verify(
                "u1", recorder.record(users["u1"], cond, trial_index=i)
            ).distance
            for i in range(5)
        ]
        assert float(np.median(distances)) < 0.75

    def test_two_week_gap(self, deployed):
        system, users, recorder = deployed
        cond = RecordingCondition(days_elapsed=14.0)
        distances = [
            system.verify(
                "u2", recorder.record(users["u2"], cond, trial_index=i)
            ).distance
            for i in range(3)
        ]
        assert float(np.median(distances)) < 0.7

    def test_distance_reported_consistently(self, deployed):
        system, users, recorder = deployed
        probe = recorder.record(users["u1"], trial_index=400)
        r1 = system.verify("u1", probe)
        r2 = system.verify("u1", probe)
        assert r1.distance == pytest.approx(r2.distance)
