"""Identification mode and template adaptation tests."""

import numpy as np
import pytest

from repro import MandiPass, Recorder
from repro.config import MandiPassConfig, SecurityConfig
from repro.errors import ConfigError


def _enrolled_device(trained_model, population):
    """A device with three enrolled users: (device, users, recorder)."""
    config = MandiPassConfig(
        extractor=trained_model.config,
        security=SecurityConfig(
            template_dim=trained_model.config.embedding_dim,
            projected_dim=trained_model.config.embedding_dim,
            matrix_seed=31,
        ),
    )
    device = MandiPass(trained_model, config=config)
    recorder = Recorder(seed=23)
    users = {"ua": population[1], "ub": population[4], "uc": population[6]}
    for name, person in users.items():
        device.enroll(name, [recorder.record(person, trial_index=i) for i in range(5)])
    return device, users, recorder


@pytest.fixture(scope="module")
def multi_user_device(trained_model, population):
    return _enrolled_device(trained_model, population)


class TestIdentify:
    def test_identifies_each_enrolled_user(self, multi_user_device):
        device, users, recorder = multi_user_device
        for name, person in users.items():
            best = device.identify(recorder.record(person, trial_index=77))
            assert best is not None
            assert best.user_id == name
            assert best.accepted

    def test_unknown_person_not_accepted(self, multi_user_device, population):
        device, _, recorder = multi_user_device
        stranger = population[7]
        hits = 0
        for trial in range(4):
            best = device.identify(recorder.record(stranger, trial_index=trial))
            assert best is not None
            hits += int(best.accepted)
        assert hits <= 1

    def test_silent_recording_returns_none(self, multi_user_device):
        device, _, _ = multi_user_device
        assert device.identify(np.zeros((210, 6))) is None

    def test_no_enrolled_users_returns_none(self, trained_model, recording):
        from repro.config import MandiPassConfig, SecurityConfig

        config = MandiPassConfig(
            extractor=trained_model.config,
            security=SecurityConfig(
                template_dim=trained_model.config.embedding_dim,
                projected_dim=trained_model.config.embedding_dim,
            ),
        )
        empty = MandiPass(trained_model, config=config)
        assert empty.identify(recording) is None


class TestAdaptTemplate:
    def test_accepted_probe_updates_template(self, multi_user_device):
        device, users, recorder = multi_user_device
        before = device.stored_template("ua").copy()
        updated = device.adapt_template(
            "ua", recorder.record(users["ua"], trial_index=88)
        )
        assert updated
        after = device.stored_template("ua")
        assert not np.array_equal(before, after)
        # Blending is conservative: the template moves, but not far.
        drift = np.linalg.norm(after - before) / np.linalg.norm(before)
        assert drift < 0.3

    def test_rejected_probe_never_adapts(self, multi_user_device, population):
        device, _, recorder = multi_user_device
        before = device.stored_template("ub").copy()
        updated = device.adapt_template(
            "ub", recorder.record(population[7], trial_index=1)
        )
        assert not updated
        np.testing.assert_array_equal(before, device.stored_template("ub"))

    def test_silent_probe_never_adapts(self, multi_user_device):
        device, _, _ = multi_user_device
        before = device.stored_template("uc").copy()
        assert not device.adapt_template("uc", np.zeros((210, 6)))
        np.testing.assert_array_equal(before, device.stored_template("uc"))

    def test_adaptation_keeps_user_verifiable(self, multi_user_device):
        device, users, recorder = multi_user_device
        for trial in range(90, 95):
            device.adapt_template("ua", recorder.record(users["ua"], trial_index=trial))
        result = device.verify("ua", recorder.record(users["ua"], trial_index=99))
        assert result.accepted

    def test_rejects_bad_rate(self, multi_user_device):
        device, users, recorder = multi_user_device
        with pytest.raises(ConfigError):
            device.adapt_template(
                "ua", recorder.record(users["ua"], trial_index=0), rate=1.5
            )

    def test_nan_burst_probe_cannot_poison_template(self, trained_model, population):
        """A degraded genuine probe adapts like any batch item, or not at all.

        A NaN burst on one gyro axis is a degraded (not refused) probe
        on the batch path.  Adapting with it must neither seal a NaN
        template nor leave one behind that matches every probe.
        """
        device, users, recorder = _enrolled_device(trained_model, population)
        probe = recorder.record(users["ua"], trial_index=88)
        probe[60:80, 4] = np.nan
        (result,) = device.verify_many("ua", [probe])
        assert result.accepted and result.degraded

        before = device.stored_template("ua").copy()
        if device.adapt_template("ua", probe):
            assert np.isfinite(device.stored_template("ua")).all()
        else:
            np.testing.assert_array_equal(before, device.stored_template("ua"))

        probes = [recorder.record(person, trial_index=77) for person in users.values()]
        assert [r.user_id for r in device.identify_many(probes)] == list(users)
        results = device.verify_many("ua", probes)
        assert len(results) == len(probes)
        assert all(np.isfinite(r.distance) for r in results)
