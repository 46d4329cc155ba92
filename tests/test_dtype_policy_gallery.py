"""Float32 inference parity and gallery identification on the facade.

The compute-dtype policy promises: training stays float64, float32 is
an inference-only fast path whose embedding drift is bounded and whose
accept/reject decisions match float64 on the synthetic population.  The
1:N gallery promises: identification reproduces the per-user identify
loop user-for-user and distance-for-distance, batched or not, zero
vectors included.
"""

import numpy as np
import pytest

from repro import MandiPass, Recorder
from repro.config import InferenceConfig, MandiPassConfig, SecurityConfig
from repro.core.engine import InferenceEngine
from repro.core.extractor import FrozenExtractor
from repro.core.gallery import ShardedGallery
from repro.core.similarity import cosine_distance
from repro.errors import ConfigError
from repro.nn import BatchNorm2d, Conv2d
from repro.security.cancelable import CancelableTransform


def _device(trained_model, dtype, seed=11):
    config = MandiPassConfig(
        extractor=trained_model.config,
        security=SecurityConfig(
            template_dim=trained_model.config.embedding_dim,
            projected_dim=trained_model.config.embedding_dim,
            matrix_seed=seed,
        ),
        inference=InferenceConfig(compute_dtype=dtype),
    )
    return MandiPass(trained_model, config=config)


@pytest.fixture(scope="module")
def probe_queue(population, recorder):
    """Genuine, impostor and dead probes — a realistic verify queue."""
    queue = [np.zeros((210, 6))]
    for trial in range(60, 66):
        queue.append(recorder.record(population[1], trial_index=trial))
    for person in (2, 3, 5, 7):
        queue.append(recorder.record(population[person], trial_index=9))
    return queue


class TestDtypePolicy:
    def test_config_rejects_unknown_dtype(self):
        with pytest.raises(ConfigError):
            InferenceConfig(compute_dtype="float16")
        with pytest.raises(ConfigError):
            InferenceEngine(model=None, compute_dtype="int8")

    def test_float32_embedding_drift_bounded(self, trained_model, hired_dataset):
        features = hired_dataset.features[:16]
        emb64 = InferenceEngine(trained_model, compute_dtype="float64").embed_features(
            features
        )
        emb32 = InferenceEngine(trained_model, compute_dtype="float32").embed_features(
            features
        )
        # Embeddings live in (-0.5, 0.5) after centring; float32 keeps
        # them within a few 1e-6 of the float64 forward.
        assert np.max(np.abs(emb64 - emb32)) < 1e-4
        # Both come back float64 after centring (decisions stay float64).
        assert emb64.dtype == emb32.dtype == np.float64

    def test_decision_parity_on_population(
        self, trained_model, population, recorder, probe_queue
    ):
        enrollment = [recorder.record(population[1], trial_index=i) for i in range(5)]
        dev64 = _device(trained_model, "float64")
        dev32 = _device(trained_model, "float32")
        dev64.enroll("parity", enrollment)
        dev32.enroll("parity", enrollment)
        res64 = dev64.verify_many("parity", probe_queue)
        res32 = dev32.verify_many("parity", probe_queue)
        assert [r.accepted for r in res64] == [r.accepted for r in res32]
        for a, b in zip(res64, res32):
            assert a.distance == pytest.approx(b.distance, abs=1e-4)
        # The queue genuinely mixes accepts and rejects.
        outcomes = {r.accepted for r in res64}
        assert outcomes == {True, False}

    def test_eval_forward_follows_input_dtype(self, trained_model, hired_dataset):
        # The dtype policy lives in the frozen serving forward; the
        # layers themselves always compute in float64.
        features = hired_dataset.features[:2]
        for dtype in (np.float32, np.float64):
            assert FrozenExtractor(trained_model, dtype)(features).dtype == dtype
        feats32 = np.asarray(features, dtype=np.float32)
        assert trained_model.embed(feats32).dtype == np.float64

    def test_training_forward_promotes_to_float64(self, rng):
        conv = Conv2d(1, 2, (3, 3), (1, 1), (1, 1), rng=rng)
        conv.train()
        out = conv(rng.normal(size=(1, 1, 4, 4)).astype(np.float32))
        assert out.dtype == np.float64


class TestEvalCaches:
    def test_batchnorm_folding_matches_formula(self, rng):
        bn = BatchNorm2d(3)
        for _ in range(5):
            bn(rng.normal(2.0, 3.0, size=(8, 3, 4, 5)))
        bn.eval()
        x = rng.normal(2.0, 3.0, size=(4, 3, 4, 5))
        std = np.sqrt(bn.running_var + bn.eps)
        expected = (
            bn.gamma.data[None, :, None, None]
            * (x - bn.running_mean[None, :, None, None])
            / std[None, :, None, None]
            + bn.beta.data[None, :, None, None]
        )
        np.testing.assert_allclose(bn(x), expected, rtol=1e-12, atol=1e-12)


def _identify_loop(device, embedding):
    """The historical per-user identify loop, kept as the oracle."""
    best = None
    for user_id, transform in device._transforms.items():
        record = device.enclave.unseal(user_id)
        probe = transform.apply(embedding)
        distance = cosine_distance(probe, np.asarray(record.template))
        if best is None or distance < best[1]:
            best = (user_id, distance)
    return best


@pytest.fixture(scope="module")
def gallery_device(trained_model, population):
    device = _device(trained_model, "float64", seed=41)
    recorder = Recorder(seed=17)
    users = {"ga": population[0], "gb": population[3], "gc": population[5]}
    for name, person in users.items():
        device.enroll(name, [recorder.record(person, trial_index=i) for i in range(5)])
    return device, users, recorder


class TestTemplateGallery:
    def test_matches_per_user_loop(self, gallery_device):
        device, users, recorder = gallery_device
        for name, person in users.items():
            embedding = device.engine.embed_one(
                recorder.record(person, trial_index=70)
            )
            loop_user, loop_distance = _identify_loop(device, embedding)
            result = device.identify(recorder.record(person, trial_index=70))
            assert result is not None
            assert result.user_id == loop_user == name
            assert result.distance == pytest.approx(loop_distance, abs=1e-10)

    def test_identify_many_matches_identify(self, gallery_device, population):
        device, users, recorder = gallery_device
        queue = [
            recorder.record(users["ga"], trial_index=71),
            np.zeros((210, 6)),
            recorder.record(users["gc"], trial_index=72),
            recorder.record(population[7], trial_index=3),
        ]
        many = device.identify_many(queue)
        assert len(many) == len(queue)
        assert many[1] is None
        for got, recording in zip(many, queue):
            one = device.identify(recording)
            if one is None:
                assert got is None
            else:
                assert got.user_id == one.user_id
                assert got.distance == pytest.approx(one.distance, abs=1e-10)

    def test_gallery_invalidated_by_adapt(self, gallery_device):
        device, users, recorder = gallery_device
        probe = recorder.record(users["gb"], trial_index=80)
        before = device.identify(probe)
        assert device.adapt_template("gb", recorder.record(users["gb"], trial_index=81))
        after = device.identify(probe)
        assert before is not None and after is not None
        assert after.user_id == "gb"
        # The sealed template moved, so the scored distance moved too.
        assert after.distance != pytest.approx(before.distance, abs=1e-12)

    def test_gallery_invalidated_by_revoke_and_renew(
        self, trained_model, population
    ):
        device = _device(trained_model, "float64", seed=43)
        recorder = Recorder(seed=29)
        for name, person in (("ra", population[2]), ("rb", population[6])):
            device.enroll(
                name, [recorder.record(person, trial_index=i) for i in range(4)]
            )
        probe = recorder.record(population[2], trial_index=50)
        assert device.identify(probe).user_id == "ra"
        device.revoke("ra")
        result = device.identify(probe)
        assert result is None or result.user_id != "ra"
        device.renew(
            "ra", [recorder.record(population[2], trial_index=i) for i in range(4, 8)]
        )
        assert device.identify(probe).user_id == "ra"

    def test_zero_probe_and_zero_template_are_maximally_distant(
        self, trained_model, population
    ):
        transforms = [CancelableTransform(8, seed=s) for s in (1, 2)]
        gallery = ShardedGallery()
        gallery.upsert("u0", transforms[0].matrix, np.ones(8))
        gallery.upsert("u1", transforms[1].matrix, np.zeros(8))
        # A zero probe ties every user at the neutral 1.0; the first
        # enrolled wins.
        (match,) = gallery.best_match(np.zeros(8))
        assert (match.user_id, match.distance) == ("u0", 1.0)
        # A nonzero probe against a zero template: still the neutral 1.0,
        # through the cascade and through the facade's per-user fallback.
        gallery.remove("u0")
        (match,) = gallery.best_match(np.ones(8))
        assert (match.user_id, match.distance) == ("u1", 1.0)
        device = _device(trained_model, "float64", seed=47)
        recorder = Recorder(seed=31)
        device.enroll(
            "zt", [recorder.record(population[4], trial_index=i) for i in range(4)]
        )
        device.enclave.seal(
            "zt", np.zeros_like(device.stored_template("zt")),
            device._transforms["zt"].seed,
        )
        device.reset_gallery()
        probe = [recorder.record(population[4], trial_index=40)]
        for result in device.identify_many(probe) + device._identify_fallback(probe):
            assert (result.user_id, result.distance) == ("zt", 1.0)

    def test_batch_scoring_equals_rowwise(self, rng):
        transforms = [CancelableTransform(16, seed=s) for s in range(5)]
        templates = [rng.normal(size=16) for _ in range(5)]
        gallery = ShardedGallery()
        for index, (transform, template) in enumerate(zip(transforms, templates)):
            gallery.upsert(f"u{index}", transform.matrix, template)
        probes = rng.normal(size=(7, 16))
        batch = gallery.best_match(probes)
        assert len(batch) == 7
        for match, probe in zip(batch, probes):
            assert gallery.best_match(probe) == [match]
            distances = [
                cosine_distance(transform.apply(probe), template)
                for transform, template in zip(transforms, templates)
            ]
            best = int(np.argmin(distances))
            assert (match.user_id, match.distance) == (f"u{best}", distances[best])
