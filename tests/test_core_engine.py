"""The batch-first inference engine and its BatchOutcome contract.

Covers the degenerate batches (empty, all-fail, mixed — input-order
indices must survive all three), single-vs-batch numerical equivalence
at every stage, the verify/verify_many decision parity, the frozen
serving forward's contract, and the eval-mode state satellites.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import InferenceEngine
from repro.core.engine import BatchItemFailure, BatchOutcome
from repro.core.extractor import FrozenExtractor, TwoBranchExtractor
from repro.core.frontend import GradientFrontEnd, RectifiedSpectralFrontEnd
from repro.core.mandibleprint import extract_embeddings
from repro.core.similarity import center_embedding, cosine_distance
from repro.core.verification import REJECTED_DISTANCE, verify_batch
from repro.dsp.pipeline import Preprocessor
from repro.errors import ConfigError, ModelError, ShapeError
from repro.nn.layers import BatchNorm2d, Conv2d, Linear, ReLU, Sigmoid

SILENCE = np.zeros((210, 6))


def _probes(population, recorder, good=3, bad_positions=(1,)):
    """A mixed batch: good recordings with silence spliced in."""
    batch = [
        recorder.record(population[i % len(population)], trial_index=40 + i)
        for i in range(good)
    ]
    for pos in bad_positions:
        batch.insert(pos, SILENCE.copy())
    return batch


# ---------------------------------------------------------------- outcome


class TestBatchOutcome:
    def test_validates_coverage(self):
        with pytest.raises(ShapeError):
            BatchOutcome(
                values=np.zeros((2, 3)),
                indices=np.array([0, 1]),
                failures=(),
                batch_size=3,
            )
        with pytest.raises(ShapeError):
            BatchOutcome(
                values=np.zeros((2, 3)),
                indices=np.array([0]),
                failures=(),
                batch_size=2,
            )

    def test_helpers(self):
        failure = BatchItemFailure(index=1, error="OnsetNotFoundError", reason="x")
        outcome = BatchOutcome(
            values=np.array([[1.0], [2.0]]),
            indices=np.array([0, 2]),
            failures=(failure,),
            batch_size=3,
        )
        assert outcome.num_ok == 2
        assert outcome.num_failed == 1
        assert outcome.ok_mask().tolist() == [True, False, True]
        assert outcome.failure_for(1) is failure
        assert outcome.failure_for(0) is None
        scattered = outcome.scatter(fill_value=-1.0)
        assert scattered.tolist() == [[1.0], [-1.0], [2.0]]


# ----------------------------------------------------- degenerate batches


class TestDegenerateBatches:
    def test_empty_batch(self, mandipass_system):
        outcome = mandipass_system.engine.embed([])
        assert outcome.batch_size == 0
        assert outcome.num_ok == 0
        assert outcome.failures == ()
        assert outcome.values.shape == (
            0,
            mandipass_system.model.config.embedding_dim,
        )
        assert outcome.ok_mask().shape == (0,)

    def test_all_fail_batch(self, mandipass_system):
        batch = [SILENCE.copy(), SILENCE.copy(), SILENCE.copy()]
        outcome = mandipass_system.engine.embed(batch)
        assert outcome.batch_size == 3
        assert outcome.num_ok == 0
        assert outcome.values.shape[0] == 0
        assert [f.index for f in outcome.failures] == [0, 1, 2]
        for failure in outcome.failures:
            assert failure.error == "OnsetNotFoundError"
            assert failure.reason

    def test_mixed_batch_preserves_input_order(
        self, mandipass_system, population, recorder
    ):
        batch = _probes(population, recorder, good=4, bad_positions=(0, 3))
        outcome = mandipass_system.engine.embed(batch)
        assert outcome.batch_size == 6
        assert outcome.num_ok == 4
        assert outcome.indices.tolist() == [1, 2, 4, 5]
        assert [f.index for f in outcome.failures] == [0, 3]
        # Success rows line up with their input positions.
        for row, idx in enumerate(outcome.indices):
            single = mandipass_system.engine.embed_one(batch[idx])
            assert np.allclose(outcome.values[row], single)

    def test_ragged_batch_takes_per_item_path(self, mandipass_system, population, recorder):
        long = recorder.record(population[0], trial_index=90)
        short = recorder.record(population[1], trial_index=91)[:-7]
        outcome = mandipass_system.engine.embed([long, short, SILENCE.copy()])
        assert outcome.batch_size == 3
        assert outcome.indices.tolist() == [0, 1]
        assert outcome.failures[0].index == 2


# ------------------------------------------------------ stage equivalence


class TestStageEquivalence:
    def test_preprocess_batch_matches_single(self, population, recorder):
        pre = Preprocessor()
        batch = [
            recorder.record(population[i], trial_index=60 + i) for i in range(4)
        ]
        signals, indices, failures, degraded = pre.process_batch_detailed(batch)
        assert not failures
        assert degraded == ()
        assert indices.tolist() == [0, 1, 2, 3]
        for row, rec in zip(signals, batch):
            assert np.allclose(row, pre.process(rec))

    @pytest.mark.parametrize(
        "frontend",
        [
            GradientFrontEnd(order="temporal"),
            GradientFrontEnd(order="sorted"),
            RectifiedSpectralFrontEnd(),
        ],
        ids=["temporal", "sorted", "spectral"],
    )
    def test_frontend_batch_matches_single(
        self, frontend, population, recorder
    ):
        pre = Preprocessor()
        stack = np.stack(
            [
                pre.process(recorder.record(population[i], trial_index=70 + i))
                for i in range(3)
            ]
        )
        batched = frontend.transform_batch(stack)
        for row, signal in zip(batched, stack):
            assert np.allclose(row, frontend.transform(signal))

    def test_embed_matches_embed_one(self, mandipass_system, population, recorder):
        engine = mandipass_system.engine
        batch = [
            recorder.record(population[i], trial_index=80 + i) for i in range(3)
        ]
        outcome = engine.embed(batch)
        assert outcome.num_ok == 3
        for row, rec in zip(outcome.values, batch):
            assert np.allclose(row, engine.embed_one(rec))


# ------------------------------------------------------------- verify_many


class TestVerifyMany:
    def test_matches_sequential_verify(self, mandipass_system, population, recorder):
        device = mandipass_system
        device.enroll(
            "engine-user",
            [recorder.record(population[2], trial_index=i) for i in range(5)],
        )
        batch = [
            recorder.record(population[2], trial_index=50),  # genuine
            SILENCE.copy(),                                  # unusable
            recorder.record(population[5], trial_index=50),  # impostor
            recorder.record(population[2], trial_index=51),  # genuine
        ]
        many = device.verify_many("engine-user", batch)
        singles = [device.verify("engine-user", rec) for rec in batch]
        assert len(many) == len(batch)
        for m, s in zip(many, singles):
            assert m.accepted == s.accepted
            assert np.allclose(m.distance, s.distance)
        assert many[1].accepted is False
        assert many[1].distance == REJECTED_DISTANCE

    def test_distances_follow_the_cosine_rule_bitwise(
        self, mandipass_system, population, recorder
    ):
        # Verify scores each row with cosine_distance's own arithmetic, so
        # a batched distance equals the single-vector rule and the
        # presented-vector path bit for bit, at any batch size.
        device = mandipass_system
        if not device.is_enrolled("engine-user"):
            device.enroll(
                "engine-user",
                [recorder.record(population[2], trial_index=i) for i in range(5)],
            )
        template = device.stored_template("engine-user")
        transform = device._transforms["engine-user"]
        recordings = [
            recorder.record(population[p], trial_index=60 + p) for p in (2, 5, 2, 7)
        ]
        for batch in (1, 4):
            queue = recordings[:batch]
            results = device.verify_many("engine-user", queue)
            projected = transform.apply(device.engine.embed(queue).values)
            for result, row in zip(results, projected):
                assert result.distance == cosine_distance(row, template)
                presented = device.verify_presented("engine-user", row)
                assert result.distance == presented.distance

        # A zero embedding row scores the neutral 1.0 beside normal rows.
        rows = np.vstack([np.zeros(template.shape[0]), projected[:3]])
        embeddings = rows @ np.linalg.pinv(transform.matrix)

        class _FixedEngine:
            def embed(self, recordings, onsets=None):
                return BatchOutcome(
                    values=embeddings,
                    indices=np.arange(len(recordings)),
                    failures=(),
                    batch_size=len(recordings),
                )

        results = verify_batch(
            "engine-user", _FixedEngine(), [SILENCE] * 4, template, transform, 0.5
        )
        expected = [
            cosine_distance(row, template) for row in transform.apply(embeddings)
        ]
        assert [r.distance for r in results] == expected
        assert expected[0] == 1.0

    def test_empty_probe_list(self, mandipass_system, population, recorder):
        device = mandipass_system
        if not device.is_enrolled("engine-user"):
            device.enroll(
                "engine-user",
                [recorder.record(population[2], trial_index=i) for i in range(5)],
            )
        assert device.verify_many("engine-user", []) == []


# ------------------------------------------------------- engine construction


class TestEngineConstruction:
    def test_feature_only_engine_rejects_signal_entry_points(self, trained_model):
        engine = InferenceEngine(trained_model)
        with pytest.raises(ConfigError):
            engine.embed([SILENCE.copy()])

    def test_embed_features_centered(self, trained_model, hired_dataset):
        from repro.core.similarity import center_embedding

        engine = InferenceEngine(trained_model)
        emb = engine.embed_features(hired_dataset.features[:8])
        assert emb.shape == (8, trained_model.config.embedding_dim)
        expected = center_embedding(
            extract_embeddings(trained_model, hired_dataset.features[:8])
        )
        assert np.allclose(emb, expected)


# ------------------------------------------------ frozen serving forward


@pytest.fixture()
def served_model(trained_model):
    """A private copy of the trained model (tests here edit it)."""
    model = TwoBranchExtractor(
        trained_model.config, num_classes=trained_model.num_classes, seed=1
    )
    model.load_state(trained_model.state_dict())
    return model.eval()


class TestFrozenExtractor:
    def test_float64_bitwise_equals_eval_forward(self, served_model, hired_dataset):
        norms = served_model.branch_pos.layers[1], served_model.branch_neg.layers[4]
        for norm in norms:  # the fold carries trained running statistics
            assert np.abs(norm.running_mean).max() > 1e-3
            assert np.abs(norm.running_var - 1.0).max() > 1e-3
        frozen = FrozenExtractor(served_model, np.float64)
        features = hired_dataset.features[:64]
        for batch in (1, 3, 64):
            want = served_model.embed(features[:batch])
            assert frozen(features[:batch]).tobytes() == want.tobytes()

    def test_float32_within_drift_bound(self, served_model, hired_dataset):
        features = hired_dataset.features[:16]
        emb32 = FrozenExtractor(served_model, np.float32)(features)
        emb64 = FrozenExtractor(served_model, np.float64)(features)
        assert emb32.dtype == np.float32
        assert np.max(np.abs(emb64 - emb32)) < 1e-4

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_engine_serves_the_frozen_forward(
        self, served_model, hired_dataset, dtype
    ):
        engine = InferenceEngine(served_model, compute_dtype=dtype)
        features = hired_dataset.features[:8]
        want = center_embedding(FrozenExtractor(served_model, dtype)(features))
        assert engine.embed_features(features).tobytes() == want.tobytes()

    def test_engine_is_a_snapshot(self, served_model, hired_dataset):
        engine = InferenceEngine(served_model, compute_dtype="float32")
        features = hired_dataset.features[:4]
        before = engine.embed_features(features)
        served_model.train()
        for param in served_model.parameters():
            param.data += 0.5
        served_model.branch_pos.layers[1].running_mean += 1.0
        assert engine.embed_features(features).tobytes() == before.tobytes()

    def test_concurrent_calls_agree(self, served_model, hired_dataset):
        engine = InferenceEngine(served_model, compute_dtype="float32")
        features = hired_dataset.features[:8]
        want = engine.embed_features(features)
        barrier = threading.Barrier(4)
        outputs: list = [None] * 4

        def worker(index: int) -> None:
            barrier.wait(10)
            outputs[index] = [engine.embed_features(features) for _ in range(20)]

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        for runs in outputs:
            assert runs is not None
            assert all(run.tobytes() == want.tobytes() for run in runs)


# ----------------------------------------------- eval-mode state satellites


class TestEvalModeSatellites:
    def test_extract_embeddings_restores_training_state(
        self, trained_model, hired_dataset
    ):
        trained_model.train()
        extract_embeddings(trained_model, hired_dataset.features[:4])
        assert trained_model.training is True
        trained_model.eval()
        extract_embeddings(trained_model, hired_dataset.features[:4])
        assert trained_model.training is False
        trained_model.eval()

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_eval_model_embeddings_survive_mode_round_trips(
        self, trained_model, hired_dataset, dtype
    ):
        # extract_embeddings snapshots the model's arrays and never
        # reads its mode: a training-mode model embeds bitwise as in
        # eval mode.
        features = hired_dataset.features[:6]
        trained_model.eval()
        warm = extract_embeddings(trained_model, features, dtype=dtype)
        again = extract_embeddings(trained_model, features, dtype=dtype)
        trained_model.train()
        from_training = extract_embeddings(trained_model, features, dtype=dtype)
        assert trained_model.training is True
        trained_model.eval()
        for other in (again, from_training):
            assert other.tobytes() == warm.tobytes()

    def test_eval_forward_caches_nothing(self, rng):
        conv = Conv2d(1, 2, (3, 3), (1, 1), (1, 1), rng=rng)
        bn = BatchNorm2d(2)
        relu = ReLU()
        linear = Linear(4, 3, rng=rng)
        sigmoid = Sigmoid()
        x = rng.normal(size=(2, 1, 4, 4))
        for module in (conv, bn, relu, linear, sigmoid):
            module.eval()
        out = relu(bn(conv(x)))
        sigmoid(linear(rng.normal(size=(2, 4))))
        assert out.shape == (2, 2, 4, 4)
        assert conv._cache is None
        assert bn._cache is None
        assert relu._mask is None
        assert linear._input is None
        assert sigmoid._out is None
        with pytest.raises(ModelError):
            conv.backward(np.zeros_like(out))

    def test_train_forward_still_caches(self, rng):
        conv = Conv2d(1, 2, (3, 3), (1, 1), (1, 1), rng=rng)
        conv.train()
        out = conv(rng.normal(size=(1, 1, 4, 4)))
        assert conv._cache is not None
        conv.backward(np.zeros_like(out))
