"""Similarity, MandiblePrint extraction and training tests."""

import numpy as np
import pytest

from repro.config import TrainingConfig
from repro.core.mandibleprint import extract_embeddings
from repro.core.similarity import (
    accept,
    center_embedding,
    cosine_distance,
    pairwise_cosine_distance,
)
from repro.core.training import evaluate_classification, train_extractor
from repro.errors import ShapeError


class TestCosineDistance:
    def test_identical_vectors_zero(self, rng):
        v = rng.normal(size=16)
        assert cosine_distance(v, v) == pytest.approx(0.0, abs=1e-12)

    def test_opposite_vectors_two(self, rng):
        v = rng.normal(size=16)
        assert cosine_distance(v, -v) == pytest.approx(2.0)

    def test_orthogonal_vectors_one(self):
        assert cosine_distance([1, 0], [0, 1]) == pytest.approx(1.0)

    def test_scale_invariant(self, rng):
        u, v = rng.normal(size=8), rng.normal(size=8)
        assert cosine_distance(u, v) == pytest.approx(cosine_distance(3 * u, 0.5 * v))

    def test_zero_vector_maximally_uninformative(self):
        assert cosine_distance(np.zeros(4), np.ones(4)) == 1.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            cosine_distance(np.zeros(3), np.zeros(4))

    def test_pairwise_matches_scalar(self, rng):
        a = rng.normal(size=(4, 8))
        b = rng.normal(size=(3, 8))
        matrix = pairwise_cosine_distance(a, b)
        assert matrix.shape == (4, 3)
        for i in range(4):
            for j in range(3):
                assert matrix[i, j] == pytest.approx(cosine_distance(a[i], b[j]))

    def test_pairwise_symmetric_zero_diagonal(self, rng):
        a = rng.normal(size=(5, 8))
        matrix = pairwise_cosine_distance(a, a)
        np.testing.assert_allclose(np.diag(matrix), 0.0, atol=1e-12)
        np.testing.assert_allclose(matrix, matrix.T, atol=1e-12)

    def test_accept_rule(self):
        assert accept(0.44, 0.45)
        assert accept(0.45, 0.45)
        assert not accept(0.46, 0.45)

    def test_center_embedding(self):
        np.testing.assert_allclose(center_embedding(np.full(4, 0.5)), np.zeros(4))


class TestTraining:
    def test_training_reduces_loss(self, hired_dataset, small_extractor_config):
        _, history = train_extractor(
            hired_dataset.features,
            hired_dataset.labels,
            extractor_config=small_extractor_config,
            training_config=TrainingConfig(epochs=4, batch_size=64),
        )
        assert history.losses[-1] < history.losses[0]

    def test_trained_accuracy_beats_chance(self, trained_model, hired_dataset):
        acc = evaluate_classification(
            trained_model, hired_dataset.features, hired_dataset.labels
        )
        chance = 1.0 / (int(hired_dataset.labels.max()) + 1)
        assert acc > 5 * chance

    def test_model_left_in_eval_mode(self, trained_model):
        assert not trained_model.training

    def test_continue_training_existing_model(
        self, hired_dataset, small_extractor_config
    ):
        # Train a throwaway model (never mutate the shared fixture).
        model, _ = train_extractor(
            hired_dataset.features[:64],
            hired_dataset.labels[:64],
            extractor_config=small_extractor_config,
            training_config=TrainingConfig(epochs=1),
        )
        _, history = train_extractor(
            hired_dataset.features[:64],
            hired_dataset.labels[:64],
            training_config=TrainingConfig(epochs=1),
            model=model,
        )
        assert len(history.losses) == 1

    def test_rejects_wrong_shapes(self):
        with pytest.raises(ShapeError):
            train_extractor(np.zeros((4, 6, 31)), np.zeros(4))

    def test_rejects_label_mismatch(self):
        with pytest.raises(ShapeError):
            train_extractor(np.zeros((4, 2, 6, 31)), np.zeros(5))

    def test_history_properties_raise_when_empty(self):
        from repro.core.training import TrainingHistory

        with pytest.raises(ShapeError):
            TrainingHistory().final_loss


class TestExtractEmbeddings:
    def test_shape(self, trained_model, hired_dataset):
        emb = extract_embeddings(trained_model, hired_dataset.features[:10])
        assert emb.shape == (10, trained_model.config.embedding_dim)

    def test_batching_equivalence(self, trained_model, hired_dataset):
        from repro.core.extractor import FORWARD_CHUNK

        # More rows than one forward chunk, so the call runs three.
        rows = np.arange(2 * FORWARD_CHUNK + 3) % len(hired_dataset.features)
        features = hired_dataset.features[rows]
        whole = extract_embeddings(trained_model, features)
        chunked = np.concatenate(
            [
                extract_embeddings(trained_model, features[start : start + FORWARD_CHUNK])
                for start in range(0, len(features), FORWARD_CHUNK)
            ]
        )
        np.testing.assert_allclose(whole, chunked)

    def test_empty_batch(self, trained_model):
        emb = extract_embeddings(trained_model, np.empty((0, 2, 6, 31)))
        assert emb.shape == (0, trained_model.config.embedding_dim)
        assert emb.dtype == np.float64
        emb32 = extract_embeddings(
            trained_model, np.empty((0, 2, 6, 31)), dtype=np.float32
        )
        assert emb32.shape == (0, trained_model.config.embedding_dim)
        assert emb32.dtype == np.float32

    def test_same_user_closer_than_different(self, trained_model, user_dataset):
        emb = center_embedding(extract_embeddings(trained_model, user_dataset.features))
        labels = user_dataset.labels
        d_same = []
        d_diff = []
        matrix = pairwise_cosine_distance(emb, emb)
        for i in range(len(labels)):
            for j in range(i + 1, len(labels)):
                (d_same if labels[i] == labels[j] else d_diff).append(matrix[i, j])
        assert np.mean(d_same) < np.mean(d_diff)
