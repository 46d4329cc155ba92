"""Pair generation, distributions and reporting tests."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.eval.distributions import (
    distance_distribution,
    genuine_distances_to_templates,
)
from repro.eval.pairs import genuine_impostor_distances
from repro.eval.reporting import render_series, render_table


class TestPairs:
    def _clustered(self, rng, people=4, per=5, spread=0.05):
        centers = rng.normal(size=(people, 16))
        emb, labels = [], []
        for idx, center in enumerate(centers):
            emb.append(center + spread * rng.normal(size=(per, 16)))
            labels.extend([idx] * per)
        return np.concatenate(emb), np.array(labels)

    def test_counts(self, rng):
        emb, labels = self._clustered(rng)
        genuine, impostor = genuine_impostor_distances(emb, labels, None)
        assert genuine.size == 4 * (5 * 4 // 2)
        assert impostor.size == (20 * 19 // 2) - genuine.size

    def test_genuine_smaller_than_impostor(self, rng):
        emb, labels = self._clustered(rng)
        genuine, impostor = genuine_impostor_distances(emb, labels, None)
        assert genuine.mean() < impostor.mean()

    def test_subsampling_cap(self, rng):
        emb, labels = self._clustered(rng, people=6, per=10)
        _, impostor = genuine_impostor_distances(emb, labels, max_impostor_pairs=50)
        assert impostor.size == 50

    def test_subsampling_deterministic(self, rng):
        emb, labels = self._clustered(rng, people=6, per=10)
        _, a = genuine_impostor_distances(emb, labels, 50, seed=3)
        _, b = genuine_impostor_distances(emb, labels, 50, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_single_person_raises(self, rng):
        emb = rng.normal(size=(5, 4))
        with pytest.raises(ShapeError):
            genuine_impostor_distances(emb, np.zeros(5, dtype=int))

    def test_all_unique_labels_raises(self, rng):
        emb = rng.normal(size=(5, 4))
        with pytest.raises(ShapeError):
            genuine_impostor_distances(emb, np.arange(5))


class TestDistributions:
    def test_fractions_sum_to_one(self, rng):
        dist = distance_distribution(rng.uniform(0.0, 1.2, 500))
        assert sum(dist.values()) == pytest.approx(1.0)

    def test_bucket_labels(self):
        dist = distance_distribution(np.array([0.05, 0.15]))
        assert dist["[0.0, 0.1)"] == pytest.approx(0.5)
        assert dist["[0.1, 0.2)"] == pytest.approx(0.5)

    def test_catch_all_bucket(self):
        dist = distance_distribution(np.array([1.9]))
        assert dist[">=0.7"] == 1.0

    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            distance_distribution(np.array([]))

    def test_genuine_distance_extraction(self, rng):
        templates = rng.normal(size=(3, 6))
        probes = templates[np.array([0, 1, 2, 0])] + 0.001
        labels = np.array([0, 1, 2, 0])
        distances = genuine_distances_to_templates(probes, templates, labels)
        assert distances.shape == (4,)
        assert distances.max() < 0.01


class TestReporting:
    def test_table_contains_cells(self):
        text = render_table(["name", "eer"], [["ours", 0.0262], ["paper", 0.0128]])
        assert "ours" in text and "0.0262" in text
        assert "name" in text

    def test_table_title(self):
        text = render_table(["a"], [["b"]], title="Fig 10")
        assert text.startswith("Fig 10")

    def test_table_rejects_ragged_rows(self):
        with pytest.raises(ShapeError):
            render_table(["a", "b"], [["only-one"]])

    def test_series_alignment(self):
        text = render_series("EER vs axes", [1, 2, 3], [0.14, 0.05, 0.02])
        lines = text.splitlines()
        assert len(lines) == 3
        assert len(lines[1]) == len(lines[2])

    def test_series_rejects_length_mismatch(self):
        with pytest.raises(ShapeError):
            render_series("x", [1, 2], [1.0])
