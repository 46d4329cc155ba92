"""Score normalisation, evaluation curves and report rendering.

Covers the three previously untested ``repro.eval`` modules:

* ``scorenorm`` — the z-/t-/s-norm pair distances and the s-norm
  identity;
* ``curves`` — exact Mann-Whitney AUC (ties, symmetry, perfect
  separation) and the subject-level bootstrap EER interval;
* ``reporting`` — fixed-width table/series rendering round-trips.

Plus the FAR/FRR threshold-monotonicity contract the EER solver leans
on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError, ShapeError
from repro.eval.curves import roc_auc, subject_bootstrap_eer_ci
from repro.eval.metrics import equal_error_rate, far_frr_curve
from repro.eval.reporting import render_series, render_table
from repro.eval.scorenorm import normalized_pair_distances


@pytest.fixture(scope="module")
def separated_scores():
    """Well-separated genuine/impostor distance samples."""
    rng = np.random.default_rng(7)
    genuine = np.clip(rng.normal(0.35, 0.06, size=400), 0.0, 2.0)
    impostor = np.clip(rng.normal(0.95, 0.08, size=900), 0.0, 2.0)
    return genuine, impostor


@pytest.fixture(scope="module")
def clustered_embeddings():
    """(embeddings, labels): 6 subjects, 8 well-clustered trials each."""
    rng = np.random.default_rng(3)
    centers = rng.normal(size=(6, 32)) * 4.0
    embeddings = np.concatenate(
        [center + rng.normal(scale=0.3, size=(8, 32)) for center in centers]
    )
    labels = np.repeat(np.arange(6), 8)
    return embeddings, labels


# -- score normalisation ---------------------------------------------------


class TestNormalizedPairDistances:
    def test_rejects_unknown_method(self, clustered_embeddings, rng):
        embeddings, labels = clustered_embeddings
        with pytest.raises(ConfigError):
            normalized_pair_distances(
                embeddings, labels, rng.normal(size=(10, 32)), method="q-norm"
            )

    def test_rejects_mismatched_labels(self, rng):
        with pytest.raises(ShapeError):
            normalized_pair_distances(
                rng.normal(size=(8, 16)),
                np.zeros(5),
                rng.normal(size=(10, 16)),
            )

    def test_single_class_has_no_impostor_pairs(self, rng):
        with pytest.raises(ShapeError):
            normalized_pair_distances(
                rng.normal(size=(6, 16)),
                np.zeros(6),
                rng.normal(size=(10, 16)),
            )

    def test_snorm_is_mean_of_znorm_and_tnorm(self, clustered_embeddings, rng):
        embeddings, labels = clustered_embeddings
        cohort = rng.normal(size=(15, 32))
        by_method = {
            method: normalized_pair_distances(
                embeddings, labels, cohort, method=method
            )
            for method in ("z-norm", "t-norm", "s-norm")
        }
        for part in (0, 1):  # genuine, impostor
            expected = 0.5 * (
                by_method["z-norm"][part] + by_method["t-norm"][part]
            )
            assert np.allclose(by_method["s-norm"][part], expected)

    def test_normalisation_preserves_separation(self, clustered_embeddings, rng):
        embeddings, labels = clustered_embeddings
        cohort = rng.normal(size=(15, 32)) * 4.0
        genuine, impostor = normalized_pair_distances(
            embeddings, labels, cohort, method="s-norm"
        )
        assert genuine.mean() < impostor.mean()
        eer = equal_error_rate(genuine, impostor).eer
        assert eer < 0.1  # clusters this tight stay separable post-norm


# -- curves ----------------------------------------------------------------


class TestFarFrrMonotonicity:
    def test_rates_are_monotone_in_threshold(self, separated_scores):
        genuine, impostor = separated_scores
        thresholds, far, frr = far_frr_curve(genuine, impostor)
        assert np.all(np.diff(thresholds) >= 0)
        # Raising the accept threshold can only admit more impostors
        # (FAR nondecreasing) and refuse fewer genuines (FRR
        # nonincreasing) — the contract the EER bisection relies on.
        assert np.all(np.diff(far) >= 0)
        assert np.all(np.diff(frr) <= 0)

    def test_eer_sits_where_the_rates_cross(self, separated_scores):
        genuine, impostor = separated_scores
        result = equal_error_rate(genuine, impostor)
        assert 0.0 <= result.eer <= 1.0
        assert result.far_at_threshold == pytest.approx(
            result.frr_at_threshold, abs=0.02
        )
        assert result.eer == pytest.approx(
            0.5 * (result.far_at_threshold + result.frr_at_threshold),
            abs=1e-12,
        )


class TestRocAuc:
    def test_perfect_separation_is_one(self):
        assert roc_auc([0.1, 0.2, 0.3], [0.5, 0.6, 0.7]) == pytest.approx(1.0)

    def test_total_confusion_is_zero(self):
        assert roc_auc([0.9, 0.8], [0.1, 0.2]) == pytest.approx(0.0)

    def test_all_tied_is_chance(self):
        assert roc_auc([0.5, 0.5, 0.5], [0.5, 0.5]) == pytest.approx(0.5)

    def test_swapping_roles_complements(self, separated_scores):
        genuine, impostor = separated_scores
        forward = roc_auc(genuine, impostor)
        assert forward > 0.95
        assert forward + roc_auc(impostor, genuine) == pytest.approx(1.0)

    def test_empty_input_rejected(self):
        with pytest.raises(ShapeError):
            roc_auc([], [0.5])


class TestSubjectBootstrapEerCi:
    def test_needs_three_subjects(self, rng):
        embeddings = rng.normal(size=(8, 16))
        with pytest.raises(ShapeError):
            subject_bootstrap_eer_ci(
                embeddings, np.repeat([0, 1], 4), num_resamples=20
            )

    def test_interval_on_clustered_subjects(self, clustered_embeddings):
        embeddings, labels = clustered_embeddings
        ci = subject_bootstrap_eer_ci(
            embeddings, labels, num_resamples=30, seed=4
        )
        assert 0.0 <= ci.lower <= ci.upper <= 1.0
        assert ci.confidence == 0.95
        repeat = subject_bootstrap_eer_ci(
            embeddings, labels, num_resamples=30, seed=4
        )
        assert ci == repeat


# -- reporting -------------------------------------------------------------


class TestRenderTable:
    def test_round_trips_cells_through_the_rendering(self):
        headers = ["stage", "ms", "note"]
        rows = [["onset", 1.25, "ok"], ["filter", 0.5, "vectorised"]]
        text = render_table(headers, rows, title="latency")
        lines = text.splitlines()
        assert lines[0] == "latency"
        parsed = [
            [cell.strip() for cell in line.split(" | ")] for line in lines[3:]
        ]
        assert parsed == [["onset", "1.25", "ok"], ["filter", "0.5", "vectorised"]]
        # Every row (and the rule) is padded to the same width.
        assert len({len(line) for line in lines[1:]}) == 1

    def test_float_cells_use_four_significant_digits(self):
        text = render_table(["x"], [[3.14159265]])
        assert "3.142" in text

    def test_validation(self):
        with pytest.raises(ShapeError):
            render_table([], [])
        with pytest.raises(ShapeError):
            render_table(["a", "b"], [["only-one"]])


class TestRenderSeries:
    def test_round_trips_aligned_values(self):
        text = render_series(
            "frr vs users", [10, 20], [0.01, 0.0234], x_label="users",
            y_label="frr",
        )
        name, x_row, y_row = text.splitlines()
        assert name == "frr vs users"
        assert x_row.split(" | ")[1].split() == ["10", "20"]
        assert y_row.split(" | ")[1].split() == ["0.01", "0.0234"]
        assert x_row.index("|") == y_row.index("|")

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            render_series("s", [1, 2], [1.0])
