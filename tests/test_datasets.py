"""Dataset generation, splitting, caching and standard specs."""

import dataclasses

import numpy as np
import pytest

from repro.datasets import DatasetCache, DatasetSpec, generate_dataset
from repro.datasets.splits import (
    enrollment_probe_split,
    per_person_split,
)
from repro.datasets.standard import condition_spec, hired_spec, user_spec
from repro.datasets.synth import generate_recordings
from repro.errors import ConfigError
from repro.physio.conditions import RecordingCondition
from repro.types import Activity


SMALL = DatasetSpec(num_people=4, num_female=1, trials_per_person=5)


class TestGenerate:
    def test_shapes_and_labels(self):
        ds = generate_dataset(SMALL)
        assert ds.signal_arrays.shape[1:] == (6, 60)
        assert ds.features.shape[1:] == (2, 6, 31)
        assert len(ds) == ds.labels.shape[0] == ds.trial_ids.shape[0]
        assert set(ds.labels.tolist()) <= {0, 1, 2, 3}

    def test_deterministic(self):
        a = generate_dataset(SMALL)
        b = generate_dataset(SMALL)
        np.testing.assert_array_equal(a.features, b.features)

    def test_recordings_shape(self):
        recs, labels, profiles = generate_recordings(SMALL)
        assert recs.shape == (20, 210, 6)
        assert len(profiles) == 4

    def test_segment_offsets_multiply_segments(self):
        multi = dataclasses.replace(SMALL, segment_offsets=(-4, 0, 4))
        ds = generate_dataset(multi)
        base = generate_dataset(SMALL)
        assert len(ds) > 2 * len(base)
        # Segments from one recording share a trial id.
        first_trial = ds.trial_ids == ds.trial_ids[0]
        assert first_trial.sum() == 3

    def test_axis_masking_zeroes_tail_axes(self):
        masked = dataclasses.replace(SMALL, max_axes=2)
        ds = generate_dataset(masked)
        assert np.all(ds.signal_arrays[:, 2:, :] == 0.0)
        assert np.any(ds.signal_arrays[:, :2, :] != 0.0)

    def test_gradient_frontend_width(self):
        spec = dataclasses.replace(SMALL, frontend="gradient")
        ds = generate_dataset(spec)
        assert ds.features.shape[1:] == (2, 6, 30)

    def test_subset_people_relabel(self):
        ds = generate_dataset(SMALL)
        sub = ds.subset_people([2, 3])
        assert set(sub.labels.tolist()) <= {0, 1}
        assert len(sub.profiles) == 2
        assert sub.profiles[0].person_id == ds.profiles[2].person_id

    def test_rejects_bad_spec(self):
        with pytest.raises(ConfigError):
            DatasetSpec(trials_per_person=0)
        with pytest.raises(ConfigError):
            DatasetSpec(max_axes=7)
        with pytest.raises(ConfigError):
            DatasetSpec(segment_offsets=())
        with pytest.raises(ConfigError):
            DatasetSpec(frontend="nope")

    def test_cache_key_distinguishes_specs(self):
        other = dataclasses.replace(SMALL, recorder_seed=9)
        assert SMALL.cache_key() != other.cache_key()
        cond = dataclasses.replace(
            SMALL, condition=RecordingCondition(activity=Activity.RUN)
        )
        assert SMALL.cache_key() != cond.cache_key()


class TestSplits:
    def test_per_person_split_fractions(self):
        labels = np.repeat(np.arange(4), 10)
        train, test = per_person_split(labels, 0.2, seed=0)
        for person in range(4):
            assert np.sum(test & (labels == person)) == 2
        assert not np.any(train & test)

    def test_enrollment_probe_split(self):
        labels = np.repeat(np.arange(3), 10)
        enroll, probe = enrollment_probe_split(labels, 4, seed=0)
        for person in range(3):
            assert np.sum(enroll & (labels == person)) == 4
        assert np.all(enroll ^ probe)

    def test_enrollment_needs_spare_trials(self):
        labels = np.repeat(np.arange(2), 3)
        with pytest.raises(ConfigError):
            enrollment_probe_split(labels, 3)


class TestCache:
    def test_round_trip(self, tmp_path):
        cache = DatasetCache(tmp_path)
        first = cache.get(SMALL)
        assert (tmp_path / f"{SMALL.cache_key()}.npz").exists()
        second = cache.get(SMALL)
        np.testing.assert_array_equal(first.features, second.features)
        np.testing.assert_array_equal(first.labels, second.labels)
        assert [p.person_id for p in first.profiles] == [
            p.person_id for p in second.profiles
        ]

    def test_clear(self, tmp_path):
        cache = DatasetCache(tmp_path)
        cache.get(SMALL)
        assert cache.clear() == 1
        assert cache.clear() == 0

    def test_custom_preprocess_not_cached(self, tmp_path):
        from repro.config import PreprocessConfig

        cache = DatasetCache(tmp_path)
        cache.get(SMALL, preprocess=PreprocessConfig(segment_length=40))
        assert not list(tmp_path.glob("*.npz"))


class TestStandardSpecs:
    def test_populations_disjoint(self):
        assert hired_spec().population_seed != user_spec().population_seed

    def test_hired_uses_training_offsets(self):
        assert len(hired_spec().segment_offsets) > 1
        assert user_spec().segment_offsets == (0,)

    def test_user_spec_paper_composition(self):
        spec = user_spec()
        assert spec.num_people == 34
        assert spec.num_female == 6

    def test_condition_spec_keeps_population(self):
        cond = condition_spec(RecordingCondition(activity=Activity.WALK))
        assert cond.population_seed == user_spec().population_seed
        assert cond.condition.activity is Activity.WALK
