"""PersonProfile and population sampling tests."""

import dataclasses

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.physio import sample_population
from repro.types import Gender


class TestPersonProfile:
    def test_natural_frequency_formula(self, population):
        person = population[0]
        f_nat = np.sqrt((person.k1 + person.k2) / person.mass) / (2 * np.pi)
        assert person.natural_frequency_hz == pytest.approx(f_nat)

    def test_damping_ratios_positive_and_distinct(self, population):
        for person in population:
            assert person.damping_ratio_pos > 0
            assert person.damping_ratio_neg > 0
            assert person.c1 != person.c2

    def test_coupling_vectors_are_unit(self, population):
        for person in population:
            for vec in (
                person.accel_coupling,
                person.tissue_coupling,
                person.gyro_coupling,
                person.gyro_coupling2,
            ):
                assert np.linalg.norm(vec) == pytest.approx(1.0)

    def test_coupling_vectors_readonly(self, population):
        with pytest.raises(ValueError):
            population[0].accel_coupling[0] = 5.0

    def test_biomechanical_vector_order(self, population):
        person = population[0]
        vec = person.biomechanical_vector()
        assert vec.tolist() == [
            person.mass, person.c1, person.c2, person.k1, person.k2,
        ]

    def test_rejects_negative_mass(self, population):
        with pytest.raises(ConfigError):
            dataclasses.replace(population[0], mass=-0.1)

    def test_rejects_out_of_range_f0(self, population):
        with pytest.raises(ConfigError):
            dataclasses.replace(population[0], f0_hz=500.0)

    def test_rejects_zero_coupling(self, population):
        with pytest.raises(ConfigError):
            dataclasses.replace(population[0], accel_coupling=np.zeros(3))


class TestDrift:
    def test_zero_days_is_identity(self, population, rng):
        person = population[0]
        drifted = person.with_drift(0.0, rng)
        assert drifted.c1 == pytest.approx(person.c1)
        assert drifted.f0_hz == pytest.approx(person.f0_hz)

    def test_two_weeks_drift_is_small(self, population, rng):
        person = population[0]
        drifted = person.with_drift(14.0, rng)
        assert abs(np.log(drifted.c1 / person.c1)) < 0.1
        assert abs(np.log(drifted.f0_hz / person.f0_hz)) < 0.1

    def test_bone_parameters_never_drift(self, population, rng):
        person = population[0]
        drifted = person.with_drift(14.0, rng)
        assert drifted.mass == person.mass
        assert drifted.k1 == person.k1
        assert drifted.k2 == person.k2

    def test_rejects_negative_days(self, population, rng):
        with pytest.raises(ConfigError):
            population[0].with_drift(-1.0, rng)


class TestPopulation:
    def test_deterministic_given_seed(self):
        a = sample_population(5, 1, seed=3)
        b = sample_population(5, 1, seed=3)
        for pa, pb in zip(a, b):
            assert pa.mass == pb.mass
            assert pa.f0_hz == pb.f0_hz

    def test_different_seeds_differ(self):
        a = sample_population(5, 1, seed=3)
        b = sample_population(5, 1, seed=4)
        assert any(pa.mass != pb.mass for pa, pb in zip(a, b))

    def test_paper_composition(self):
        pop = sample_population()
        assert len(pop) == 34
        females = [p for p in pop if p.gender is Gender.FEMALE]
        assert len(females) == 6

    def test_gender_f0_ordering(self):
        pop = sample_population(60, 30, seed=0)
        male_f0 = np.mean([p.f0_hz for p in pop if p.gender is Gender.MALE])
        female_f0 = np.mean([p.f0_hz for p in pop if p.gender is Gender.FEMALE])
        assert female_f0 > male_f0 + 20

    def test_unique_ids(self):
        pop = sample_population(20, 4, seed=0)
        assert len({p.person_id for p in pop}) == 20

    def test_natural_frequencies_in_observable_band(self):
        pop = sample_population(50, 10, seed=1)
        for person in pop:
            assert 50.0 < person.natural_frequency_hz < 150.0

    def test_rejects_bad_counts(self):
        with pytest.raises(ConfigError):
            sample_population(0)
        with pytest.raises(ConfigError):
            sample_population(5, 6)
