"""Shared fixtures.

Expensive artefacts (populations, recordings, a trained extractor) are
session-scoped so the suite stays fast; tests must not mutate them.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro import (
    MandiPass,
    Recorder,
    TrainingConfig,
    generate_dataset,
    sample_population,
    train_extractor,
)
from repro.config import ExtractorConfig
from repro.datasets.standard import user_spec

# Hypothesis profiles: property suites must never flake in CI.  The
# "ci" profile (selected whenever a CI env var is set) disables the
# per-example deadline — shared runners stall unpredictably under
# load — and derandomizes so a red run is reproducible from the log
# alone.  Local runs keep random exploration but drop the deadline
# too: the heavy DSP examples routinely exceed the 200 ms default.
settings.register_profile(
    "ci",
    deadline=None,
    derandomize=True,
    suppress_health_check=(HealthCheck.too_slow,),
)
settings.register_profile("local", deadline=None)
settings.load_profile("ci" if os.environ.get("CI") else "local")


@pytest.fixture(scope="session")
def population():
    """Eight standard people (two female), deterministic."""
    return sample_population(8, 2, seed=0)


@pytest.fixture(scope="session")
def recorder():
    return Recorder(seed=0)


@pytest.fixture(scope="session")
def recording(population, recorder):
    """One nominal raw recording of person 1 (decent axis coupling)."""
    return recorder.record(population[1])


@pytest.fixture(scope="session")
def small_extractor_config():
    """A small extractor that trains in seconds."""
    return ExtractorConfig(embedding_dim=64, channels=(4, 8, 16))


@pytest.fixture(scope="session")
def hired_dataset():
    """A tiny condition-diverse hired corpus for training fixtures."""
    from repro.datasets.cache import DatasetCache
    from repro.datasets.standard import generate_hired_corpus

    return generate_hired_corpus(
        num_people=24,
        nominal_trials=8,
        condition_trials=3,
        cache=DatasetCache(),
    )


@pytest.fixture(scope="session")
def user_dataset():
    """A tiny evaluation campaign (6 users, disjoint from hired)."""
    return generate_dataset(user_spec(num_people=6, trials_per_person=8))


@pytest.fixture(scope="session")
def trained_model(hired_dataset, small_extractor_config):
    """A quickly trained small extractor, adequate for API tests."""
    model, history = train_extractor(
        hired_dataset.features,
        hired_dataset.labels,
        extractor_config=small_extractor_config,
        training_config=TrainingConfig(epochs=12, batch_size=64),
    )
    assert history.final_accuracy > 0.8
    return model


@pytest.fixture(scope="session")
def mandipass_system(trained_model):
    """A ready MandiPass device built on the small extractor."""
    from repro.config import MandiPassConfig, SecurityConfig

    config = MandiPassConfig(
        extractor=trained_model.config,
        security=SecurityConfig(
            template_dim=trained_model.config.embedding_dim,
            projected_dim=trained_model.config.embedding_dim,
            matrix_seed=7,
        ),
    )
    return MandiPass(trained_model, config=config)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
