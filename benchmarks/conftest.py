"""Shared fixtures for the benchmark suite.

Heavy artefacts -- the production extractor, the 34-user evaluation
campaign, per-user templates -- are session-scoped and disk-cached
(``.repro_cache``), so the first run trains once and later runs load.

Every benchmark prints the rows/series the paper reports and asserts the
*shape* of the result (orderings, rough factors, crossovers), not the
absolute numbers: the substrate is a simulator, not the authors'
testbed.  EXPERIMENTS.md records paper-vs-measured per experiment.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest

from repro.config import ExtractorConfig, TrainingConfig
from repro.core.mandibleprint import extract_embeddings
from repro.core.similarity import center_embedding
from repro.core.training import train_extractor
from repro.datasets.cache import DatasetCache
from repro.datasets.splits import enrollment_probe_split
from repro.datasets.standard import (
    condition_spec,
    hired_spec,
    user_spec,
)
from repro.eval.metrics import equal_error_rate
from repro.eval.pairs import genuine_impostor_distances
from repro.eval.production import get_production_model
from repro.physio.conditions import RecordingCondition

# Scale used by the parameter-sweep benches (Figs. 11a/b/c, ablations):
# each sweep point trains its own extractor, so these stay small.
SWEEP_PEOPLE = 24
SWEEP_TRIALS = 10
SWEEP_EPOCHS = 10

ENROLL_TRIALS = 10


@pytest.fixture(scope="session")
def cache():
    return DatasetCache()


@pytest.fixture(scope="session")
def production_model(cache):
    """The VSP's shipped extractor (trained once, cached on disk)."""
    return get_production_model(cache=cache, epochs=25)


@pytest.fixture(scope="session")
def users(cache):
    """The 34-volunteer evaluation campaign (28 M / 6 F)."""
    return cache.get(user_spec(num_people=34, trials_per_person=30))


@pytest.fixture(scope="session")
def user_embeddings(production_model, users):
    """Centred MandiblePrints of every evaluation trial."""
    emb = center_embedding(extract_embeddings(production_model, users.features))
    return emb, users.labels


@pytest.fixture(scope="session")
def baseline_eer(user_embeddings):
    """The headline Fig. 10(b) numbers, reused by several benches."""
    emb, labels = user_embeddings
    genuine, impostor = genuine_impostor_distances(emb, labels)
    return equal_error_rate(genuine, impostor), genuine, impostor


@pytest.fixture(scope="session")
def operating_threshold(baseline_eer):
    """The calibrated decision threshold (the paper's 0.5485 analogue)."""
    return baseline_eer[0].threshold


@pytest.fixture(scope="session")
def enrolled(user_embeddings):
    """Per-user templates from ENROLL_TRIALS trials; probes from the rest.

    Returns ``(templates (34, d), probe_embeddings, probe_labels)``.
    """
    emb, labels = user_embeddings
    enroll_mask, probe_mask = enrollment_probe_split(labels, ENROLL_TRIALS, seed=0)
    templates = np.stack(
        [
            emb[enroll_mask & (labels == person)].mean(axis=0)
            for person in np.unique(labels)
        ]
    )
    return templates, emb[probe_mask], labels[probe_mask]


@pytest.fixture(scope="session")
def condition_embedder(production_model, cache):
    """Callable: condition -> (embeddings, labels) for the same 34 users."""

    def embed(condition: RecordingCondition, trials: int = 12):
        dataset = cache.get(condition_spec(condition, trials_per_person=trials))
        emb = center_embedding(
            extract_embeddings(production_model, dataset.features)
        )
        return emb, dataset.labels

    return embed


def train_sweep_model(
    cache: DatasetCache,
    extractor_config: ExtractorConfig | None = None,
    num_people: int = SWEEP_PEOPLE,
    trials: int = SWEEP_TRIALS,
    epochs: int = SWEEP_EPOCHS,
    max_axes: int = 6,
):
    """Train a reduced-scale extractor for one sweep point."""
    spec = dataclasses.replace(
        hired_spec(num_people=num_people, trials_per_person=trials),
        max_axes=max_axes,
    )
    corpus = cache.get(spec)
    model, _ = train_extractor(
        corpus.features,
        corpus.labels,
        extractor_config=extractor_config,
        training_config=TrainingConfig(epochs=epochs, batch_size=64, weight_decay=1e-4),
    )
    return model


def sweep_eer(
    cache: DatasetCache,
    model,
    max_axes: int = 6,
    num_people: int = 20,
    trials: int = 15,
):
    """EER of a sweep model on a reduced user campaign."""
    spec = dataclasses.replace(
        user_spec(num_people=num_people, trials_per_person=trials),
        max_axes=max_axes,
    )
    dataset = cache.get(spec)
    emb = center_embedding(extract_embeddings(model, dataset.features))
    genuine, impostor = genuine_impostor_distances(emb, dataset.labels)
    return equal_error_rate(genuine, impostor)


def once(benchmark, func):
    """Run ``func`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, rounds=1, iterations=1, warmup_rounds=0)


def best_of(repeats, func):
    """``(best wall time, last result)`` of ``repeats`` calls of ``func``."""
    best, result = np.inf, None
    for _ in range(repeats):
        start = time.perf_counter()
        result = func()
        best = min(best, time.perf_counter() - start)
    return best, result


@dataclasses.dataclass
class LoadResult:
    """Outcome of one load-test workload run (serving and stream benches)."""

    completed: int
    rejected: int
    expired: int
    failed: int
    duration_s: float
    latencies_s: list[float]

    @property
    def throughput_rps(self) -> float:
        return self.completed / self.duration_s if self.duration_s > 0 else 0.0

    def percentile_ms(self, q: float) -> float:
        if not self.latencies_s:
            return float("nan")
        return float(np.percentile(np.asarray(self.latencies_s), q) * 1e3)

    def summary(self) -> dict:
        return {
            "completed": self.completed,
            "rejected": self.rejected,
            "expired": self.expired,
            "failed": self.failed,
            "duration_s": self.duration_s,
            "throughput_rps": self.throughput_rps,
            "p50_ms": self.percentile_ms(50),
            "p95_ms": self.percentile_ms(95),
            "p99_ms": self.percentile_ms(99),
        }


def run_sequential(system, user_id: str, probes: list, num_requests: int) -> LoadResult:
    """The pre-serving baseline: one blocking ``verify`` per request."""
    latencies: list[float] = []
    start = time.perf_counter()
    for i in range(num_requests):
        t0 = time.perf_counter()
        system.verify(user_id, probes[i % len(probes)])
        latencies.append(time.perf_counter() - t0)
    duration = time.perf_counter() - start
    return LoadResult(
        completed=num_requests,
        rejected=0,
        expired=0,
        failed=0,
        duration_s=duration,
        latencies_s=latencies,
    )
