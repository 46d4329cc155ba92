"""Bench substrate shared by the benchmarks, the tests and perfbench.

The load-test drivers live next to the bars they feed, in
``benchmarks/``; this module keeps only the names code outside
``benchmarks/`` imports:

* :func:`build_bench_system` — the untrained, seeded compact system
  (decisions are meaningless, the compute per request is the real
  serving path) that the serving, streaming and chaos tests build;
* :func:`poisson_arrivals` and :func:`machine_info` — the seeded
  arrival offsets and the hardware facts perfbench imports.  They move
  with perfbench's own load generator when the benchmark next changes.
"""

from __future__ import annotations

import os
import platform
import sys

import numpy as np

from repro.config import (
    ExtractorConfig,
    InferenceConfig,
    MandiPassConfig,
    SecurityConfig,
    ServingConfig,
)


def build_bench_system(
    dtype: str = "float32",
    serving: ServingConfig | None = None,
    num_probes: int = 32,
    gallery=None,
) -> tuple:
    """(system, user_id, probe pool) for serving benchmarks.

    ``gallery`` (a :class:`~repro.config.GalleryConfig`) lets chaos
    campaigns shrink shards so tombstone compaction actually triggers
    within a short schedule.

    Heavy imports stay inside the function so ``repro.serve`` never
    drags the physiological substrate in at import time.
    """
    from repro.config import GalleryConfig
    from repro.core.extractor import TwoBranchExtractor
    from repro.core.system import MandiPass
    from repro.imu import Recorder
    from repro.physio import sample_population

    extractor_config = ExtractorConfig(embedding_dim=64, channels=(4, 8, 16))
    config = MandiPassConfig(
        extractor=extractor_config,
        security=SecurityConfig(template_dim=64, projected_dim=64, matrix_seed=1),
        inference=InferenceConfig(compute_dtype=dtype),
        serving=serving if serving is not None else ServingConfig(),
        gallery=gallery if gallery is not None else GalleryConfig(),
    )
    model = TwoBranchExtractor(extractor_config, num_classes=4, seed=0).eval()
    system = MandiPass(model, config=config)
    population = sample_population(4, 1, seed=0)
    recorder = Recorder(seed=1)
    system.enroll(
        "bench", [recorder.record(population[0], trial_index=i) for i in range(4)]
    )
    probes = [
        recorder.record(population[i % len(population)], trial_index=10 + i)
        for i in range(num_probes)
    ]
    return system, "bench", probes


def poisson_arrivals(
    num_requests: int, offered_rps: float, seed: int = 0
) -> np.ndarray:
    """Cumulative arrival offsets (s) of a seeded Poisson process.

    Exponential inter-arrivals at rate ``offered_rps`` — the honest
    model of independent callers.  Its bursts (several arrivals inside
    one service time) and gaps are exactly what a constant-rate
    schedule hides from the batcher.
    """
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / offered_rps, size=num_requests)
    return np.cumsum(gaps)


def machine_info(start_method: str) -> dict:
    """Hardware/runtime facts every throughput number depends on.

    Process scaling claims are meaningless without the core count they
    were measured on — a worker sweep on a 1-CPU container measures
    dispatch overhead, not parallel speedup, and the report must say
    so rather than imply otherwise.
    """
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        usable = os.cpu_count() or 1
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable,
        "start_method": start_method,
        "python": platform.python_version(),
        "platform": sys.platform,
    }
