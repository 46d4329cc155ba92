"""Observability overhead: the no-op path must not tax the hot path.

PR 2 bought a ~4x faster verify forward; the instrumentation threaded
through the same path in this PR must not quietly give it back.  Three
timings of the same ``verify_many`` at B=64:

* **uninstrumented** -- the obs runtime helpers stubbed out to bare
  ``pass`` functions, reconstructing the pre-instrumentation baseline;
* **no-op** -- the shipped default: every call site runs, but against
  the process-wide :class:`NullRegistry`;
* **collecting** -- a live registry, the fully instrumented run.

The contract asserted here (and in DESIGN.md §4e): the no-op path stays
within 5% of the uninstrumented baseline, so leaving the
instrumentation compiled-in costs nothing measurable.  The live run's
snapshot is written to ``METRICS_snapshot.json``; set ``OBS_QUICK=1``
for the CI smoke configuration, which writes
``METRICS_snapshot.quick.json`` (uploaded as a CI artifact) instead, so
a smoke never overwrites the tracked snapshot.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.config import (
    ExtractorConfig,
    InferenceConfig,
    MandiPassConfig,
    SecurityConfig,
)
from repro.core.extractor import TwoBranchExtractor
from repro.core.system import MandiPass
from repro.imu import Recorder
from repro.obs import runtime as obs_runtime
from repro.physio import sample_population

from conftest import once

QUICK = os.environ.get("OBS_QUICK", "") == "1"
BATCH = 64
REPEATS = 7 if QUICK else 11
SNAPSHOT_PATH = Path(__file__).resolve().parents[1] / (
    "METRICS_snapshot.quick.json" if QUICK else "METRICS_snapshot.json"
)

#: The no-op path may cost at most this factor over uninstrumented.
NOOP_BUDGET = 1.05


def _time_once(func):
    start = time.perf_counter()
    func()
    return time.perf_counter() - start


class _InertSpan:
    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_INERT_SPAN = _InertSpan()


@contextlib.contextmanager
def _uninstrumented():
    """Stub the obs helpers to nothing: the pre-instrumentation baseline."""
    saved = (
        obs_runtime.inc,
        obs_runtime.observe,
        obs_runtime.observe_batch_size,
        obs_runtime.set_gauge,
        obs_runtime.span,
    )
    obs_runtime.inc = lambda *args, **kwargs: None
    obs_runtime.observe = lambda *args, **kwargs: None
    obs_runtime.observe_batch_size = lambda *args, **kwargs: None
    obs_runtime.set_gauge = lambda *args, **kwargs: None
    obs_runtime.span = lambda stage: _INERT_SPAN
    try:
        yield
    finally:
        (
            obs_runtime.inc,
            obs_runtime.observe,
            obs_runtime.observe_batch_size,
            obs_runtime.set_gauge,
            obs_runtime.span,
        ) = saved


@pytest.fixture(scope="module")
def device():
    """A ready device on a compact eval-mode extractor (untrained: the
    timings exercise the same code paths regardless of weights)."""
    extractor_config = ExtractorConfig(embedding_dim=64, channels=(4, 8, 16))
    model = TwoBranchExtractor(extractor_config, num_classes=4, seed=0).eval()
    config = MandiPassConfig(
        extractor=extractor_config,
        security=SecurityConfig(template_dim=64, projected_dim=64, matrix_seed=2),
        inference=InferenceConfig(compute_dtype="float32"),
    )
    system = MandiPass(model, config=config)
    population = sample_population(4, 1, seed=3)
    recorder = Recorder(seed=4)
    system.enroll(
        "bench",
        [recorder.record(population[0], trial_index=i) for i in range(4)],
    )
    queue = []
    for i in range(BATCH):
        if i % 16 == 15:
            queue.append(np.zeros((210, 6)))  # refusals exercised too
        else:
            queue.append(
                recorder.record(population[i % len(population)], trial_index=10 + i)
            )
    return system, queue


def test_noop_overhead_within_budget(benchmark, device):
    system, queue = device
    run = lambda: system.verify_many("bench", queue)
    run()  # warm caches (workspaces, per-dtype casts) before any timing

    # Interleaved rounds: each round times all three variants
    # back-to-back, so clock-frequency drift between phases (several
    # percent on a busy host) cancels out of the best-of ratios.
    registry = obs_runtime.MetricsRegistry()
    base_time = noop_time = live_time = np.inf
    for _ in range(REPEATS):
        with _uninstrumented():
            base_time = min(base_time, _time_once(run))
        noop_time = min(noop_time, _time_once(run))
        with obs_runtime.collecting(registry):
            live_time = min(live_time, _time_once(run))
    with obs_runtime.collecting(registry):
        once(benchmark, run)
        snapshot = registry.to_dict()

    noop_ratio = noop_time / base_time
    live_ratio = live_time / base_time
    print()
    print(
        f"verify_many B={BATCH}: uninstrumented {base_time * 1e3:.2f} ms, "
        f"no-op {noop_time * 1e3:.2f} ms ({noop_ratio:.3f}x), "
        f"collecting {live_time * 1e3:.2f} ms ({live_ratio:.3f}x)"
    )

    SNAPSHOT_PATH.write_text(
        json.dumps(
            {
                "quick": QUICK,
                "timings": {
                    "batch": BATCH,
                    "uninstrumented_ms": base_time * 1e3,
                    "noop_ms": noop_time * 1e3,
                    "collecting_ms": live_time * 1e3,
                    "noop_overhead_ratio": noop_ratio,
                    "collecting_overhead_ratio": live_ratio,
                },
                "metrics": snapshot,
            },
            indent=2,
        )
        + "\n"
    )

    # The live run must actually have measured the serving path.
    histograms = snapshot["histograms"]
    for stage in ("onset", "outlier", "filter", "normalize", "frontend",
                  "extractor", "verify"):
        series = f'stage_latency_seconds{{stage="{stage}"}}'
        assert histograms[series]["count"] >= REPEATS, stage
    assert snapshot["counters"]['failures_total{error="OnsetNotFoundError"}'] > 0

    assert noop_ratio <= NOOP_BUDGET, (
        f"no-op instrumentation costs {noop_ratio:.3f}x "
        f"(budget {NOOP_BUDGET}x) over the uninstrumented baseline"
    )
    # Live collection is allowed real cost, but never pathological.
    assert live_ratio <= 2.0
