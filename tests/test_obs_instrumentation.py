"""Instrumentation of the serving path, and failure attribution.

Two concerns share these tests:

* when a stage rejects (or is made to fail) for *one* item of a batch,
  the resulting ``BatchItemFailure`` must carry the right input index,
  error class and reason — and the ``failures_total{error=...}``
  counter must agree; stage exceptions are injected by monkeypatching
  the pipeline's stage functions one at a time;
* an instrumented ``verify_many``/``identify_many`` run must populate
  the documented metric families: per-stage latency histograms,
  batch-size histograms, decision counters and the dtype eval-cache
  hit/miss counters; ``decisions_total`` counts every request exactly
  once on each verify and identify path, in-process and in a worker.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.config import ExtractorConfig, MandiPassConfig, SecurityConfig
from repro.core.engine import InferenceEngine
from repro.core.extractor import TwoBranchExtractor
from repro.core.frontend import make_frontend
from repro.core.system import MandiPass
from repro.dsp import pipeline as pipeline_module
from repro.dsp.pipeline import Preprocessor
from repro.errors import OnsetNotFoundError, SegmentTooShortError
from repro.faults.plan import FaultPlan, FaultRule
from repro.imu import Recorder
from repro.obs.runtime import STAGE_LATENCY
from repro.physio import sample_population


@pytest.fixture(scope="module")
def engine():
    """Signal-capable engine on a deterministic untrained extractor."""
    config = ExtractorConfig(embedding_dim=64, channels=(4, 8, 16))
    model = TwoBranchExtractor(config, num_classes=4, seed=0).eval()
    return InferenceEngine(model, Preprocessor(), make_frontend("spectral"))


@pytest.fixture(scope="module")
def good_recordings(population, recorder):
    return [recorder.record(population[i % 4], trial_index=70 + i) for i in range(4)]


def _raise_on_call(real, target_call, exc):
    """Wrap ``real`` so its ``target_call``-th invocation (0-based) raises."""
    state = {"calls": 0}

    def wrapped(*args, **kwargs):
        call = state["calls"]
        state["calls"] += 1
        if call == target_call:
            raise exc
        return real(*args, **kwargs)

    return wrapped


class TestFailureAttribution:
    def test_onset_stage_exception(self, monkeypatch, engine, good_recordings):
        """Item 2's onset detection raises -> failure indexed and counted."""
        detect = pipeline_module.detect_onset

        def fail_item_2(recordings, *args):
            found = detect(recordings, *args)
            found[2] = OnsetNotFoundError("injected onset failure")
            return found

        monkeypatch.setattr(pipeline_module, "detect_onset", fail_item_2)
        with obs.collecting() as registry:
            outcome = engine.embed(good_recordings)
        assert outcome.num_ok == 3
        assert list(outcome.indices) == [0, 1, 3]
        (failure,) = outcome.failures
        assert failure.index == 2
        assert failure.error == "OnsetNotFoundError"
        assert failure.reason == "injected onset failure"
        assert (
            registry.counter("failures_total", error="OnsetNotFoundError").value
            == 1.0
        )

    def test_segmentation_stage_exception(self, monkeypatch, engine, good_recordings):
        """Item 1's segmentation raises -> distinct error class attributed."""
        monkeypatch.setattr(
            pipeline_module,
            "segment_after_onset",
            _raise_on_call(
                pipeline_module.segment_after_onset,
                1,
                SegmentTooShortError("injected truncation"),
            ),
        )
        with obs.collecting() as registry:
            outcome = engine.embed(good_recordings)
        (failure,) = outcome.failures
        assert failure.index == 1
        assert failure.error == "SegmentTooShortError"
        assert failure.reason == "injected truncation"
        assert (
            registry.counter("failures_total", error="SegmentTooShortError").value
            == 1.0
        )
        assert registry.counter("failures_total", error="OnsetNotFoundError").value == 0

    def test_quality_gate_index_mapping(self, monkeypatch, engine, good_recordings):
        """The sustained-vibration gate must attribute the *original* index.

        Batch: [silent, good, good, good]; the silent item fails onset
        naturally, then the despiking stage is patched to flatten local
        row 1 — which is original item 2 once the earlier failure has
        shifted the bookkeeping.  A bug that reports the local row
        index would blame item 1.
        """
        real = pipeline_module.replace_outliers_batch

        def flatten_row_one(stacked, threshold):
            despiked = real(stacked, threshold=threshold)
            despiked[1] = 0.0
            return despiked

        monkeypatch.setattr(
            pipeline_module, "replace_outliers_batch", flatten_row_one
        )
        batch = [np.zeros((210, 6))] + list(good_recordings[:3])
        with obs.collecting() as registry:
            outcome = engine.embed(batch)
        assert outcome.num_ok == 2
        assert list(outcome.indices) == [1, 3]
        assert [f.index for f in outcome.failures] == [0, 2]
        assert all(f.error == "OnsetNotFoundError" for f in outcome.failures)
        assert "no sustained vibration" in outcome.failures[1].reason
        assert (
            registry.counter("failures_total", error="OnsetNotFoundError").value
            == 2.0
        )

    def test_extractor_stage_exception_is_not_swallowed(
        self, monkeypatch, engine, good_recordings
    ):
        """Whole-batch stages (frontend/extractor) must raise, not hide."""
        monkeypatch.setattr(
            engine,
            "extractor",
            _raise_on_call(engine.extractor, 0, RuntimeError("injected forward")),
        )
        with pytest.raises(RuntimeError, match="injected forward"):
            engine.embed(good_recordings)


@pytest.fixture(scope="module")
def obs_device(trained_model, population, recorder):
    config = MandiPassConfig(
        extractor=trained_model.config,
        security=SecurityConfig(
            template_dim=trained_model.config.embedding_dim,
            projected_dim=trained_model.config.embedding_dim,
            matrix_seed=11,
        ),
    )
    device = MandiPass(trained_model, config=config)
    device.enroll(
        "obs-user",
        [recorder.record(population[2], trial_index=80 + i) for i in range(5)],
    )
    return device


class TestServingPathMetrics:
    def test_verify_many_populates_metric_families(
        self, obs_device, population, recorder
    ):
        queue = [
            recorder.record(population[2], trial_index=90),  # genuine
            recorder.record(population[3], trial_index=90),  # impostor
            np.zeros((210, 6)),  # silent -> refusal
        ]
        with obs.collecting() as registry:
            results = obs_device.verify_many("obs-user", queue)
        snapshot = registry.to_dict()

        for stage in ("onset", "outlier", "filter", "normalize", "frontend",
                      "extractor", "verify"):
            series = f'{STAGE_LATENCY}{{stage="{stage}"}}'
            assert snapshot["histograms"][series]["count"] >= 1, stage

        assert snapshot["histograms"]['batch_size{op="verify_many"}']["sum"] == 3
        assert registry.counter("decisions_total", decision="refusal").value == 1
        accepted = registry.counter("decisions_total", decision="accept").value
        rejected = registry.counter("decisions_total", decision="reject").value
        assert accepted + rejected == 2
        assert accepted >= 1  # the genuine probe
        assert results[0].accepted and not results[2].accepted
        assert (
            registry.counter("failures_total", error="OnsetNotFoundError").value == 1
        )

    def test_one_verify_records_one_scoring_observation(
        self, obs_device, population, recorder
    ):
        probe = recorder.record(population[2], trial_index=91)
        with obs.collecting() as registry:
            obs_device.verify("obs-user", probe)
        histograms = registry.to_dict()["histograms"]
        scoring = histograms[f'{STAGE_LATENCY}{{stage="scoring"}}']
        verify = histograms[f'{STAGE_LATENCY}{{stage="verify"}}']
        assert scoring["count"] == verify["count"] == 1
        assert 0.0 < scoring["sum"] <= verify["sum"]

    def test_identify_many_counts_decisions_and_gallery(
        self, obs_device, population, recorder
    ):
        queue = [
            recorder.record(population[2], trial_index=91),
            np.zeros((210, 6)),
        ]
        with obs.collecting() as registry:
            results = obs_device.identify_many(queue)
        snapshot = registry.to_dict()
        assert results[0] is not None and results[1] is None
        identify_series = f'{STAGE_LATENCY}{{stage="identify"}}'
        gallery_series = f'{STAGE_LATENCY}{{stage="gallery_score"}}'
        assert snapshot["histograms"][identify_series]["count"] == 1
        assert snapshot["histograms"][gallery_series]["count"] == 1
        assert registry.counter("decisions_total", decision="refusal").value == 1
        assert snapshot["gauges"]["gallery_users"] == 1.0

    def test_metrics_enabled_config_switch(self, trained_model):
        previous = obs.get_registry()
        try:
            obs.disable()
            config = MandiPassConfig(
                extractor=trained_model.config,
                security=SecurityConfig(
                    template_dim=trained_model.config.embedding_dim,
                    projected_dim=trained_model.config.embedding_dim,
                ),
            )
            assert config.inference.metrics_enabled is False
            MandiPass(trained_model, config=config)
            assert obs.get_registry().enabled is False

            enabled = config.replace(
                inference=config.inference.__class__(metrics_enabled=True)
            )
            MandiPass(trained_model, config=enabled)
            assert obs.get_registry().enabled is True
        finally:
            obs.set_registry(previous if previous.enabled else None)


def _untrained_system() -> MandiPass:
    """A compact device on a deterministic untrained extractor."""
    extractor_config = ExtractorConfig(embedding_dim=64, channels=(4, 8, 16))
    config = MandiPassConfig(
        extractor=extractor_config,
        security=SecurityConfig(template_dim=64, projected_dim=64, matrix_seed=1),
    )
    model = TwoBranchExtractor(extractor_config, num_classes=4, seed=0).eval()
    return MandiPass(model, config=config)


@pytest.fixture(scope="module")
def accounting_probes():
    """(enroll, genuine, impostor) recording pools, deterministic."""
    population = sample_population(4, 1, seed=0)
    recorder = Recorder(seed=1)
    enroll = [recorder.record(population[0], trial_index=i) for i in range(4)]
    genuine = [
        recorder.record(population[0], trial_index=10 + i) for i in range(6)
    ]
    impostor = [
        recorder.record(population[1 + i % 3], trial_index=10 + i)
        for i in range(6)
    ]
    return enroll, genuine, impostor


def _pool_identify_snapshot(system: MandiPass, queue: list) -> dict:
    """Worker-side metrics of one identify batch served by a 1-process pool."""
    from repro.config import ServingConfig
    from repro.serve import shm as serve_shm
    from repro.serve.pool import WorkerPool
    from repro.serve.server import RequestKind

    pool = WorkerPool(system, ServingConfig(num_worker_processes=1))
    pool.start()
    try:
        pool.ensure_current_epoch()
        results = pool.execute(0, RequestKind.IDENTIFY, None, queue)
        assert results[-1] is None
        return pool.worker_metrics()
    finally:
        pool.stop()
        serve_shm.assert_no_leaked_segments()


class TestDecisionsTotal:
    @pytest.mark.parametrize(
        "path", ["verify", "identify", "identify_fallback", "pool_identify"]
    )
    def test_counts_every_request(self, accounting_probes, path):
        """Every request lands in exactly one ``decisions_total`` label."""
        enroll, genuine, impostor = accounting_probes
        system = _untrained_system()
        system.enroll("alice", enroll)
        queue = genuine[:3] + impostor[:3] + [np.zeros((210, 6))]
        with obs.collecting() as registry:
            if path == "verify":
                results = system.verify_many("alice", queue)
            elif path == "identify_fallback":
                rule = FaultRule("gallery.build", "error")
                with FaultPlan([rule], seed=0).active():
                    results = system.identify_many(queue)
                assert all(r.degraded for r in results[:-1])
            elif path == "identify":
                results = system.identify_many(queue)
            snapshot = registry.to_dict()
            if path == "pool_identify":
                snapshot = _pool_identify_snapshot(system, queue)
        decisions = {
            key: value
            for key, value in snapshot["counters"].items()
            if key.startswith("decisions_total{")
        }
        assert sum(decisions.values()) == len(queue)
        assert decisions['decisions_total{decision="refusal"}'] == 1

    def test_model_bytes_gauges_published(self):
        with obs.collecting() as registry:
            _untrained_system()
            snapshot = registry.to_dict()
        assert snapshot["gauges"]['model_bytes{dtype="float32"}'] > 0
