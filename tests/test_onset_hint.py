"""Known-onset hints on the one verify path (DESIGN.md §4j).

A streamed decision already has its onset: the session's streaming
detector confirmed it.  The session hands that onset to the backend,
which cuts the segment there instead of detecting again.  This file
checks three things:

* a hint equal to the detected onset gives bitwise the same signal and
  decision as detection, alone or mixed with unhinted items;
* a bad hint (not an integer, negative, or too late to fit the segment)
  refuses only its own request, counted once, on every backend;
* a streamed decision runs no batch onset detection at all on the sync,
  thread-server and pool-server backends, yet decides exactly as an
  unhinted ``verify_many`` on the same window.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.config import ServingConfig
from repro.core.verification import REJECTED_DISTANCE
from repro.dsp import pipeline
from repro.dsp.detection import detect_onset
from repro.errors import ShapeError
from repro.serve import AuthServer, RequestStatus
from repro.serve import pool as serve_pool
from repro.serve import shm as serve_shm
from repro.stream import StreamSession

from tests.test_stream_session import CFG, event_stream, feed, watchdog


@pytest.fixture(scope="module")
def hint_system():
    """(system, user_id, probes) on the float32 serving substrate."""
    from repro.serve.loadgen import build_bench_system

    return build_bench_system(dtype="float32", num_probes=6)


def _forbidden(*args, **kwargs):
    raise AssertionError("batch onset detection ran on a hinted request")


def _forbid_detection(set_attribute) -> None:
    """Make the batch pipeline's two detection entry points raise."""
    set_attribute(pipeline, "detection_signals_batch", _forbidden)
    set_attribute(pipeline, "detect_onset", _forbidden)


def _worker_main_without_detection(*args) -> None:  # pragma: no cover - child
    """Pool worker entry point with batch onset detection disabled."""
    _forbid_detection(setattr)
    serve_pool._worker_main(*args)


def _same(got, want) -> None:
    assert got.exit_stage == want.exit_stage
    assert got.accepted == want.accepted
    assert got.distance == want.distance
    assert got.threshold == want.threshold
    assert got.degraded == want.degraded


def _bad_hints(system, probe) -> list:
    """Not an integer, negative, and one sample too late for the segment."""
    late = probe.shape[0] - system.config.preprocess.segment_length + 1
    return [2.5, -1, late]


# -- the preprocessor ------------------------------------------------------


class TestPreprocessorHints:
    def test_detected_onset_as_hint_is_bitwise(self, hint_system):
        system, _, probes = hint_system
        pre = system.preprocessor
        onsets = [detect_onset(p, pre.config) for p in probes]
        detected = pre.process_batch_detailed(probes)
        hinted = pre.process_batch_detailed(probes, onsets=onsets)
        mixed = pre.process_batch_detailed(
            probes, onsets=[o if i % 2 else None for i, o in enumerate(onsets)]
        )
        for out in (hinted, mixed):
            assert out[0].tobytes() == detected[0].tobytes()
            assert out[1].tolist() == detected[1].tolist()
            assert out[3] == detected[3]

    def test_fully_hinted_batch_never_detects(self, hint_system, monkeypatch):
        system, _, probes = hint_system
        pre = system.preprocessor
        onsets = [detect_onset(p, pre.config) for p in probes]
        reference = pre.process_batch_detailed(probes)[0]
        _forbid_detection(monkeypatch.setattr)
        signals = pre.process_batch_detailed(probes, onsets=onsets)[0]
        assert signals.tobytes() == reference.tobytes()
        with pytest.raises(AssertionError, match="detection ran"):
            pre.process_batch_detailed(probes[:1])

    def test_hint_count_must_match(self, hint_system):
        system, _, probes = hint_system
        with pytest.raises(ShapeError):
            system.preprocessor.process_batch_detailed(probes[:2], onsets=[None])


# -- bad hints are refusals ------------------------------------------------


def _check_refusals(results, reference, counters) -> None:
    """Three bad hints refused once each; the good two decided as usual."""
    for result in results[:3]:
        assert result.exit_stage == "refused"
        assert result.distance == REJECTED_DISTANCE
        assert not result.accepted
    for got, want in zip(results[3:], reference):
        _same(got, want)
    decisions = {
        key: value
        for key, value in counters.items()
        if key.startswith("decisions_total{")
    }
    assert sum(decisions.values()) == len(results)
    assert decisions['decisions_total{decision="refusal"}'] == 3
    assert counters['failures_total{error="OnsetHintError"}'] == 2
    assert counters['failures_total{error="SegmentTooShortError"}'] == 1


class TestBadHintRefusal:
    """Batch ``[bad, bad, bad, unhinted, hinted]``: one batch, three
    refusals, two decisions bitwise equal to an unhinted batch of two."""

    def _batch(self, hint_system):
        system, user_id, probes = hint_system
        recordings = probes[:5]
        good = detect_onset(recordings[4], system.preprocessor.config)
        onsets = _bad_hints(system, recordings[0]) + [None, np.int64(good)]
        reference = system.verify_many(user_id, recordings[3:5])
        return recordings, onsets, reference

    def test_direct_verify_many(self, hint_system):
        system, user_id, _ = hint_system
        recordings, onsets, reference = self._batch(hint_system)
        with obs.collecting() as registry:
            results = system.verify_many(user_id, recordings, onsets=onsets)
            counters = registry.to_dict()["counters"]
        _check_refusals(results, reference, counters)

    @watchdog()
    def test_thread_server(self, hint_system):
        system, user_id, _ = hint_system
        recordings, onsets, reference = self._batch(hint_system)
        with obs.collecting() as registry:
            server = AuthServer(system)
            # Queued before start(), so the five dispatch as one batch.
            futures = [
                server.verify(user_id, rec, onset=onset)
                for rec, onset in zip(recordings, onsets)
            ]
            server.start()
            results = [f.result(timeout=30) for f in futures]
            server.stop()
            snapshot = registry.to_dict()
        assert snapshot["histograms"]['batch_size{op="verify_many"}']["count"] == 1
        _check_refusals(results, reference, snapshot["counters"])

    @watchdog(120.0)
    def test_pool_server(self, hint_system):
        system, user_id, _ = hint_system
        recordings, onsets, reference = self._batch(hint_system)
        with obs.collecting():
            server = AuthServer(system, config=ServingConfig(num_worker_processes=1))
            futures = [
                server.verify(user_id, rec, onset=onset)
                for rec, onset in zip(recordings, onsets)
            ]
            try:
                server.start()
                results = [f.result(timeout=60) for f in futures]
            finally:
                server.stop()
            counters = server.worker_metrics()["counters"]
        serve_shm.assert_no_leaked_segments()
        _check_refusals(results, reference, counters)


# -- one onset pass per streamed decision ----------------------------------


def _stream_decisions(backend, system, user_id, stream, monkeypatch) -> list:
    """Decisions of one session over ``stream`` with detection disabled."""
    if backend == "sync":
        _forbid_detection(monkeypatch.setattr)
        with pytest.raises(AssertionError, match="detection ran"):
            system.verify_many(user_id, [stream[:210]])
        session = StreamSession(user_id, system=system, config=CFG)
        return feed(session, stream) + session.close()
    if backend == "thread":
        _forbid_detection(monkeypatch.setattr)
        config = None
    else:
        # Spawned workers import the pipeline afresh, so the patch is
        # made inside the worker by its entry point.
        monkeypatch.setattr(
            serve_pool, "_worker_main", _worker_main_without_detection
        )
        config = ServingConfig(num_worker_processes=1)
    server = AuthServer(system, config=config).start()
    try:
        # An unhinted request still needs detection, so it fails: the
        # patch is live where the backend decides.
        probe = server.verify(user_id, stream[:210])
        probe.wait(60)
        assert probe.status is RequestStatus.FAILED
        assert "detection ran" in str(probe.exception())
        session = server.open_stream(user_id, stream_config=CFG)
        return feed(session, stream) + session.drain(60)
    finally:
        server.stop()
        serve_shm.assert_no_leaked_segments()


class TestStreamedDecisionDetectsOnce:
    @pytest.mark.parametrize("backend", ["sync", "thread", "pool"])
    @watchdog(120.0)
    def test_no_batch_detection_and_same_decisions(
        self, hint_system, monkeypatch, backend
    ):
        system, user_id, probes = hint_system
        stream = event_stream(probes, 0, 3)
        decisions = _stream_decisions(
            backend, system, user_id, stream, monkeypatch
        )
        monkeypatch.undo()
        assert len(decisions) == 3
        for decision in decisions:
            assert decision.status == "ok"
            window = stream[decision.window_start : decision.window_end]
            # The reference detects independently, with no hint.
            onset = detect_onset(window, system.preprocessor.config)
            assert decision.window_start + onset == decision.onset
            _same(decision.result, system.verify_many(user_id, [window])[0])
