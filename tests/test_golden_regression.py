"""Golden regression: fixed-seed recording -> pinned values per stage.

The preprocess -> front end -> extractor -> verify chain has been
refactored twice (batch engine, strided/dtype hot path) and will be
again; these tests pin the *numbers* a fixed-seed synthetic recording
produces at every stage, so a future refactor that silently shifts the
numerics (a changed filter state, a reordered reduction, a dtype leak)
fails here even if every shape- and equivalence-test still passes.

All pins were produced by the float64 path at the time this file was
written; tolerances are loose enough for BLAS re-association across
platforms (rtol 1e-6) but far tighter than any genuine numeric change.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Recorder, sample_population
from repro.config import ExtractorConfig
from repro.core.engine import InferenceEngine
from repro.core.extractor import TwoBranchExtractor
from repro.core.frontend import make_frontend
from repro.core.similarity import center_embedding, cosine_distance
from repro.dsp.pipeline import Preprocessor
from repro.security.cancelable import CancelableTransform

RTOL = 1e-6
ATOL = 1e-8


@pytest.fixture(scope="module")
def golden_population():
    return sample_population(2, 1, seed=1234)


@pytest.fixture(scope="module")
def golden_recorder():
    return Recorder(seed=99)


@pytest.fixture(scope="module")
def golden_recording(golden_population, golden_recorder):
    return golden_recorder.record(golden_population[0], trial_index=0)


@pytest.fixture(scope="module")
def golden_model():
    config = ExtractorConfig(embedding_dim=64, channels=(4, 8, 16))
    return TwoBranchExtractor(config, num_classes=4, seed=7).eval()


@pytest.fixture(scope="module")
def golden_debug(golden_recording):
    return Preprocessor().process_debug(golden_recording)


class TestPreprocessGolden:
    def test_recording_shape(self, golden_recording):
        assert golden_recording.shape == (210, 6)
        assert golden_recording.dtype == np.float64

    def test_onset_index(self, golden_debug):
        assert golden_debug.onset == 63

    def test_stage_shapes(self, golden_debug):
        for name in ("raw_segments", "despiked", "filtered", "normalized"):
            assert getattr(golden_debug, name).shape == (6, 60), name

    def test_segment_statistics(self, golden_debug):
        np.testing.assert_allclose(
            golden_debug.raw_segments.mean(), 987.472222222222, rtol=RTOL
        )
        np.testing.assert_allclose(
            golden_debug.raw_segments.std(), 3210.265469172562, rtol=RTOL
        )

    def test_filtered_statistics(self, golden_debug):
        np.testing.assert_allclose(
            golden_debug.filtered.mean(), -0.224150778094, rtol=RTOL, atol=ATOL
        )
        np.testing.assert_allclose(
            golden_debug.filtered.std(), 473.470362678735, rtol=RTOL
        )

    def test_normalized_statistics(self, golden_debug):
        normalized = golden_debug.normalized
        np.testing.assert_allclose(normalized.mean(), 0.522214293346, rtol=RTOL)
        np.testing.assert_allclose(normalized.std(), 0.241017778097, rtol=RTOL)
        np.testing.assert_allclose(
            normalized[0, :4],
            [1.0, 0.58036101, 0.2864406, 0.37748314],
            rtol=RTOL,
            atol=ATOL,
        )


class TestFrontendExtractorGolden:
    def test_frontend_values(self, golden_debug):
        features = make_frontend("spectral").transform(golden_debug.normalized)
        assert features.shape == (2, 6, 31)
        np.testing.assert_allclose(features.mean(), 0.838642876606, rtol=RTOL)
        np.testing.assert_allclose(features.std(), 0.413051957092, rtol=RTOL)
        np.testing.assert_allclose(features.max(), 2.691435380339, rtol=RTOL)

    def test_embedding_values(self, golden_debug, golden_model):
        features = make_frontend("spectral").transform(golden_debug.normalized)
        embedding = golden_model.embed(features[None].astype(np.float64))[0]
        assert embedding.shape == (64,)
        np.testing.assert_allclose(embedding.mean(), 0.509803995781, rtol=RTOL)
        np.testing.assert_allclose(embedding.std(), 0.048202714804, rtol=RTOL)
        np.testing.assert_allclose(
            embedding[:5],
            [0.55310001, 0.35216163, 0.47636362, 0.4682151, 0.62798484],
            rtol=RTOL,
            atol=ATOL,
        )


class TestVerifyChainGolden:
    @pytest.fixture(scope="class")
    def chain(self, golden_model):
        engine = InferenceEngine(
            golden_model, Preprocessor(), make_frontend("spectral")
        )
        transform = CancelableTransform(64, seed=5)
        return engine, transform

    def test_probe_vector(self, chain, golden_recording):
        engine, transform = chain
        probe = transform.apply(engine.embed_one(golden_recording))
        np.testing.assert_allclose(np.linalg.norm(probe), 0.362054708368, rtol=RTOL)
        np.testing.assert_allclose(
            probe[:3],
            [0.00394837, -0.02351611, 0.0064953],
            rtol=RTOL,
            atol=ATOL,
        )

    def test_genuine_and_impostor_distances(
        self, chain, golden_population, golden_recorder, golden_recording
    ):
        engine, transform = chain
        template = np.mean(
            [
                transform.apply(
                    engine.embed_one(
                        golden_recorder.record(golden_population[0], trial_index=t)
                    )
                )
                for t in (1, 2, 3)
            ],
            axis=0,
        )
        genuine = transform.apply(engine.embed_one(golden_recording))
        impostor = transform.apply(
            engine.embed_one(
                golden_recorder.record(golden_population[1], trial_index=0)
            )
        )
        np.testing.assert_allclose(
            cosine_distance(genuine, template), 0.028316409621, rtol=RTOL
        )
        np.testing.assert_allclose(
            cosine_distance(impostor, template), 0.171267697721, rtol=RTOL
        )

    def test_batch_path_matches_single_path(self, chain, golden_recording):
        """The engine batch embed must reproduce embed_one bit-for-bit."""
        engine, _ = chain
        single = engine.embed_one(golden_recording)
        outcome = engine.embed([golden_recording, golden_recording])
        assert outcome.num_ok == 2
        np.testing.assert_allclose(outcome.values[0], single, rtol=1e-12)
        np.testing.assert_allclose(outcome.values[1], single, rtol=1e-12)

    def test_centering_is_midpoint_shift(self, chain, golden_recording):
        engine, _ = chain
        centred = engine.embed_one(golden_recording)
        assert np.all(centred > -0.5) and np.all(centred < 0.5)
        np.testing.assert_allclose(
            center_embedding(centred + 0.5), centred, rtol=1e-12
        )


class TestStreamingGolden:
    """Fixed-seed goldens for the streaming layer (DESIGN.md §4j).

    Pins the streaming detector's onset, a two-event session's state
    trace (exact integers — sample positions, not numerics), and the
    decision distances, so a refactor of the ring buffer, the scan
    order, or the session state machine that shifts any observable
    behaviour fails loudly here.
    """

    @pytest.fixture(scope="class")
    def golden_system(self, golden_model, golden_population, golden_recorder):
        from repro.config import MandiPassConfig, SecurityConfig
        from repro.core.system import MandiPass

        config = MandiPassConfig(
            extractor=golden_model.config,
            security=SecurityConfig(
                template_dim=64, projected_dim=64, matrix_seed=5
            ),
        )
        system = MandiPass(golden_model, config=config)
        system.enroll(
            "golden",
            [
                golden_recorder.record(golden_population[0], trial_index=t)
                for t in (1, 2, 3)
            ],
        )
        return system

    def test_streaming_onset_matches_batch_golden(self, golden_recording):
        from repro.stream import StreamingOnsetDetector

        detector = StreamingOnsetDetector()
        onset = None
        for pos in range(0, golden_recording.shape[0], 35):
            onset = detector.push(golden_recording[pos : pos + 35])
            if onset is not None:
                break
        assert onset == 63  # == TestPreprocessGolden.test_onset_index
        assert detector.final_at == 100

    def test_session_trace_golden(
        self, golden_system, golden_recording, golden_recorder, golden_population
    ):
        from repro.config import StreamConfig
        from repro.stream import StreamSession

        stream = np.concatenate(
            [
                golden_recording,
                golden_recorder.record(golden_population[0], trial_index=4),
            ],
            axis=0,
        )
        session = StreamSession(
            "golden",
            system=golden_system,
            config=StreamConfig(cooldown_samples=105),
        )
        decisions = []
        for pos in range(0, stream.shape[0], 35):
            decisions += session.push(stream[pos : pos + 35])
        decisions += session.close()

        assert [
            (d.onset, d.window_start, d.window_end) for d in decisions
        ] == [(63, 0, 123), (237, 228, 297)]
        assert session.trace == (
            ("IDLE", 0),
            ("ONSET", 100),
            ("CAPTURING", 100),
            ("VERIFYING", 123),
            ("COOLDOWN", 123),
            ("IDLE", 228),
            ("ONSET", 278),
            ("CAPTURING", 278),
            ("VERIFYING", 297),
            ("COOLDOWN", 297),
            ("IDLE", 402),
        )

    def test_session_decision_distances_golden(
        self, golden_system, golden_recording, golden_recorder, golden_population
    ):
        from repro.config import StreamConfig
        from repro.stream import StreamSession

        stream = np.concatenate(
            [
                golden_recording,
                golden_recorder.record(golden_population[0], trial_index=4),
            ],
            axis=0,
        )
        session = StreamSession(
            "golden",
            system=golden_system,
            config=StreamConfig(cooldown_samples=105),
        )
        decisions = []
        for pos in range(0, stream.shape[0], 35):
            decisions += session.push(stream[pos : pos + 35])
        decisions += session.close()

        assert [d.result.accepted for d in decisions] == [True, True]
        np.testing.assert_allclose(
            [d.result.distance for d in decisions],
            [0.028316409621, 0.057954878964],
            rtol=RTOL,
        )
        # The first streaming decision IS the batch verify on the full
        # first recording — bitwise, not approximately.
        batch = golden_system.verify("golden", golden_recording)
        assert decisions[0].result.distance == batch.distance
