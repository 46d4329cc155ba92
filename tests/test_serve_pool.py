"""Multi-process serving: shm hygiene, epoch parity, pool lifecycle.

The expensive spawn-backed tests are few and share servers where they
can — on a 1-CPU container each worker process costs real wall-clock
to boot.  Everything that can be verified without a child process
(segment packing, epoch export/import, the worker's model bootstrap,
metrics merging) is, so failures localise to the layer that broke.

Every test asserts the shared-memory namespace is clean on teardown —
a leaked segment in any test here is a bug in pool/server shutdown,
not acceptable collateral.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ServingConfig
from repro.errors import (
    ConfigError,
    ModelError,
    ServingError,
    ShapeError,
    VerificationError,
    WorkerKilledError,
)
from repro.serve import AuthServer, RequestStatus, WorkerMetricsAggregator
from repro.serve import shm as serve_shm
from repro.serve.pool import WorkerPool
from repro.serve.server import RequestKind

from tests.test_serve import _assert_same_result, watchdog


@pytest.fixture(autouse=True)
def _clean_shm_namespace():
    yield
    serve_shm.assert_no_leaked_segments()


@pytest.fixture(scope="module")
def pool_system():
    """(system, user_id, probes) with a second user so identify matters."""
    from repro.imu import Recorder
    from repro.physio import sample_population
    from repro.serve.loadgen import build_bench_system

    system, user_id, probes = build_bench_system(dtype="float32", num_probes=10)
    population = sample_population(4, 1, seed=0)
    recorder = Recorder(seed=7)
    system.enroll(
        "second", [recorder.record(population[1], trial_index=i) for i in range(4)]
    )
    return system, user_id, probes


# -- shared-memory segment layer (no child processes) ---------------------


class TestShm:
    def test_publish_attach_roundtrip_bitwise(self):
        arrays = {
            "a": np.arange(12, dtype=np.float64).reshape(3, 4),
            "b": np.arange(5, dtype=np.float32),
            "flags": np.array([True, False, True]),
        }
        segment, manifest = serve_shm.publish(arrays, "t")
        try:
            assert manifest["segment"] == segment.name
            handle, views = serve_shm.attach(manifest)
            for key, value in arrays.items():
                assert views[key].dtype == value.dtype
                assert views[key].tobytes() == value.tobytes()
            # Workers must not be able to scribble on shared state.
            assert not views["a"].flags.writeable
            with pytest.raises((ValueError, RuntimeError)):
                views["a"][0, 0] = 1.0
            del views
            handle.close()
        finally:
            serve_shm.unlink(segment)
        assert serve_shm.leaked_segments() == []

    def test_entries_are_aligned(self):
        arrays = {
            "odd": np.arange(3, dtype=np.uint8),
            "next": np.arange(4, dtype=np.float64),
        }
        segment, manifest = serve_shm.publish(arrays, "t")
        try:
            for entry in manifest["entries"].values():
                assert entry["offset"] % serve_shm.ALIGNMENT == 0
        finally:
            serve_shm.unlink(segment)

    def test_empty_publish_has_no_segment(self):
        segment, manifest = serve_shm.publish({}, "t")
        assert segment is None
        assert manifest["segment"] is None
        handle, views = serve_shm.attach(manifest)
        assert handle is None and views == {}

    def test_attach_after_unlink_is_a_serving_error(self):
        segment, manifest = serve_shm.publish(
            {"x": np.zeros(4, dtype=np.float64)}, "t"
        )
        serve_shm.unlink(segment)
        with pytest.raises(ServingError, match="retired"):
            serve_shm.attach(manifest)

    def test_unlink_is_idempotent(self):
        segment, _ = serve_shm.publish({"x": np.zeros(2)}, "t")
        serve_shm.unlink(segment)
        serve_shm.unlink(segment)  # second call must not raise
        serve_shm.unlink(None)

    def test_leak_detection_and_assert_helper(self):
        segment, _ = serve_shm.publish({"x": np.zeros(2)}, "leak")
        assert segment.name in serve_shm.leaked_segments()
        with pytest.raises(AssertionError, match="leaked shared-memory"):
            serve_shm.assert_no_leaked_segments()
        # The helper cleans up after composing the message, so the
        # namespace is usable again (and this test's teardown passes).
        assert serve_shm.leaked_segments() == []


# -- gallery epoch export/import (no child processes) ---------------------


class TestEpochExport:
    def test_from_epoch_scores_bitwise_identical(self, pool_system):
        system, user_id, probes = pool_system
        version, arrays, meta = system.export_epoch()
        assert version == system.template_version
        segment, manifest = serve_shm.publish(arrays, "epoch")
        try:
            handle, views = serve_shm.attach(manifest)
            from repro.core.gallery.sharded import ShardedGallery

            clone = ShardedGallery.from_epoch(system.config.gallery, views, meta)
            embeddings = system.engine.embed(probes[:6]).values
            want = system._current_gallery().best_match(embeddings)
            got = clone.best_match(embeddings)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.user_id == w.user_id
                assert g.distance == w.distance  # bitwise, not approx
            del views, clone
        finally:
            serve_shm.unlink(segment)

    def test_row_matches_parent_transform(self, pool_system):
        system, user_id, _ = pool_system
        _, arrays, meta = system.export_epoch()
        segment, manifest = serve_shm.publish(arrays, "epoch")
        try:
            _, views = serve_shm.attach(manifest)
            from repro.core.gallery.sharded import ShardedGallery

            clone = ShardedGallery.from_epoch(system.config.gallery, views, meta)
            matrix, template = clone.row(user_id)
            transform = system._transforms[user_id]
            assert np.asarray(matrix).tobytes() == np.asarray(
                transform.matrix, dtype=np.float64
            ).tobytes()
            assert clone.row("nobody") is None
            del views, clone, matrix, template
        finally:
            serve_shm.unlink(segment)

    def test_export_with_pending_mutations_refuses(self, pool_system):
        system, *_ = pool_system
        gallery = system._current_gallery()
        gallery.sync()
        in_dim = gallery.in_dim or 4
        out_dim = gallery.out_dim or 4
        gallery.upsert(
            "phantom", np.zeros((in_dim, out_dim)), np.zeros(out_dim)
        )
        try:
            with pytest.raises(ShapeError, match="pending"):
                gallery.export_epoch()
        finally:
            gallery._log.pop()  # drop the phantom before it ever applies

    def test_empty_system_exports_empty_epoch(self):
        from repro.config import ExtractorConfig, MandiPassConfig, SecurityConfig
        from repro.core.extractor import TwoBranchExtractor
        from repro.core.system import MandiPass

        config = MandiPassConfig(
            extractor=ExtractorConfig(embedding_dim=32, channels=(2, 4, 8)),
            security=SecurityConfig(template_dim=32, projected_dim=32),
        )
        model = TwoBranchExtractor(config.extractor, num_classes=2, seed=0).eval()
        system = MandiPass(model, config=config)
        version, arrays, meta = system.export_epoch()
        assert version == 0 and arrays == {} and meta["shards"] == []


# -- worker model bootstrap (no child processes) -------------------------


class TestWorkerBootstrap:
    def test_loaded_state_embeds_bitwise_identically(self, pool_system):
        """The replica's path: state dict → load_state → frozen forward."""
        import pickle

        from repro.core.engine import InferenceEngine
        from repro.core.extractor import TwoBranchExtractor
        from repro.core.frontend import make_frontend
        from repro.dsp.pipeline import Preprocessor

        system, _, probes = pool_system
        state = pickle.loads(pickle.dumps(system.model.state_dict()))
        clone = TwoBranchExtractor(system.config.extractor, num_classes=4, seed=1234)
        clone.load_state(state)
        engine = InferenceEngine(
            clone,
            Preprocessor(system.config.preprocess),
            make_frontend(system.config.extractor.frontend),
            batch_size=system.config.inference.batch_size,
            compute_dtype=system.config.inference.compute_dtype,
            resilience=system.config.resilience,
        )
        want = system.engine.embed(probes[:3]).values
        got = engine.embed(probes[:3]).values
        assert got.tobytes() == want.tobytes()

    def test_load_state_rejects_malformed_state(self, pool_system):
        system, *_ = pool_system
        from repro.core.extractor import TwoBranchExtractor

        state = dict(system.model.state_dict())
        key = next(iter(state))
        state[key] = state[key][..., :-1]
        clone = TwoBranchExtractor(system.config.extractor, num_classes=4, seed=0)
        with pytest.raises(ModelError, match="shape mismatch"):
            clone.load_state(state)


# -- config + metrics aggregation (no child processes) --------------------


class TestPoolConfig:
    def test_new_knobs_validate(self):
        ServingConfig(num_worker_processes=2)
        with pytest.raises(ConfigError):
            ServingConfig(num_worker_processes=-1)


class TestWorkerMetricsAggregator:
    SNAP_A = {
        "counters": {'decisions_total{decision="accept"}': 3.0},
        "gauges": {"serve_worker_mapped_generation": 2.0},
        "histograms": {},
    }
    SNAP_B = {
        "counters": {'decisions_total{decision="accept"}': 5.0},
        "gauges": {"serve_worker_mapped_generation": 3.0},
        "histograms": {},
    }

    def test_latest_snapshot_wins_and_merge_is_idempotent(self):
        agg = WorkerMetricsAggregator()
        agg.update(0, 0, self.SNAP_A)
        agg.update(0, 0, self.SNAP_B)  # cumulative: B supersedes A
        agg.update(0, 0, self.SNAP_B)  # replay changes nothing
        merged = agg.merged()
        assert merged["counters"]['decisions_total{decision="accept"}'] == 5.0

    def test_incarnations_sum_but_replays_do_not(self):
        agg = WorkerMetricsAggregator()
        agg.update(0, 0, self.SNAP_B)
        agg.update(0, 1, self.SNAP_A)  # respawn: fresh registry, adds
        agg.update(1, 0, self.SNAP_A)  # sibling process, adds
        agg.update(0, 1, self.SNAP_A)  # replay: no double count
        merged = agg.merged()
        assert merged["counters"]['decisions_total{decision="accept"}'] == 11.0
        # Gauges merge by max — a point-in-time reading, not a total.
        assert merged["gauges"]["serve_worker_mapped_generation"] == 3.0

    def test_empty_aggregator_merges_to_empty(self):
        merged = WorkerMetricsAggregator().merged()
        assert merged["counters"] == {}
        assert merged["gauges"] == {}
        assert merged["histograms"] == {}


# -- live worker processes ------------------------------------------------


class TestWorkerPool:
    @watchdog(180)
    def test_pool_parity_epoch_swap_and_clean_stop(self, pool_system):
        """One pool exercise: parity, publish, revoke, stop — no leaks.

        Grouped deliberately: each spawn costs seconds on a small
        container, so the lifecycle assertions share two processes.
        """
        from repro.imu import Recorder
        from repro.physio import sample_population

        system, user_id, probes = pool_system
        pool = WorkerPool(system, ServingConfig(num_worker_processes=2))
        pool.start()
        try:
            pool.ensure_current_epoch()
            first_generation = pool.epoch_generation

            got = pool.execute(0, RequestKind.VERIFY, user_id, probes[:3])
            want = system.verify_many(user_id, probes[:3])
            for g, w in zip(got, want):
                _assert_same_result(g, w, strict=True)

            got = pool.execute(1, RequestKind.IDENTIFY, None, probes[:4])
            want = system.identify_many(probes[:4])
            for g, w in zip(got, want):
                _assert_same_result(g, w, strict=True)

            # Unknown user: the worker raises the exact facade error.
            with pytest.raises(VerificationError, match="not enrolled"):
                pool.execute(0, RequestKind.VERIFY, "ghost", probes[:1])

            # Mutations republish: enroll, then a worker that maps the
            # new epoch scores the new user loop-exactly.
            population = sample_population(4, 1, seed=0)
            recorder = Recorder(seed=21)
            system.enroll(
                "third",
                [recorder.record(population[2], trial_index=40 + i) for i in range(4)],
            )
            pool.ensure_current_epoch()
            assert pool.epoch_generation > first_generation
            got = pool.execute(0, RequestKind.IDENTIFY, None, probes[:4])
            want = system.identify_many(probes[:4])
            for g, w in zip(got, want):
                _assert_same_result(g, w, strict=True)

            # Revoke propagates the same way (tombstone in the epoch).
            system.revoke("third")
            pool.ensure_current_epoch()
            got = pool.execute(1, RequestKind.IDENTIFY, None, probes[:4])
            want = system.identify_many(probes[:4])
            for g, w in zip(got, want):
                _assert_same_result(g, w, strict=True)

            # Publishing with nothing new is a no-op, not a new epoch.
            generation = pool.epoch_generation
            pool.ensure_current_epoch()
            assert pool.epoch_generation == generation
        finally:
            pool.stop()
        assert serve_shm.leaked_segments() == []
        # stop() is idempotent, and a stopped pool refuses work.
        pool.stop()
        with pytest.raises(ServingError):
            pool.execute(0, RequestKind.VERIFY, user_id, probes[:1])

    @watchdog(180)
    def test_server_mp_bitwise_parity_when_batch_matches(self, pool_system):
        system, user_id, probes = pool_system
        direct_verify = system.verify_many(user_id, probes)
        direct_identify = system.identify_many(probes[:6])
        config = ServingConfig(num_worker_processes=2, max_batch_size=64)
        server = AuthServer(system, config=config)
        # Queue everything before start: one micro-batch per kind with
        # the direct call's exact composition -> bitwise equality even
        # though the scoring ran in a different process.
        verify_futures = [server.verify(user_id, probe) for probe in probes]
        identify_futures = [server.identify(probe) for probe in probes[:6]]
        server.start()
        served_verify = [f.result(timeout=60) for f in verify_futures]
        served_identify = [f.result(timeout=60) for f in identify_futures]
        server.stop()
        for got, want in zip(served_verify, direct_verify):
            _assert_same_result(got, want, strict=True)
        for got, want in zip(served_identify, direct_identify):
            _assert_same_result(got, want, strict=True)
        assert serve_shm.leaked_segments() == []

    @watchdog(240)
    def test_enroll_mid_stream_returns_only_loop_exact_decisions(
        self, pool_system
    ):
        """Epoch swap under sustained load: every result is loop-exact.

        While identifies stream through a 1-process pool, the parent
        enrolls a new user (triggering a copy-on-write republish).
        Each served decision must equal the direct result against
        either the pre-enroll or the post-enroll gallery — never a
        torn hybrid — and enroll never had to wait for the stream.
        """
        from repro.imu import Recorder
        from repro.physio import sample_population

        system, user_id, probes = pool_system
        probe = probes[1]
        pre = system.identify_many([probe])[0]
        config = ServingConfig(num_worker_processes=1, max_batch_size=1)
        population = sample_population(4, 1, seed=0)
        recorder = Recorder(seed=33)
        enrollment = [
            recorder.record(population[3], trial_index=60 + i) for i in range(4)
        ]
        served: list = []
        try:
            with AuthServer(system, config=config) as server:
                for index in range(12):
                    if index == 4:
                        system.enroll("mid-stream", enrollment)
                    served.append(server.identify(probe).result(timeout=60))
            post = system.identify_many([probe])[0]
            for result in served:
                matches_pre = (
                    result.user_id == pre.user_id
                    and result.distance == pre.distance
                )
                matches_post = (
                    result.user_id == post.user_id
                    and result.distance == post.distance
                )
                assert matches_pre or matches_post, result
            # The swap actually happened while the stream was running.
            tail = served[-1]
            assert (
                tail.user_id == post.user_id and tail.distance == post.distance
            )
        finally:
            system.revoke("mid-stream")
        assert serve_shm.leaked_segments() == []

    @watchdog(240)
    def test_worker_process_kill_respawns_and_settles_exactly_once(
        self, pool_system, monkeypatch
    ):
        """Injected serve.worker kill terminates the real process.

        The doomed batch fails with ``WorkerKilledError`` (settled
        exactly once through the idempotent future), the pool respawns
        the process, and fresh traffic is served by the replacement —
        with no leaked segments from the dead incarnation.
        """
        from repro.faults import FaultPlan, FaultRule
        from repro.serve.server import AuthFuture

        system, user_id, probes = pool_system
        settle_counts: dict[int, int] = {}
        original = AuthFuture._settle

        def counting(self, value, error, status):
            settled = original(self, value, error, status)
            if settled:
                settle_counts[id(self)] = settle_counts.get(id(self), 0) + 1
            return settled

        monkeypatch.setattr(AuthFuture, "_settle", counting)
        config = ServingConfig(num_worker_processes=1, max_batch_size=4)
        server = AuthServer(system, config=config)
        plan = FaultPlan([FaultRule("serve.worker", "kill", max_fires=1)], seed=0)
        with plan.active():
            # Queued before start, so the one killed batch holds all 4.
            doomed = [server.verify(user_id, probes[i]) for i in range(4)]
            with server:
                for future in doomed:
                    assert future.wait(60)
                    assert future.status is RequestStatus.FAILED
                    assert isinstance(future.exception(0), WorkerKilledError)
                # The respawned process serves fresh traffic, and its
                # results still match the direct path bitwise.
                survivor = server.verify(user_id, probes[4])
                assert survivor.wait(60)
                assert survivor.status is RequestStatus.OK
                direct = system.verify_many(user_id, [probes[4]])[0]
                _assert_same_result(survivor.result(0), direct, strict=True)
        assert set(settle_counts.values()) == {1}
        assert len(settle_counts) == 5
        assert serve_shm.leaked_segments() == []
