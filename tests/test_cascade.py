"""Early-exit cascade (:mod:`repro.cascade`, DESIGN.md §4k).

Covers the four pieces and their integration surface:

* ``CascadeConfig`` validation (inverted bands rejected);
* ``ExitPolicy`` band routing + deterministic audit sampling, with a
  hypothesis property pinning band-widening monotonicity;
* the ``Stage1Gate`` feature scorer and lifecycle;
* the system facade: disabled-default bitwise parity, exit-provenance
  accounting, forced-full audit parity, stage-1 fault fallback, and
  the serving / streaming integration points.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro import obs
from repro.cascade import (
    ROUTE_ACCEPT,
    ROUTE_BORDERLINE,
    ROUTE_FORCED,
    ROUTE_REJECT,
    ExitPolicy,
)
from repro.cascade.calibrate import calibrate_cascade
from repro.config import (
    CascadeConfig,
    ExtractorConfig,
    MandiPassConfig,
    SecurityConfig,
    StreamConfig,
)
from repro.core.extractor import TwoBranchExtractor
from repro.core.system import MandiPass
from repro.errors import ConfigError, VerificationError
from repro.faults.plan import FaultPlan, FaultRule
from repro.imu import Recorder
from repro.physio import sample_population

#: Band that exits essentially everything on the synthetic substrate
#: (genuine z-scores land near 1, impostors near 6).
TIGHT_BAND = {"t_accept": 1.2, "t_reject": 2.5}


def build_system(enabled: bool = True, **cascade_kwargs) -> MandiPass:
    extractor_config = ExtractorConfig(embedding_dim=64, channels=(4, 8, 16))
    config = MandiPassConfig(
        extractor=extractor_config,
        security=SecurityConfig(
            template_dim=64, projected_dim=64, matrix_seed=1
        ),
        cascade=CascadeConfig(enabled=enabled, **cascade_kwargs),
    )
    model = TwoBranchExtractor(
        extractor_config, num_classes=4, seed=0
    ).eval()
    return MandiPass(model, config=config)


@pytest.fixture(scope="module")
def probes():
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


# -- config validation ----------------------------------------------------


class TestCascadeConfig:
    def test_disabled_by_default(self):
        assert CascadeConfig().enabled is False

    def test_inverted_band_rejected(self):
        with pytest.raises(ConfigError, match="inverted exit band"):
            CascadeConfig(t_accept=0.8, t_reject=0.2)

    def test_degenerate_band_allowed(self):
        CascadeConfig(t_accept=0.5, t_reject=0.5)

    def test_forced_fraction_bounds(self):
        with pytest.raises(ConfigError):
            CascadeConfig(forced_full_fraction=1.5)


# -- exit policy ----------------------------------------------------------


class TestExitPolicy:
    def test_band_routing_with_inclusive_edges(self):
        policy = ExitPolicy(
            CascadeConfig(enabled=True, t_accept=1.0, t_reject=2.0)
        )
        routes = policy.route(np.array([0.2, 1.0, 1.5, 2.0, 9.0]))
        assert routes.tolist() == [
            ROUTE_ACCEPT,
            ROUTE_ACCEPT,
            ROUTE_BORDERLINE,
            ROUTE_BORDERLINE,  # the reject edge is exclusive
            ROUTE_REJECT,
        ]

    def test_degenerate_band_accept_edge_wins(self):
        policy = ExitPolicy(
            CascadeConfig(enabled=True, t_accept=1.0, t_reject=1.0)
        )
        assert policy.route(np.array([1.0]))[0] == ROUTE_ACCEPT

    def test_forced_stride_is_deterministic_and_batch_invariant(self):
        config = CascadeConfig(
            enabled=True, t_accept=1.0, t_reject=2.0,
            forced_full_fraction=0.5,
        )
        scores = np.full(8, 0.1)  # all would exit as accepts
        one_batch = ExitPolicy(config).route(scores)
        split = ExitPolicy(config)
        two_batches = np.concatenate(
            [split.route(scores[:3]), split.route(scores[3:])]
        )
        assert one_batch.tolist() == two_batches.tolist()
        assert int((one_batch == ROUTE_FORCED).sum()) == 4

    def test_forced_fraction_one_forces_everything(self):
        policy = ExitPolicy(
            CascadeConfig(
                enabled=True, t_accept=1.0, t_reject=2.0,
                forced_full_fraction=1.0,
            )
        )
        assert (policy.route(np.array([0.1, 1.5, 9.0])) == ROUTE_FORCED).all()

    def test_retune_revalidates(self):
        policy = ExitPolicy(CascadeConfig(enabled=True))
        policy.retune(0.3, 1.1)
        assert (policy.t_accept, policy.t_reject) == (0.3, 1.1)
        with pytest.raises(ConfigError, match="inverted exit band"):
            policy.retune(1.1, 0.3)
        # a failed retune leaves the previous band installed
        assert (policy.t_accept, policy.t_reject) == (0.3, 1.1)


class TestExitMonotonicity:
    """Widening the borderline band never flips a surviving exit."""

    @given(
        scores=st.lists(
            st.floats(0.0, 10.0, allow_nan=False), min_size=1, max_size=32
        ),
        t_accept=st.floats(0.0, 5.0, allow_nan=False),
        gap=st.floats(0.0, 5.0, allow_nan=False),
        widen_accept=st.floats(0.0, 5.0, allow_nan=False),
        widen_reject=st.floats(0.0, 5.0, allow_nan=False),
    )
    @example(
        scores=[1.0], t_accept=1.0, gap=0.0, widen_accept=1.0, widen_reject=0.0
    )
    def test_widening_only_moves_probes_into_stage2(
        self, scores, t_accept, gap, widen_accept, widen_reject
    ):
        t_reject = t_accept + gap
        narrow = ExitPolicy(
            CascadeConfig(
                enabled=True, t_accept=t_accept, t_reject=t_reject
            )
        )
        wide = ExitPolicy(
            CascadeConfig(
                enabled=True,
                t_accept=max(0.0, t_accept - widen_accept),
                t_reject=t_reject + widen_reject,
            )
        )
        values = np.asarray(scores)
        narrow_routes = narrow.route(values)
        wide_routes = wide.route(values)
        # Every exit that survives the widening keeps its decision;
        # the only other legal transition is exit -> borderline.
        surviving = wide_routes != ROUTE_BORDERLINE
        assert (wide_routes[surviving] == narrow_routes[surviving]).all()
        moved = wide_routes != narrow_routes
        assert (wide_routes[moved] == ROUTE_BORDERLINE).all()


# -- stage-1 scorers ------------------------------------------------------


class TestStage1Gate:
    def _signals(self, system, recordings):
        signals, _, _, _ = system.preprocessor.process_batch_detailed(
            recordings,
            min_usable_axes=system.config.resilience.min_usable_axes,
        )
        return signals

    def test_features_scorer_separates_population(self, probes):
        enroll, genuine, impostor = probes
        system = build_system()
        system.enroll("alice", enroll)
        gate = system.cascade_gate
        assert gate.has_user("alice")
        genuine_scores = gate.scores("alice", self._signals(system, genuine))
        impostor_scores = gate.scores("alice", self._signals(system, impostor))
        assert genuine_scores.max() < impostor_scores.min()

    def test_fit_requires_signals(self):
        system = build_system()
        with pytest.raises(VerificationError):
            system.cascade_gate.fit_user("alice", np.empty((0, 6, 105)))

    def test_unknown_user_raises(self, probes):
        _, genuine, _ = probes
        system = build_system()
        with pytest.raises(VerificationError):
            system.cascade_gate.scores(
                "nobody", self._signals(system, genuine)
            )

    def test_revoke_drops_gate_reference(self, probes):
        enroll, _, _ = probes
        system = build_system()
        system.enroll("alice", enroll)
        assert system.cascade_gate.has_user("alice")
        system.revoke("alice")
        assert not system.cascade_gate.has_user("alice")


# -- system facade --------------------------------------------------------


class TestCascadeSystem:
    def test_disabled_is_bitwise_identical(self, probes):
        enroll, genuine, impostor = probes
        plain = build_system(enabled=False)
        disabled = build_system(enabled=False)
        plain.enroll("alice", enroll)
        disabled.enroll("alice", enroll)
        queue = genuine + impostor
        for a, b in zip(
            plain.verify_many("alice", queue),
            disabled.verify_many("alice", queue),
        ):
            assert a.distance == b.distance
            assert a.accepted == b.accepted
            assert b.exit_stage == "full"

    def test_all_borderline_band_matches_full_pipeline(self, probes):
        enroll, genuine, impostor = probes
        system = build_system(t_accept=0.0, t_reject=1e9)
        system.enroll("alice", enroll)
        queue = genuine + impostor
        cascade = system.verify_many("alice", queue)
        full = system.verify_many("alice", queue, full_pipeline=True)
        for c, f in zip(cascade, full):
            assert c.distance == f.distance
            assert c.accepted == f.accepted
            assert c.exit_stage == "stage2"
            assert f.exit_stage == "full"

    def test_exit_accounting_covers_every_probe(self, probes):
        enroll, genuine, impostor = probes
        system = build_system(**TIGHT_BAND)
        system.enroll("alice", enroll)
        queue = genuine + impostor + [np.zeros((210, 6))]
        with obs.collecting() as registry:
            results = system.verify_many("alice", queue)
            snapshot = registry.to_dict()
        exits = {
            key.split('stage="', 1)[1].rstrip('"}'): int(value)
            for key, value in snapshot["counters"].items()
            if key.startswith("cascade_exits_total{stage=")
        }
        assert sum(exits.values()) == len(queue)
        assert exits.get("stage1_accept", 0) >= len(genuine) - 1
        assert exits.get("stage1_reject", 0) >= len(impostor) - 1
        assert exits.get("refused", 0) == 1
        stages = [r.exit_stage for r in results]
        assert stages[-1] == "refused"
        assert set(stages) <= {"stage1", "stage2", "refused"}

    def test_stage1_exits_decide_correctly(self, probes):
        enroll, genuine, impostor = probes
        system = build_system(**TIGHT_BAND)
        system.enroll("alice", enroll)
        for result in system.verify_many("alice", genuine):
            if result.exit_stage == "stage1":
                assert result.accepted
        for result in system.verify_many("alice", impostor):
            if result.exit_stage == "stage1":
                assert not result.accepted

    def test_forced_full_audit_matches_full_pipeline(self, probes):
        enroll, genuine, impostor = probes
        system = build_system(forced_full_fraction=1.0, **TIGHT_BAND)
        system.enroll("alice", enroll)
        queue = genuine + impostor
        forced = system.verify_many("alice", queue)
        full = system.verify_many("alice", queue, full_pipeline=True)
        for a, b in zip(forced, full):
            assert a.exit_stage == "stage2_forced"
            assert a.distance == b.distance
            assert a.accepted == b.accepted

    def test_stage1_fault_degrades_to_full_pipeline(self, probes):
        enroll, genuine, impostor = probes
        system = build_system(**TIGHT_BAND)
        system.enroll("alice", enroll)
        queue = genuine + impostor
        baseline = system.verify_many("alice", queue, full_pipeline=True)
        rule = FaultRule("cascade.stage1", "error")
        with obs.collecting() as registry:
            with FaultPlan([rule], seed=0).active():
                degraded = system.verify_many("alice", queue)
            snapshot = registry.to_dict()
        for d, b in zip(degraded, baseline):
            assert d.exit_stage == "full"
            assert d.distance == b.distance
            assert d.accepted == b.accepted
        key = 'cascade_exits_total{stage="fallback_full"}'
        assert snapshot["counters"][key] == len(queue)

    @pytest.mark.parametrize(
        "path",
        [
            "verify",
            "cascade_verify",
            "cascade_stage1_fault",
            "identify",
            "identify_fallback",
            "pool_identify",
        ],
    )
    def test_decisions_total_counts_every_request(self, probes, path):
        """Every request lands in exactly one ``decisions_total`` label."""
        enroll, genuine, impostor = probes
        system = build_system(
            enabled=path.startswith("cascade"), **TIGHT_BAND
        )
        system.enroll("alice", enroll)
        queue = genuine[:3] + impostor[:3] + [np.zeros((210, 6))]
        with obs.collecting() as registry:
            if path == "cascade_stage1_fault":
                rule = FaultRule("cascade.stage1", "error")
                with FaultPlan([rule], seed=0).active():
                    results = system.verify_many("alice", queue)
                assert {r.exit_stage for r in results[:-1]} == {"full"}
            elif path.endswith("verify"):
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

    def test_retune_requires_enabled_cascade(self, probes):
        system = build_system(enabled=False)
        with pytest.raises(ConfigError):
            system.retune_cascade(0.1, 2.0)
        enabled = build_system()
        enabled.retune_cascade(0.9, 3.0)
        assert enabled.cascade_policy.t_accept == 0.9

    def test_model_bytes_gauges_published(self):
        with obs.collecting() as registry:
            build_system(enabled=False)
            snapshot = registry.to_dict()
        assert snapshot["gauges"]['model_bytes{dtype="float32"}'] > 0


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


# -- calibration ----------------------------------------------------------


class TestCalibration:
    def test_calibrated_band_is_feasible_on_substrate(self, probes):
        enroll, genuine, impostor = probes
        system = build_system(epsilon_far=0.25, epsilon_frr=0.25)
        system.enroll("alice", enroll)
        calibration = calibrate_cascade(
            system, "alice", genuine, impostor, grid_size=6
        )
        assert calibration.feasible
        assert 0.0 <= calibration.exit_fraction <= 1.0
        assert calibration.t_reject >= calibration.t_accept
        assert calibration.points
        system.retune_cascade(calibration.t_accept, calibration.t_reject)
        results = system.verify_many("alice", genuine + impostor)
        assert all(r.exit_stage in ("stage1", "stage2") for r in results)


# -- serving integration --------------------------------------------------


class TestServeCascade:
    def test_full_pipeline_requests_batch_separately(self):
        from repro.serve.server import ServeRequest

        def request(full_pipeline):
            return ServeRequest(
                kind="verify",
                user_id="alice",
                recording=None,
                future=None,
                deadline=None,
                submitted_at=0.0,
                full_pipeline=full_pipeline,
            )

        assert request(False).key != request(True).key
        assert request(False).key == request(False).key

    def test_server_threads_full_pipeline_flag(self, probes):
        from repro.serve import AuthServer

        enroll, genuine, _ = probes
        system = build_system(**TIGHT_BAND)
        system.enroll("alice", enroll)
        server = AuthServer(system).start()
        try:
            via_stage1 = server.verify("alice", genuine[0]).result(timeout=30)
            bypassed = server.verify(
                "alice", genuine[0], full_pipeline=True
            ).result(timeout=30)
        finally:
            server.stop()
        assert via_stage1.exit_stage == "stage1"
        assert bypassed.exit_stage == "full"
        assert via_stage1.accepted and bypassed.accepted


# -- streaming integration ------------------------------------------------


class TestStreamStage1:
    def test_clear_windows_decided_locally(self, probes):
        from repro.stream import StreamSession

        enroll, genuine, _ = probes
        system = build_system(**TIGHT_BAND)
        system.enroll("alice", enroll)
        stream = np.concatenate(genuine[:3], axis=0)
        config = StreamConfig(cooldown_samples=105)
        with obs.collecting() as registry:
            session = StreamSession("alice", system=system, config=config)
            decisions = []
            for pos in range(0, stream.shape[0], config.chunk_size):
                decisions += session.push(
                    stream[pos : pos + config.chunk_size]
                )
            decisions += session.close()
            snapshot = registry.to_dict()
        assert decisions
        local_exits = sum(
            int(value)
            for key, value in snapshot["counters"].items()
            if key.startswith("stream_stage1_exits_total")
        )
        assert local_exits >= 1
        for decision in decisions:
            if decision.result is not None:
                assert decision.result.accepted
                assert decision.result.exit_stage in ("stage1", "stage2")

    def test_local_stage1_applies_the_usable_axis_rule(self, probes):
        """A window with fewer usable axes than the policy requires is
        refused on the session exactly as the backend refuses it, never
        scored by the local stage 1."""
        from repro.stream import StreamSession

        enroll, _, impostor = probes
        system = build_system(**TIGHT_BAND)
        system.enroll("alice", enroll)
        damaged = [p.copy() for p in impostor[:3]]
        for recording in damaged:
            recording[:, [1, 2, 4]] = 0.0  # 3 of 6 axes usable; policy needs 4
        stream = np.concatenate(damaged, axis=0)
        config = StreamConfig(cooldown_samples=105)
        with obs.collecting() as registry:
            session = StreamSession("alice", system=system, config=config)
            decisions = []
            for pos in range(0, stream.shape[0], config.chunk_size):
                decisions += session.push(stream[pos : pos + config.chunk_size])
            decisions += session.close()
            snapshot = registry.to_dict()
        assert decisions
        assert not any(
            key.startswith("stream_stage1_exits_total")
            for key in snapshot["counters"]
        )
        for decision in decisions:
            window = stream[decision.window_start : decision.window_end]
            backend = system.verify_many("alice", [window])[0]
            assert decision.result.exit_stage == backend.exit_stage == "refused"
            assert decision.result.distance == backend.distance
