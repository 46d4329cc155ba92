"""Fault injection, resilience policies and the chaos invariants.

Three layers of coverage:

* **units** — :class:`FaultPlan` determinism and budgets, payload
  corruption shapes, the circuit breaker state machine (fake clock,
  no sleeping) and the stage-timeout helper;
* **policies** — engine retry-to-baseline-parity, degraded-axes
  verification, the identify gallery-build fallback, and the server's
  kill/respawn, breaker and timeout handling;
* **chaos schedules** — randomized seeded fault plans driven through a
  live :class:`AuthServer`, asserting the four invariants of
  :mod:`repro.faults.chaos`: no deadlock, no wrong accept,
  exactly-once accounting, bitwise recovery after the plan ends.

Thread-blocking tests run under the same hand-rolled watchdog as
``test_serve.py`` (no pytest-timeout here).
"""

from __future__ import annotations

import functools
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.config import GalleryConfig, ResilienceConfig, ServingConfig
from repro.core.engine import BatchOutcome, InferenceEngine
from repro.core.verification import REJECTED_DISTANCE
from repro.errors import (
    AdmissionRejectedError,
    CircuitOpenError,
    ConfigError,
    InjectedFaultError,
    ShapeError,
    StageTimeoutError,
    TransientError,
    WorkerKilledError,
)
from repro.faults import (
    FaultPlan,
    FaultRule,
    clear,
    corrupt_recording,
    get_plan,
    install,
    maybe_delay,
    maybe_fail,
    should_reject,
)
from repro.faults.chaos import RULE_TEMPLATES, random_plan, run_schedule
from repro.serve import AuthServer, RequestStatus
from repro.serve.resilience import CircuitBreaker, call_with_timeout

WATCHDOG_S = 60.0


def watchdog(seconds: float = WATCHDOG_S):
    """Run the test body in a daemon thread; a hang fails, not wedges."""

    def decorate(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            outcome: dict = {}

            def body() -> None:
                try:
                    func(*args, **kwargs)
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    outcome["error"] = exc

            thread = threading.Thread(target=body, daemon=True)
            thread.start()
            thread.join(seconds)
            if thread.is_alive():
                pytest.fail(
                    f"{func.__name__} exceeded the {seconds:.0f}s watchdog "
                    "(probable deadlock or missed wakeup)"
                )
            if "error" in outcome:
                raise outcome["error"]

        return wrapper

    return decorate


@pytest.fixture(autouse=True)
def _no_plan_leaks():
    """No test may leave a fault plan installed process-wide."""
    clear()
    yield
    clear()


@pytest.fixture(scope="module")
def bench():
    """(system, user_id, probes): untrained but real serving substrate.

    Two-slot gallery shards so the chaos schedules' churn mutations
    actually cross the compaction threshold mid-window.
    """
    from repro.serve.loadgen import build_bench_system

    return build_bench_system(
        dtype="float32",
        num_probes=8,
        gallery=GalleryConfig(shard_size=2, compact_tombstone_ratio=0.4),
    )


# -- FaultRule / FaultPlan units ------------------------------------------


class TestFaultRuleValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            FaultRule("imu", "meltdown")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"probability": 1.5},
            {"probability": -0.1},
            {"max_fires": -1},
            {"delay_s": -0.5},
            {"fraction": 0.0},
            {"fraction": 1.5},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            FaultRule("imu", "nan", **kwargs)


class TestFaultPlan:
    def _fire_sequence(self, plan: FaultPlan, draws: int = 64) -> list[bool]:
        return [
            plan.fired("engine.extractor", ("error",)) is not None
            for _ in range(draws)
        ]

    def test_same_seed_same_decisions(self):
        rule = FaultRule("engine.extractor", "error", probability=0.5)
        first = self._fire_sequence(FaultPlan([rule], seed=7))
        second = self._fire_sequence(FaultPlan([rule], seed=7))
        assert first == second
        assert any(first) and not all(first)  # a real coin, not a constant

    def test_different_seeds_differ(self):
        rule = FaultRule("engine.extractor", "error", probability=0.5)
        first = self._fire_sequence(FaultPlan([rule], seed=1), draws=128)
        second = self._fire_sequence(FaultPlan([rule], seed=2), draws=128)
        assert first != second

    def test_reset_rewinds_streams_and_budgets(self):
        rule = FaultRule(
            "engine.extractor", "error", probability=0.5, max_fires=10
        )
        plan = FaultPlan([rule], seed=3)
        first = self._fire_sequence(plan)
        assert plan.total_fires() == sum(first)
        plan.reset()
        assert plan.total_fires() == 0
        assert self._fire_sequence(plan) == first

    def test_max_fires_budget(self):
        rule = FaultRule("serve.worker", "kill", max_fires=2)
        plan = FaultPlan([rule], seed=0)
        fired = [
            plan.fired("serve.worker", ("kill",)) is not None for _ in range(6)
        ]
        assert fired == [True, True, False, False, False, False]
        assert plan.stats() == {"serve.worker/kill": 2}

    def test_zero_probability_never_fires(self):
        plan = FaultPlan(
            [FaultRule("imu", "nan", probability=0.0)], seed=0
        )
        assert plan.corruption_draws("imu", 6) == []
        assert plan.total_fires() == 0

    def test_point_and_kind_filtering(self):
        plan = FaultPlan([FaultRule("engine.frontend", "error")], seed=0)
        assert plan.fired("engine.extractor", ("error",)) is None
        assert plan.fired("engine.frontend", ("delay",)) is None
        assert plan.fired("engine.frontend", ("error",)) is not None

    def test_active_installs_and_restores(self):
        outer = FaultPlan([], seed=0)
        inner = FaultPlan([], seed=1)
        assert get_plan() is None
        with outer.active():
            assert get_plan() is outer
            with inner.active():
                assert get_plan() is inner
            assert get_plan() is outer
        assert get_plan() is None

    def test_active_restores_on_exception(self):
        plan = FaultPlan([], seed=0)
        with pytest.raises(RuntimeError):
            with plan.active():
                raise RuntimeError("boom")
        assert get_plan() is None


# -- inertness -------------------------------------------------------------


class TestInertDefault:
    def test_hooks_are_noops_without_plan(self):
        assert get_plan() is None
        maybe_fail("serve.worker")  # must not raise
        maybe_delay("serve.worker")
        assert should_reject("serve.queue") is False

    def test_corrupt_returns_input_object_without_plan(self):
        recording = np.zeros((210, 6))
        assert corrupt_recording(recording) is recording

    def test_empty_plan_preserves_bitwise_parity(self, bench):
        system, user_id, probes = bench
        baseline = system.verify_many(user_id, probes[:4])
        with FaultPlan([], seed=0).active():
            under_plan = system.verify_many(user_id, probes[:4])
        assert [r.distance for r in baseline] == [
            r.distance for r in under_plan
        ]
        assert all(not r.degraded for r in under_plan)


# -- payload corruption ----------------------------------------------------


class TestCorruption:
    def test_dropout_zeroes_whole_axes_and_copies(self):
        recording = np.ones((210, 6))
        plan = FaultPlan([FaultRule("imu", "dropout", axes=(2, 4))], seed=0)
        with plan.active():
            out = corrupt_recording(recording)
        assert out is not recording
        assert recording.all()  # caller's array untouched
        assert (out[:, 2] == 0).all() and (out[:, 4] == 0).all()
        assert (out[:, [0, 1, 3, 5]] == 1).all()

    def test_nan_burst_is_contiguous_with_expected_span(self):
        recording = np.ones((200, 6))
        rule = FaultRule("imu", "nan", axes=(1,), fraction=0.25)
        with FaultPlan([rule], seed=5).active():
            out = corrupt_recording(recording)
        bad = np.flatnonzero(~np.isfinite(out[:, 1]))
        assert len(bad) == 50  # round(0.25 * 200)
        assert (np.diff(bad) == 1).all()  # one contiguous window
        assert np.isfinite(out[:, [0, 2, 3, 4, 5]]).all()

    def test_clip_saturates_at_magnitude(self):
        rng = np.random.default_rng(0)
        recording = rng.normal(scale=100.0, size=(210, 6))
        rule = FaultRule("imu", "clip", axes=(0,), magnitude=25.0)
        with FaultPlan([rule], seed=0).active():
            out = corrupt_recording(recording)
        assert np.abs(out[:, 0]).max() <= 25.0
        assert np.array_equal(out[:, 1:], recording[:, 1:])

    def test_corruption_is_seed_deterministic(self):
        recording = np.ones((210, 6))
        rule = FaultRule("imu", "nan", fraction=0.2)  # axes drawn from stream
        outs = []
        for _ in range(2):
            with FaultPlan([rule], seed=11).active():
                outs.append(corrupt_recording(recording))
        assert np.array_equal(np.isnan(outs[0]), np.isnan(outs[1]))


# -- circuit breaker and stage timeout ------------------------------------


class _FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(3, cooldown_s=1.0, clock=clock)
        for _ in range(2):
            breaker.record_failure()
            assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_success_resets_the_consecutive_count(self):
        breaker = CircuitBreaker(2, cooldown_s=1.0, clock=_FakeClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.allow()  # 1 consecutive, threshold 2

    def test_half_open_probe_success_closes(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(1, cooldown_s=1.0, clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.now = 1.5  # cooldown elapsed
        assert breaker.allow()       # the single half-open probe
        assert not breaker.allow()   # everyone else still shed
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_half_open_probe_failure_reopens(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(1, cooldown_s=1.0, clock=clock)
        breaker.record_failure()
        clock.now = 1.5
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        clock.now = 3.0  # a fresh cooldown was armed at t=1.5
        assert breaker.allow()

    def test_zero_threshold_disables(self):
        breaker = CircuitBreaker(0, cooldown_s=1.0, clock=_FakeClock())
        assert not breaker.enabled
        for _ in range(10):
            breaker.record_failure()
            assert breaker.allow()


class TestCallWithTimeout:
    @watchdog()
    def test_returns_value(self):
        assert call_with_timeout(lambda: 41 + 1, timeout_s=5.0) == 42

    @watchdog()
    def test_raises_stage_timeout_on_stall(self):
        with pytest.raises(StageTimeoutError):
            call_with_timeout(lambda: time.sleep(2.0), timeout_s=0.05)

    @watchdog()
    def test_propagates_exceptions(self):
        def boom():
            raise ValueError("inner")

        with pytest.raises(ValueError, match="inner"):
            call_with_timeout(boom, timeout_s=5.0)


# -- engine retry and degraded axes ---------------------------------------


class TestEngineRetry:
    def test_transient_fault_retried_to_bitwise_parity(self, bench):
        system, user_id, probes = bench
        baseline = system.verify_many(user_id, probes[:3])
        rule = FaultRule("engine.extractor", "error", max_fires=1)
        with obs.collecting() as registry:
            with FaultPlan([rule], seed=0).active():
                retried = system.verify_many(user_id, probes[:3])
        assert [r.distance for r in retried] == [r.distance for r in baseline]
        assert (
            registry.counter("fault_retries_total", stage="extractor").value
            == 1
        )
        assert (
            registry.counter(
                "fault_injected_total",
                point="engine.extractor",
                kind="error",
            ).value
            == 1
        )

    def test_exhausted_retries_raise_transient_error(self, bench):
        system, _, probes = bench
        rule = FaultRule("engine.preprocess", "error")  # fires every attempt
        with FaultPlan([rule], seed=0).active():
            with pytest.raises(InjectedFaultError) as excinfo:
                system.engine.embed(probes[:2])
        assert isinstance(excinfo.value, TransientError)
        assert excinfo.value.point == "engine.preprocess"

    def test_injected_delay_sleeps_but_preserves_results(self, bench):
        system, user_id, probes = bench
        baseline = system.verify_many(user_id, probes[:1])
        rule = FaultRule("engine.frontend", "delay", delay_s=0.05, max_fires=1)
        with FaultPlan([rule], seed=0).active():
            start = time.perf_counter()
            delayed = system.verify_many(user_id, probes[:1])
            elapsed = time.perf_counter() - start
        assert elapsed >= 0.05
        assert delayed[0].distance == baseline[0].distance


class TestDegradedAxes:
    def test_one_dead_axis_verifies_degraded(self, bench):
        system, user_id, probes = bench
        probe = np.array(probes[0], copy=True)
        probe[:, 4] = 0.0  # dead gyro channel
        with obs.collecting() as registry:
            result = system.verify_many(user_id, [probe])[0]
        assert result.degraded
        assert result.distance != REJECTED_DISTANCE
        assert registry.counter("degraded_total", path="axes").value == 1

    def test_nan_burst_axis_verifies_degraded(self, bench):
        system, user_id, probes = bench
        probe = np.array(probes[1], copy=True)
        probe[80:120, 5] = np.nan
        result = system.verify_many(user_id, [probe])[0]
        assert result.degraded
        assert np.isfinite(result.distance)

    def test_below_min_usable_axes_is_refused(self, bench):
        system, user_id, probes = bench
        probe = np.array(probes[0], copy=True)
        probe[:, 3:] = 0.0  # three dead axes -> 3 usable < 4
        result = system.verify_many(user_id, [probe])[0]
        assert not result.accepted
        assert result.distance == REJECTED_DISTANCE
        assert not result.degraded  # refused, not served degraded
        outcome = system.engine.embed([probe])
        assert outcome.failures[0].error == "InsufficientAxesError"

    def test_clean_probe_is_not_degraded(self, bench):
        system, user_id, probes = bench
        result = system.verify_many(user_id, [probes[2]])[0]
        assert not result.degraded

    def test_min_usable_axes_policy_is_honored(self, bench):
        system, _, probes = bench
        strict = InferenceEngine(
            system.model,
            system.preprocessor,
            system.frontend,
            resilience=ResilienceConfig(min_usable_axes=6),
        )
        probe = np.array(probes[0], copy=True)
        probe[:, 1] = 0.0
        outcome = strict.embed([probe])
        assert outcome.num_ok == 0
        assert outcome.failures[0].error == "InsufficientAxesError"

    def test_batch_outcome_validates_degraded_subset(self):
        with pytest.raises(ShapeError):
            BatchOutcome(
                values=np.zeros((1, 2)),
                indices=np.array([0]),
                failures=(),
                batch_size=1,
                degraded=(1,),  # not a success index
            )


class TestGalleryFallback:
    def test_identify_falls_back_per_user_when_build_fails(self, bench):
        system, user_id, probes = bench
        system._gallery = None  # force a (faulted) rebuild
        rule = FaultRule("gallery.build", "error")  # every build attempt
        with obs.collecting() as registry:
            with FaultPlan([rule], seed=0).active():
                degraded_results = system.identify_many(probes[:2])
        assert all(r is not None for r in degraded_results)
        assert all(r.degraded for r in degraded_results)
        assert all(r.user_id == user_id for r in degraded_results)
        assert (
            registry.counter("degraded_total", path="identify_fallback").value
            == 2
        )
        # Plan gone: the rebuild succeeds and answers match the fallback.
        normal = system.identify_many(probes[:2])
        assert all(not r.degraded for r in normal)
        for fallback, direct in zip(degraded_results, normal):
            assert fallback.user_id == direct.user_id
            assert np.isclose(fallback.distance, direct.distance)


@pytest.fixture(scope="module")
def gallery_bench():
    """A dedicated small-shard system for the shard-fault tests, so their
    enrollments never perturb the shared ``bench`` substrate."""
    from repro.serve.loadgen import build_bench_system

    return build_bench_system(
        dtype="float32",
        num_probes=6,
        gallery=GalleryConfig(shard_size=2, compact_tombstone_ratio=0.4),
    )


class TestGalleryShardFaults:
    def test_shard_build_fault_degrades_then_retries(self, gallery_bench):
        """A faulted shard mutation falls back this identify, applies next.

        The mutation-log contract: the entry is popped only after a
        successful apply, so an injected ``gallery.shard_build`` error
        leaves it queued (exactly-once application, at-least-once
        attempts) and the very next sync lands it.
        """
        system, user_id, probes = gallery_bench
        system.reset_gallery()
        clean = system.identify_many(probes[:1])
        assert not clean[0].degraded
        system.enroll("gfault-a", list(probes[:3]), transform_seed=501)
        assert system._gallery.pending == 1
        rule = FaultRule("gallery.shard_build", "error", max_fires=1)
        with FaultPlan([rule], seed=0).active():
            degraded = system.identify_many(probes[:1])
            assert degraded[0] is not None and degraded[0].degraded
            assert system._gallery.pending == 1  # still queued for retry
            retried = system.identify_many(probes[:1])
            assert not retried[0].degraded
            assert system._gallery.pending == 0
        assert "gfault-a" in system._gallery.users()

    def test_compaction_fault_is_contained_and_retried(self, gallery_bench):
        """A faulted compaction never fails identify — it defers.

        Tombstones are correct, merely unreclaimed: the identification
        is served full-quality under the active plan, the failure is
        counted, and the next sync compacts the shard for real.
        """
        system, user_id, probes = gallery_bench
        system.enroll("gfault-c1", list(probes[:3]), transform_seed=502)
        system.enroll("gfault-c2", list(probes[:3]), transform_seed=503)
        system.reset_gallery()
        system.identify_many(probes[:1])  # clean build
        gallery = system._gallery
        system.revoke("gfault-c2")
        # identify syncs twice (once explicitly, once inside best_match);
        # a two-fire budget keeps the compaction deferred through both.
        rule = FaultRule("gallery.compact", "error", max_fires=2)
        with obs.collecting() as registry:
            with FaultPlan([rule], seed=0).active():
                results = system.identify_many(probes[:1])
        assert results[0] is not None and not results[0].degraded
        assert (
            registry.counter("gallery_compaction_failures_total").value == 2
        )
        assert any(shard.tombstones for shard in gallery._shards)
        assert "gfault-c2" not in gallery.users()
        system.identify_many(probes[:1])  # plan gone: deferred compaction runs
        assert gallery.compactions >= 1
        assert all(shard.tombstones == 0 for shard in gallery._shards)


# -- server-side resilience ------------------------------------------------


def _quiet_serving() -> ServingConfig:
    return ServingConfig(max_batch_size=4)


class TestServerResilience:
    @watchdog()
    def test_worker_kill_fails_batch_and_respawns(self, bench):
        system, user_id, probes = bench
        rule = FaultRule("serve.worker", "kill", max_fires=1)
        with obs.collecting() as registry:
            with FaultPlan([rule], seed=0).active():
                with AuthServer(system, config=_quiet_serving()) as server:
                    killed = server.verify(user_id, probes[0])
                    killed.wait(WATCHDOG_S)
                    assert killed.status is RequestStatus.FAILED
                    with pytest.raises(WorkerKilledError):
                        killed.result(0)
                    # The replacement worker keeps serving.
                    revived = server.verify(user_id, probes[1])
                    revived.wait(WATCHDOG_S)
                    assert revived.status is RequestStatus.OK
        assert registry.counter("serve_worker_deaths_total").value == 1
        assert registry.counter("serve_worker_restarts_total").value == 1

    @watchdog()
    def test_breaker_sheds_as_refused_after_failures(self, bench):
        system, user_id, probes = bench
        resilience = ResilienceConfig(
            max_retries=0,
            breaker_failure_threshold=1,
            breaker_cooldown_s=60.0,
        )
        rule = FaultRule("serve.worker", "error", max_fires=1)
        with FaultPlan([rule], seed=0).active():
            with AuthServer(
                system, config=_quiet_serving(), resilience=resilience
            ) as server:
                failed = server.verify(user_id, probes[0])
                failed.wait(WATCHDOG_S)
                assert failed.status is RequestStatus.FAILED
                refused = server.verify(user_id, probes[1])
                refused.wait(WATCHDOG_S)
                assert refused.status is RequestStatus.REFUSED
                with pytest.raises(CircuitOpenError):
                    refused.result(0)

    @watchdog()
    def test_server_retries_transient_batch_failures(self, bench):
        system, user_id, probes = bench
        # Engine retries are exhausted by three consecutive fires; the
        # server's own retry then replays the whole batch, which draws
        # fresh (non-firing) decisions and succeeds.
        rule = FaultRule("engine.extractor", "error", max_fires=3)
        with obs.collecting() as registry:
            with FaultPlan([rule], seed=0).active():
                with AuthServer(system, config=_quiet_serving()) as server:
                    future = server.verify(user_id, probes[0])
                    future.wait(WATCHDOG_S)
                    assert future.status is RequestStatus.OK
        assert registry.counter("serve_retries_total").value >= 1

    @watchdog()
    def test_stage_timeout_refuses_stalled_batches(self, bench):
        system, user_id, probes = bench
        resilience = ResilienceConfig(max_retries=0, stage_timeout_s=0.05)
        rule = FaultRule("serve.worker", "delay", delay_s=1.0, max_fires=1)
        with FaultPlan([rule], seed=0).active():
            with AuthServer(
                system, config=_quiet_serving(), resilience=resilience
            ) as server:
                stalled = server.verify(user_id, probes[0])
                stalled.wait(WATCHDOG_S)
                assert stalled.status is RequestStatus.REFUSED
                with pytest.raises(StageTimeoutError):
                    stalled.result(0)

    @watchdog()
    def test_injected_queue_saturation_rejects_admission(self, bench):
        system, user_id, probes = bench
        rule = FaultRule("serve.queue", "reject", max_fires=1)
        with FaultPlan([rule], seed=0).active():
            with AuthServer(system, config=_quiet_serving()) as server:
                rejected = server.verify(user_id, probes[0])
                assert rejected.status is RequestStatus.REJECTED
                with pytest.raises(AdmissionRejectedError):
                    rejected.result(0)
                served = server.verify(user_id, probes[1])
                served.wait(WATCHDOG_S)
                assert served.status is RequestStatus.OK

    @watchdog()
    def test_future_settles_exactly_once(self, bench):
        """A future cannot be answered twice even if settlement races."""
        from repro.serve.server import AuthFuture, RequestKind

        future = AuthFuture(RequestKind.VERIFY, "u")
        assert future._resolve("first")
        assert not future._fail(RuntimeError("late"), RequestStatus.FAILED)
        assert not future._resolve("second")
        assert future.status is RequestStatus.OK
        assert future.result(0) == "first"


# -- randomized chaos schedules -------------------------------------------


class TestChaosSchedules:
    def test_random_plan_is_seed_deterministic(self):
        assert random_plan(42).rules == random_plan(42).rules
        structures = {random_plan(seed).rules for seed in range(12)}
        assert len(structures) > 1  # seeds actually vary the plan

    def test_rule_templates_cover_every_fault_point(self):
        points = {rule.point for rule in RULE_TEMPLATES}
        assert points == {
            "imu",
            "engine.preprocess",
            "engine.frontend",
            "engine.extractor",
            "gallery.build",
            "gallery.shard_build",
            "gallery.compact",
            "serve.queue",
            "serve.worker",
            "stream.push",
        }

    @pytest.mark.parametrize("seed", range(12))
    @watchdog(120.0)
    def test_schedule_invariants(self, bench, seed):
        system, user_id, probes = bench
        report = run_schedule(
            system, user_id, probes, random_plan(seed), num_requests=18
        )
        assert report.unresolved == 0, f"stuck requests (seed {seed})"
        assert report.false_accepts == 0, f"wrong accept (seed {seed})"
        assert report.accounted, (
            f"request accounting leaked (seed {seed}): {report.statuses}"
        )
        assert report.recovered_parity, (
            f"post-chaos baseline drift (seed {seed})"
        )
        assert get_plan() is None  # the schedule cleaned up after itself
