"""Concurrent serving layer: batching policy, backpressure, parity.

Every test that blocks on threads runs under a hand-rolled watchdog
(the environment has no pytest-timeout plugin): the test body executes
in a daemon thread and a hang fails the test instead of wedging the
whole suite.

The integration fixtures use an untrained (deterministically seeded)
compact extractor — the decisions are meaningless but the batching,
shedding and locking behaviour under test is the real serving path,
and bitwise parity between the served and direct results is exactly
as meaningful as with a trained model.
"""

from __future__ import annotations

import functools
import threading
import time
from types import SimpleNamespace

import pytest

from repro import obs
from repro.config import ServingConfig
from repro.errors import (
    AdmissionRejectedError,
    ConfigError,
    DeadlineExpiredError,
    ServingError,
)
from repro.serve import AuthServer, DynamicBatcher, RequestStatus, RWLock
from repro.serve import shm as serve_shm

WATCHDOG_S = 60.0


@pytest.fixture(autouse=True)
def _clean_shm_namespace():
    """Every serve test leaves the shared-memory namespace spotless.

    Thread-mode tests publish nothing, so this is free for them — but
    any test that (even accidentally) starts a process pool and leaks
    a segment fails here, loudly, instead of stranding /dev/shm.
    """
    yield
    serve_shm.assert_no_leaked_segments()


def watchdog(seconds: float = WATCHDOG_S):
    """Run the test body in a daemon thread; a hang fails, not wedges.

    Stands in for pytest-timeout (not installed here): ``join`` with a
    deadline, then ``pytest.fail`` while the stuck daemon thread dies
    with the process instead of blocking the session.
    """

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


def _item(key="k", deadline=None):
    return SimpleNamespace(key=key, deadline=deadline, enqueued_at=0.0)


@pytest.fixture(scope="module")
def serve_system():
    """(system, user_id, probes): untrained but real serving substrate."""
    from repro.serve.loadgen import build_bench_system

    return build_bench_system(dtype="float32", num_probes=12)


# -- RWLock ---------------------------------------------------------------


class TestRWLock:
    @watchdog()
    def test_writer_excludes_readers(self):
        lock = RWLock()
        observed = []
        reader_started = threading.Event()

        def reader() -> None:
            reader_started.set()
            with lock.read_locked():
                observed.append("read")

        lock.acquire_write()
        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        reader_started.wait(5)
        time.sleep(0.05)
        assert observed == []  # reader is parked behind the writer
        observed.append("write-done")
        lock.release_write()
        thread.join(5)
        assert observed == ["write-done", "read"]

    @watchdog()
    def test_readers_share_and_block_writer(self):
        lock = RWLock()
        in_read = threading.Barrier(2)
        release = threading.Event()
        writer_done = threading.Event()

        def reader() -> None:
            with lock.read_locked():
                in_read.wait(5)  # both readers inside simultaneously
                release.wait(5)

        def writer() -> None:
            with lock.write_locked():
                writer_done.set()

        readers = [threading.Thread(target=reader, daemon=True) for _ in range(2)]
        for thread in readers:
            thread.start()
        wthread = threading.Thread(target=writer, daemon=True)
        wthread.start()
        time.sleep(0.05)
        assert not writer_done.is_set()  # readers still hold it
        release.set()
        wthread.join(5)
        assert writer_done.is_set()

    @watchdog()
    def test_write_reentrant_and_read_inside_write(self):
        lock = RWLock()
        with lock.write_locked():
            with lock.write_locked():  # renew() -> enroll() nesting
                with lock.read_locked():
                    pass
        # Fully released: another thread can take the write side.
        acquired = threading.Event()

        def writer() -> None:
            with lock.write_locked():
                acquired.set()

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        thread.join(5)
        assert acquired.is_set()

    @watchdog()
    def test_waiting_writer_blocks_new_readers(self):
        lock = RWLock()
        first_reading = threading.Event()
        release_first = threading.Event()
        second_read = threading.Event()

        def first_reader() -> None:
            with lock.read_locked():
                first_reading.set()
                release_first.wait(5)

        def writer() -> None:
            with lock.write_locked():
                pass

        def second_reader() -> None:
            with lock.read_locked():
                second_read.set()

        r1 = threading.Thread(target=first_reader, daemon=True)
        r1.start()
        first_reading.wait(5)
        w = threading.Thread(target=writer, daemon=True)
        w.start()
        time.sleep(0.05)  # writer is now queued behind the reader
        r2 = threading.Thread(target=second_reader, daemon=True)
        r2.start()
        time.sleep(0.05)
        assert not second_read.is_set()  # writer preference holds
        release_first.set()
        r2.join(5)
        assert second_read.is_set()


# -- DynamicBatcher -------------------------------------------------------


class TestDynamicBatcher:
    def test_offer_bounded_and_closed(self):
        batcher = DynamicBatcher(max_batch_size=4, capacity=2)
        assert batcher.offer(_item())
        assert batcher.offer(_item())
        assert not batcher.offer(_item())  # full
        assert batcher.depth == 2
        batcher.close()
        assert batcher.drain_pending() and batcher.depth == 0
        assert not batcher.offer(_item())  # closed

    @watchdog()
    def test_coalesces_by_key_in_fifo_order(self):
        batcher = DynamicBatcher(max_batch_size=8, capacity=16)
        a1, a2, b1, a3 = _item("a"), _item("a"), _item("b"), _item("a")
        for item in (a1, a2, b1, a3):
            assert batcher.offer(item)
        first = batcher.next_batch()
        assert first == [a1, a2, a3]  # same-key items, submission order
        second = batcher.next_batch()
        assert second == [b1]

    @watchdog()
    def test_full_batch_dispatches_before_wait_window(self):
        batcher = DynamicBatcher(max_batch_size=2, capacity=16)
        # Dispatch is work-conserving: there is no coalescing window at
        # all, so a lone item comes straight back on the offering thread
        # (a hang trips the watchdog).
        lone = _item("a")
        assert batcher.offer(lone)
        assert batcher.next_batch() == [lone]
        assert batcher.depth == 0
        # A backlog offered with no consumer running ships as batches of
        # at most max_batch_size, the oldest queued key first.
        b1, a1, b2, a2, a3, b3 = (_item(key) for key in "babaab")
        for item in (b1, a1, b2, a2, a3, b3):
            assert batcher.offer(item)
        assert batcher.next_batch() == [b1, b2]
        assert batcher.next_batch() == [a1, a2]
        assert batcher.next_batch() == [a3]
        assert batcher.next_batch() == [b3]
        assert batcher.depth == 0

    @watchdog()
    def test_expired_items_are_shed_not_served(self):
        shed: list = []
        batcher = DynamicBatcher(
            max_batch_size=8, capacity=16, on_shed=shed.append
        )
        expired = _item(deadline=time.monotonic() - 1.0)
        alive = _item()
        batcher.offer(expired)
        batcher.offer(alive)
        batch = batcher.next_batch()
        assert batch == [alive]
        assert shed == [expired]

    @watchdog()
    def test_close_drains_then_returns_none(self):
        batcher = DynamicBatcher(max_batch_size=8, capacity=16)
        item = _item()
        batcher.offer(item)
        batcher.close()
        # Closing stops admission; the queued item still drains.
        assert batcher.next_batch() == [item]
        assert batcher.next_batch() is None

    def test_validation(self):
        with pytest.raises(ConfigError):
            DynamicBatcher(max_batch_size=0, capacity=4)
        with pytest.raises(ConfigError):
            DynamicBatcher(max_batch_size=4, capacity=0)


class TestServingConfig:
    def test_defaults_valid(self):
        config = ServingConfig()
        assert config.max_batch_size >= 1 and config.queue_capacity >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch_size": 0},
            {"queue_capacity": 0},
            {"drain_timeout_s": 0.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            ServingConfig(**kwargs)


# -- AuthServer lifecycle + backpressure ----------------------------------


class TestAuthServer:
    @watchdog()
    def test_pre_start_coalescing_reaches_max_batch_size(self, serve_system):
        system, user_id, probes = serve_system
        config = ServingConfig(max_batch_size=4, queue_capacity=64)
        server = AuthServer(system, config=config)
        with obs.collecting() as registry:
            futures = [
                server.verify(user_id, probes[i % len(probes)]) for i in range(8)
            ]
            server.start()
            for future in futures:
                assert future.result(timeout=30) is not None
            server.stop()
            snapshot = registry.to_dict()
        occupancy = snapshot["histograms"]["serve_batch_occupancy"]
        # The backlog queued before start shipped as full batches: 8
        # same-key requests became exactly two batches of 4.
        assert occupancy["count"] == 2
        assert occupancy["sum"] == 8.0

    @watchdog()
    def test_wait_window_bounds_idle_latency(self, serve_system):
        system, user_id, probes = serve_system
        config = ServingConfig(max_batch_size=64)
        with obs.collecting() as registry:
            with AuthServer(system, config=config) as server:
                t0 = time.perf_counter()
                result = server.verify(user_id, probes[0]).result(timeout=30)
                elapsed = time.perf_counter() - t0
            snapshot = registry.to_dict()
        assert result is not None
        # With no coalescing window the lone request is served at once,
        # in a batch of its own, without waiting for 63 co-riders.
        assert elapsed < 10.0
        occupancy = snapshot["histograms"]["serve_batch_occupancy"]
        assert occupancy["count"] == 1 and occupancy["sum"] == 1.0

    @watchdog()
    def test_deadline_shedding(self, serve_system):
        system, user_id, probes = serve_system
        config = ServingConfig(max_batch_size=8)
        server = AuthServer(system, config=config)
        with obs.collecting() as registry:
            # Submitted before start: the deadline expires while queued.
            doomed = server.verify(user_id, probes[0], timeout_ms=5.0)
            healthy = server.verify(user_id, probes[1])
            time.sleep(0.05)
            server.start()
            assert healthy.result(timeout=30) is not None
            with pytest.raises(DeadlineExpiredError):
                doomed.result(timeout=30)
            server.stop()
            snapshot = registry.to_dict()
        assert doomed.status is RequestStatus.EXPIRED
        assert snapshot["counters"]['serve_shed_total'] == 1.0

    @watchdog()
    def test_bounded_queue_rejects_then_serves_accepted(self, serve_system):
        system, user_id, probes = serve_system
        config = ServingConfig(max_batch_size=8, queue_capacity=4)
        server = AuthServer(system, config=config)
        futures = [server.verify(user_id, probes[i]) for i in range(5)]
        # The fifth submission overflowed the bounded queue: rejected
        # immediately, without blocking the submitter.
        assert futures[4].done()
        assert futures[4].status is RequestStatus.REJECTED
        with pytest.raises(AdmissionRejectedError):
            futures[4].result(timeout=1)
        server.start()
        for future in futures[:4]:
            assert future.result(timeout=30) is not None
        server.stop()

    @watchdog()
    def test_drain_on_shutdown_completes_accepted(self, serve_system):
        system, user_id, probes = serve_system
        config = ServingConfig(max_batch_size=64)
        server = AuthServer(system, config=config).start()
        futures = [
            server.verify(user_id, probes[i % len(probes)]) for i in range(6)
        ]
        assert server.stop(drain=True) is True
        for future in futures:
            assert future.status is RequestStatus.OK
            assert future.result(timeout=1) is not None

    @watchdog()
    def test_stop_without_drain_rejects_pending(self, serve_system):
        system, user_id, probes = serve_system
        server = AuthServer(system)  # never started: requests stay queued
        futures = [server.verify(user_id, probes[i]) for i in range(3)]
        server.stop(drain=False)
        for future in futures:
            assert future.status is RequestStatus.REJECTED

    @watchdog()
    def test_submit_after_stop_is_rejected(self, serve_system):
        system, user_id, probes = serve_system
        server = AuthServer(system).start()
        server.stop()
        future = server.verify(user_id, probes[0])
        assert future.status is RequestStatus.REJECTED
        with pytest.raises(ServingError):
            server.start()

    def test_rejects_nonpositive_timeout(self, serve_system):
        system, user_id, probes = serve_system
        server = AuthServer(system)
        with pytest.raises(ConfigError):
            server.verify(user_id, probes[0], timeout_ms=0.0)


# -- decision parity with the direct batch APIs ---------------------------


def _assert_same_result(served, direct, strict=True):
    """Served vs direct parity.

    ``strict=True`` demands bitwise-equal distances — valid whenever the
    micro-batch composition matches the direct call (the engine forward
    is deterministic in the batch *content*).  With a different batch
    split the BLAS gemms take different blocking paths, so distances
    agree only to float re-association (the same tolerance the golden
    engine suite pins batch-vs-single parity at) while the decisions
    must still be identical.
    """
    if direct is None:
        assert served is None
        return
    assert served.accepted == direct.accepted
    if strict:
        assert served.distance == direct.distance  # bitwise, not approx
    else:
        assert served.distance == pytest.approx(direct.distance, rel=1e-9)
    assert served.threshold == direct.threshold
    assert served.user_id == direct.user_id


class TestParity:
    @watchdog()
    def test_verify_bitwise_equal_when_batch_matches(self, serve_system):
        system, user_id, probes = serve_system
        direct = system.verify_many(user_id, probes)
        # All requests queued before start -> one micro-batch with the
        # exact composition of the direct call -> bitwise equality.
        config = ServingConfig(max_batch_size=64)
        server = AuthServer(system, config=config)
        futures = [server.verify(user_id, probe) for probe in probes]
        server.start()
        served = [future.result(timeout=30) for future in futures]
        server.stop()
        for got, want in zip(served, direct):
            _assert_same_result(got, want, strict=True)

    @watchdog()
    def test_verify_decisions_stable_across_batch_splits(self, serve_system):
        system, user_id, probes = serve_system
        direct = system.verify_many(user_id, probes)
        # max_batch_size=5 forces uneven micro-batches (5 + 5 + 2):
        # decisions must not depend on how the batcher split the queue.
        config = ServingConfig(max_batch_size=5)
        server = AuthServer(system, config=config)
        futures = [server.verify(user_id, probe) for probe in probes]
        server.start()
        served = [future.result(timeout=30) for future in futures]
        server.stop()
        for got, want in zip(served, direct):
            _assert_same_result(got, want, strict=False)

    @watchdog()
    def test_identify_bitwise_equal_when_batch_matches(self, serve_system):
        system, user_id, probes = serve_system
        direct = system.identify_many(probes[:6])
        config = ServingConfig(max_batch_size=64)
        server = AuthServer(system, config=config)
        futures = [server.identify(probe) for probe in probes[:6]]
        server.start()
        served = [future.result(timeout=30) for future in futures]
        server.stop()
        for got, want in zip(served, direct):
            _assert_same_result(got, want, strict=True)

    @watchdog()
    def test_concurrent_submitters_match_direct(self, serve_system):
        system, user_id, probes = serve_system
        direct = system.verify_many(user_id, probes)
        lone = system.verify_many(user_id, probes[:1])[0]
        config = ServingConfig(max_batch_size=8)
        results: list = [None] * len(probes)
        with AuthServer(system, config=config) as server:
            barrier = threading.Barrier(len(probes))

            def client(index: int) -> None:
                barrier.wait(10)
                results[index] = server.verify(user_id, probes[index]).result(
                    timeout=30
                )

            threads = [
                threading.Thread(target=client, args=(i,), daemon=True)
                for i in range(len(probes))
            ]
            # The clients submit while the dispatcher is busy with a
            # lone request held on the facade's read lock, so their
            # burst becomes the backlog the next batches are cut from.
            # A float32 batch of one re-associates the extractor gemms
            # differently from every larger batch (about 1e-6 relative
            # in distance), beyond the split tolerance checked below.
            with system._rwlock.write_locked():
                blocker = server.verify(user_id, probes[0])
                while server.queue_depth:
                    time.sleep(0.001)
                for thread in threads:
                    thread.start()
                while server.queue_depth < len(probes):
                    time.sleep(0.001)
            for thread in threads:
                thread.join(30)
        _assert_same_result(blocker.result(timeout=30), lone, strict=True)
        # How the backlog splits into batches depends on scheduling, so
        # this is the split-tolerant comparison.
        for got, want in zip(results, direct):
            _assert_same_result(got, want, strict=False)

    @watchdog()
    def test_mutations_serialize_against_scoring(self, serve_system):
        system, user_id, probes = serve_system
        reference = system.verify(user_id, probes[0])
        config = ServingConfig(max_batch_size=8)
        enroll_recordings = probes[:4]
        stop_mutating = threading.Event()

        def mutator() -> None:
            index = 0
            while not stop_mutating.is_set():
                name = f"serve-tmp-{index}"
                system.enroll(name, enroll_recordings)
                system.revoke(name)
                index += 1

        thread = threading.Thread(target=mutator, daemon=True)
        try:
            with AuthServer(system, config=config) as server:
                thread.start()
                for _ in range(10):
                    result = server.verify(user_id, probes[0]).result(timeout=30)
                    # Enroll/revoke churn on other users never perturbs
                    # this user's decision — mutations swap state only
                    # under the write lock, between batches.
                    _assert_same_result(result, reference)
        finally:
            stop_mutating.set()
            thread.join(30)
        assert not thread.is_alive()


# -- concurrent cold start (threads share one frozen forward) -------------


class TestEvalCacheConcurrency:
    @staticmethod
    def _fresh_system():
        from repro.config import (
            ExtractorConfig,
            InferenceConfig,
            MandiPassConfig,
            SecurityConfig,
        )
        from repro.core.extractor import TwoBranchExtractor
        from repro.core.system import MandiPass

        extractor_config = ExtractorConfig(embedding_dim=64, channels=(4, 8, 16))
        config = MandiPassConfig(
            extractor=extractor_config,
            security=SecurityConfig(
                template_dim=64, projected_dim=64, matrix_seed=1
            ),
            inference=InferenceConfig(compute_dtype="float32"),
        )
        model = TwoBranchExtractor(extractor_config, num_classes=4, seed=0).eval()
        return MandiPass(model, config=config)

    @watchdog()
    def test_concurrent_first_touch_builds_each_entry_once(self, serve_system):
        _, _, probes = serve_system
        num_threads = 4

        cold = self._fresh_system()
        cold.enroll("u", probes[:4])
        baseline = cold.verify_many("u", probes)

        # Concurrent cold start on an identical system: every thread's
        # decisions equal the single-threaded ones.
        system = self._fresh_system()
        system.enroll("u", probes[:4])
        outputs: list = [None] * num_threads
        barrier = threading.Barrier(num_threads)

        def worker(index: int) -> None:
            barrier.wait(10)
            outputs[index] = system.verify_many("u", probes)

        threads = [
            threading.Thread(target=worker, args=(i,), daemon=True)
            for i in range(num_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        for result_list in outputs:
            assert result_list is not None
            for got, want in zip(result_list, baseline):
                _assert_same_result(got, want)


# -- shutdown edge cases (stop/submit races, worker death) ----------------


class TestShutdownEdgeCases:
    @watchdog()
    def test_stop_racing_submissions_leaves_no_pending_future(
        self, serve_system
    ):
        """Every future submitted across a stop() reaches a terminal state.

        A submitter hammers the server while the main thread stops it:
        whichever side of admission each request lands on, its future
        must resolve (served by the drain or rejected) — never hang in
        PENDING.
        """
        system, user_id, probes = serve_system
        config = ServingConfig(max_batch_size=4)
        server = AuthServer(system, config=config).start()
        futures: list = []
        submitting = threading.Event()

        def submitter() -> None:
            for i in range(40):
                futures.append(server.verify(user_id, probes[i % len(probes)]))
                submitting.set()

        thread = threading.Thread(target=submitter, daemon=True)
        thread.start()
        submitting.wait(5)  # overlap stop() with live submissions
        assert server.stop(drain=True) is True
        thread.join(10)
        assert len(futures) == 40
        for future in futures:
            assert future.wait(30), "future left pending across stop()"
            assert future.status in (
                RequestStatus.OK,
                RequestStatus.REJECTED,
            )

    @watchdog()
    def test_double_stop_is_idempotent(self, serve_system):
        system, user_id, probes = serve_system
        server = AuthServer(system).start()
        future = server.verify(user_id, probes[0])
        assert server.stop(drain=True) is True
        assert future.status is RequestStatus.OK
        # Stopping again (any flavour) is a no-op that still reports
        # the workers as down.
        assert server.stop(drain=True) is True
        assert server.stop(drain=False) is True

    @watchdog()
    def test_stop_never_started_then_stop_again(self, serve_system):
        system, user_id, probes = serve_system
        server = AuthServer(system)
        future = server.verify(user_id, probes[0])
        server.stop()
        assert future.status is RequestStatus.REJECTED
        assert server.stop() is True  # second stop: nothing left to do

    @watchdog()
    def test_worker_death_settles_each_future_exactly_once(
        self, serve_system, monkeypatch
    ):
        """Injected worker death: the doomed batch's futures settle once.

        The dying worker fails the whole batch and its replacement must
        not answer those futures a second time; counting *successful*
        settles through the idempotent ``_settle`` pins exactly-once.
        """
        from repro.faults import FaultPlan, FaultRule
        from repro.errors import WorkerKilledError
        from repro.serve.server import AuthFuture

        system, user_id, probes = serve_system
        settle_counts: dict[int, int] = {}
        original = AuthFuture._settle

        def counting(self, value, error, status):
            settled = original(self, value, error, status)
            if settled:
                settle_counts[id(self)] = settle_counts.get(id(self), 0) + 1
            return settled

        monkeypatch.setattr(AuthFuture, "_settle", counting)
        config = ServingConfig(max_batch_size=4)
        server = AuthServer(system, config=config)
        plan = FaultPlan(
            [FaultRule("serve.worker", "kill", max_fires=1)], seed=0
        )
        with plan.active():
            # Queued before start, so the one killed batch holds all 4.
            doomed = [server.verify(user_id, probes[i]) for i in range(4)]
            with server:
                for future in doomed:
                    assert future.wait(30)
                    assert future.status is RequestStatus.FAILED
                    assert isinstance(future.exception(0), WorkerKilledError)
                # The respawned worker still serves fresh traffic.
                survivor = server.verify(user_id, probes[4])
                assert survivor.wait(30)
                assert survivor.status is RequestStatus.OK
        assert set(settle_counts.values()) == {1}
        assert len(settle_counts) == 5
