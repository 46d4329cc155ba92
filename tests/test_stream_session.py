"""StreamSession behaviour: state machine, concurrency, faults, config.

Every test that blocks on threads runs under the same hand-rolled
watchdog idiom as ``test_serve.py`` (no pytest-timeout here): the body
executes in a daemon thread and a hang fails the test instead of
wedging the suite.  The concurrency section drives N parallel sessions
against one ``AuthServer`` and asserts the streaming contract:
exactly-once decision emission per detected onset, no deadlocks, and a
clean drain on ``stop()``.
"""

from __future__ import annotations

import functools
import threading

import numpy as np
import pytest

from repro import obs
from repro.config import StreamConfig
from repro.errors import ConfigError, ShapeError, StreamStateError
from repro.faults.plan import FaultPlan, FaultRule
from repro.faults.runtime import clear, install
from repro.serve import AuthServer
from repro.stream import SessionState, StreamSession
from repro.stream import session as session_module

WATCHDOG_S = 60.0


def watchdog(seconds: float = WATCHDOG_S):
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


@pytest.fixture(scope="module")
def stream_system():
    """(system, user_id, probes): untrained but real streaming substrate."""
    from repro.serve.loadgen import build_bench_system

    return build_bench_system(dtype="float32", num_probes=8)


def feed(session, stream, chunk=35):
    decisions = []
    for pos in range(0, stream.shape[0], chunk):
        decisions += session.push(stream[pos : pos + chunk])
    return decisions


def event_stream(probes, offset, events):
    return np.concatenate(
        [probes[(offset + j) % len(probes)] for j in range(events)], axis=0
    )


CFG = StreamConfig(cooldown_samples=105)


# -- config validation ----------------------------------------------------


class TestStreamConfig:
    def test_defaults_valid(self):
        StreamConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"chunk_size": 0},
            {"cooldown_samples": -1},
            {"rearm_after_samples": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            StreamConfig(**kwargs)

    def test_rearm_must_cover_a_detection(self):
        from repro.config import MandiPassConfig

        with pytest.raises(ConfigError):
            MandiPassConfig(stream=StreamConfig(rearm_after_samples=64))


# -- single-session state machine ----------------------------------------


class TestSessionStateMachine:
    @watchdog()
    def test_requires_exactly_one_backend(self, stream_system):
        system, user_id, _ = stream_system
        with pytest.raises(StreamStateError):
            StreamSession(user_id)
        with pytest.raises(StreamStateError):
            StreamSession(user_id, system=system, server=object())

    @watchdog()
    def test_rejects_bad_chunk_shape(self, stream_system):
        system, user_id, _ = stream_system
        session = StreamSession(user_id, system=system, config=CFG)
        with pytest.raises(ShapeError):
            session.push(np.zeros((5, 4)))

    @watchdog()
    def test_exactly_once_per_onset(self, stream_system):
        system, user_id, probes = stream_system
        session = StreamSession(user_id, system=system, config=CFG)
        decisions = feed(session, event_stream(probes, 0, 4))
        decisions += session.close()
        assert len(decisions) == 4 == session.stats()["onsets"]
        assert all(d.status == "ok" for d in decisions)

    @watchdog()
    def test_trace_follows_the_documented_cycle(self, stream_system):
        system, user_id, probes = stream_system
        session = StreamSession(user_id, system=system, config=CFG)
        feed(session, probes[0])
        names = [name for name, _ in session.trace]
        assert names[:5] == [
            "IDLE", "ONSET", "CAPTURING", "VERIFYING", "COOLDOWN",
        ]

    @watchdog()
    def test_quiet_stream_rearms_within_bound(self, stream_system):
        system, user_id, _ = stream_system
        config = StreamConfig(rearm_after_samples=512)
        session = StreamSession(user_id, system=system, config=config)
        quiet = np.zeros((4096, 6))
        assert feed(session, quiet) == []
        assert session.state is SessionState.IDLE
        # Every rearm window is bounded, so memory use is too.
        assert session.stats()["rearms"] == 4096 // 512 - 1
        session.close()

    @watchdog()
    def test_trace_keeps_only_the_most_recent_transitions(
        self, stream_system, monkeypatch
    ):
        # At rearm_after_samples=1 a quiet stream re-arms on every
        # 1-sample push, so each push records one IDLE transition.
        system, user_id, _ = stream_system
        config = StreamConfig(rearm_after_samples=1)
        capacity = session_module.TRACE_CAPACITY
        pushes = capacity + 50

        def run_trace():
            session = StreamSession(user_id, system=system, config=config)
            for _ in range(pushes):
                session.push(np.zeros((1, 6)))
            session.close()
            return session.trace

        capped = run_trace()
        monkeypatch.setattr(session_module, "TRACE_CAPACITY", None)
        uncapped = run_trace()
        assert len(uncapped) == pushes + 1
        assert len(capped) == capacity
        assert capped == uncapped[-capacity:]

    @watchdog()
    def test_closed_session_rejects_pushes(self, stream_system):
        system, user_id, probes = stream_system
        session = StreamSession(user_id, system=system, config=CFG)
        assert session.close() == []
        assert session.close() == []  # idempotent
        with pytest.raises(StreamStateError):
            session.push(probes[0][:10])

    @watchdog()
    def test_on_decision_callback_fires(self, stream_system):
        system, user_id, probes = stream_system
        seen = []
        session = StreamSession(
            user_id, system=system, config=CFG, on_decision=seen.append
        )
        returned = feed(session, probes[0]) + session.close()
        assert seen == returned and len(seen) == 1

    @watchdog()
    def test_glitch_burst_window_is_refused(self, stream_system):
        system, user_id, _ = stream_system
        from repro.core.verification import REJECTED_DISTANCE

        # A glitch burst triggers detection but despikes to nothing:
        # the engine refuses the window with its sentinel distance, and
        # the refusal is counted once, as a refusal, like any other.
        rng = np.random.default_rng(0)
        recording = rng.normal(scale=10.0, size=(300, 6))
        recording[100:104] += 50000.0
        with obs.collecting() as registry:
            session = StreamSession(user_id, system=system, config=CFG)
            decisions = feed(session, recording) + session.close()
        assert len(decisions) == 1
        result = decisions[0].result
        assert result.exit_stage == "refused"
        assert result.distance == REJECTED_DISTANCE
        assert not result.accepted
        for name in ("decisions_total", "stream_decisions_total"):
            assert registry.counter(name, decision="refusal").value == 1
            assert registry.counter(name, decision="accept").value == 0
            assert registry.counter(name, decision="reject").value == 0

    @watchdog()
    def test_metrics_families_populated(self, stream_system):
        system, user_id, probes = stream_system
        with obs.collecting() as registry:
            session = StreamSession(user_id, system=system, config=CFG)
            while_open = registry.gauge("stream_sessions_active").value
            feed(session, probes[0])
            session.close()
            after_close = registry.gauge("stream_sessions_active").value
        assert registry.counter("stream_samples_total").value == float(
            probes[0].shape[0]
        )
        assert registry.counter("stream_onsets_total").value == 1
        assert (
            registry.counter("stream_decisions_total", decision="accept").value
            + registry.counter("stream_decisions_total", decision="reject").value
        ) == 1
        assert while_open - after_close == 1.0
        assert (
            registry.histogram("stream_decision_latency_seconds").count == 1
        )


# -- fault injection ------------------------------------------------------


class TestStreamFaults:
    @watchdog()
    def test_push_fault_drops_chunk_but_session_survives(self, stream_system):
        system, user_id, probes = stream_system
        plan = FaultPlan(
            [FaultRule("stream.push", "error", probability=1.0, max_fires=2)],
            seed=0,
        )
        session = StreamSession(user_id, system=system, config=CFG)
        install(plan)
        try:
            assert session.push(probes[0][:35]) == []
            assert session.push(probes[0][35:70]) == []
        finally:
            clear()
        assert session.stats()["dropped_chunks"] == 2
        # The stream continues from where the transport recovered; a
        # later complete event still authenticates.
        decisions = feed(session, probes[1]) + session.close()
        assert len(decisions) == 1 and decisions[0].status == "ok"


# -- N sessions against one server ---------------------------------------


class TestConcurrentSessions:
    @watchdog()
    def test_parallel_sessions_exactly_once_and_no_deadlock(self, stream_system):
        system, user_id, probes = stream_system
        events, num_sessions = 3, 6
        results: dict[int, list] = {}
        with AuthServer(system) as server:
            sessions = [
                server.open_stream(user_id, stream_config=CFG, session_id=f"s{i}")
                for i in range(num_sessions)
            ]
            assert len(server.streams) == num_sessions

            def pump(i: int) -> None:
                stream = event_stream(probes, i, events)
                decisions = feed(sessions[i], stream)
                decisions += sessions[i].drain()
                results[i] = decisions

            threads = [
                threading.Thread(target=pump, args=(i,), daemon=True)
                for i in range(num_sessions)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(WATCHDOG_S / 2)
            assert not any(thread.is_alive() for thread in threads)
        for i in range(num_sessions):
            assert len(results[i]) == events, f"session {i}"
            assert all(d.status == "ok" for d in results[i])
            assert all(d.session_id == f"s{i}" for d in results[i])

    @watchdog()
    def test_server_decisions_match_sync_reference(self, stream_system):
        # Same stream, same chunking: the server-backed session must
        # agree with the system-backed one on every structural field;
        # distances agree to float32 batch-composition tolerance (the
        # dynamic batcher coalesces windows into different batch
        # shapes, the same epsilon the serving layer already carries).
        system, user_id, probes = stream_system
        stream = event_stream(probes, 0, 2)
        sync_session = StreamSession(user_id, system=system, config=CFG)
        sync = feed(sync_session, stream) + sync_session.close()
        with AuthServer(system) as server:
            session = server.open_stream(user_id, stream_config=CFG)
            served = feed(session, stream) + session.drain()
        assert [
            (d.onset, d.window_start, d.window_end) for d in served
        ] == [(d.onset, d.window_start, d.window_end) for d in sync]
        assert session.trace == sync_session.trace
        np.testing.assert_allclose(
            [d.result.distance for d in served],
            [d.result.distance for d in sync],
            rtol=1e-5,
        )

    @watchdog()
    def test_stop_drains_in_flight_decisions(self, stream_system):
        system, user_id, probes = stream_system
        seen = []
        server = AuthServer(system).start()
        session = server.open_stream(
            user_id, stream_config=CFG, on_decision=seen.append
        )
        feed(session, probes[0])
        assert server.stop(drain=True)
        # stop() closed the session, draining its decision exactly once.
        assert session.closed
        assert len(seen) == 1 and seen[0].status == "ok"
        assert server.streams == ()

    @watchdog()
    def test_open_stream_requires_running_server(self, stream_system):
        system, user_id, _ = stream_system
        from repro.errors import AdmissionRejectedError

        server = AuthServer(system)
        with pytest.raises(AdmissionRejectedError):
            server.open_stream(user_id)
        server.start()
        server.stop()
        with pytest.raises(AdmissionRejectedError):
            server.open_stream(user_id)
