"""Continuous-authentication sessions over a live IMU feed.

A :class:`StreamSession` is the paper's opportunistic re-verification
loop as a state machine::

    IDLE ──onset confirmed──▶ ONSET ─▶ CAPTURING ──window complete──▶
    VERIFYING ──decision──▶ COOLDOWN ──refractory elapsed──▶ IDLE

While armed (IDLE), the session buffers the raw feed from the arming
point and runs the :class:`~repro.stream.dsp.StreamingOnsetDetector`
over it.  When the detector confirms an 'EMM' it captures until the
armed window covers the post-onset segment, then submits that window —
a genuine raw recording whose first sample is exactly the sample both
detectors padded with — to the backend:

* **system-backed** (``system=``): a blocking
  :meth:`repro.core.system.MandiPass.verify_many` call inside ``push``;
  decisions come back synchronously and deterministically.
* **server-backed** (``server=``): a non-blocking
  :meth:`repro.serve.AuthServer.verify` submission; the future resolves
  through the server's dynamic batcher, so N concurrent sessions'
  verifies coalesce into micro-batches.  Decisions are emitted on a
  later ``push`` or on :meth:`drain`.

The window goes with its onset: the session hands the backend the
onset its streaming detector confirmed (``onsets=`` / ``onset=``), so
the verify path cuts the segment there and runs no detection of its
own — one onset pass per streamed decision.  The streaming detector
only confirms *final* onsets, and the window reproduces the armed
stream prefix bit-for-bit, so batch detection on the same window would
find the identical onset: the emitted
:class:`~repro.types.VerificationResult` is bitwise identical to
calling the batch pipeline, without a hint, on the concatenated signal
— the property ``tests/test_stream_equivalence.py`` proves for
arbitrary chunkings.

Decision emission is exactly-once per confirmed onset: the state
machine holds at most one in-flight verification, settles it under the
session lock, and only then re-enters the refractory path.  Samples
arriving while a verification is in flight are deferred and replayed
once it lands, so the re-arm position — the window end plus
``cooldown_samples`` of refractory — and therefore every downstream
decision is a pure function of the sample stream, independent of
chunking, verification latency, and scheduling.

Fault point ``stream.push`` (error → the pushed chunk is dropped and
counted, the session stays consistent; delay → ingest stall) joins the
canonical table in :mod:`repro.faults.runtime`.
"""

from __future__ import annotations

import collections
import dataclasses
import enum
import threading
import time
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.config import PreprocessConfig, StreamConfig
from repro.dsp.detection import _detection_sos
from repro.errors import InjectedFaultError, ShapeError, StreamStateError
from repro.faults import runtime as faults
from repro.obs import runtime as obs
from repro.stream.dsp import StreamingOnsetDetector
from repro.types import NUM_AXES, VerificationResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.system import MandiPass
    from repro.serve.server import AuthServer


#: Transitions :attr:`StreamSession.trace` keeps (the most recent ones).
#: A session records five per decision, so this is the last ~200
#: decisions; the bound keeps a long-lived session's memory flat.
TRACE_CAPACITY = 1024


class SessionState(enum.Enum):
    IDLE = "idle"            # armed: buffering + onset detection
    ONSET = "onset"          # an 'EMM' was just confirmed
    CAPTURING = "capturing"  # waiting for the post-onset window
    VERIFYING = "verifying"  # window submitted, decision in flight
    COOLDOWN = "cooldown"    # refractory period before re-arming


@dataclasses.dataclass(frozen=True)
class SessionDecision:
    """One emitted authentication decision.

    Attributes:
        session_id: the emitting session.
        user_id: claimed identity the window was verified against.
        onset: absolute stream sample index of the refined onset.
        window_start: absolute index where the armed window began (the
            submitted recording is ``stream[window_start : window_end]``).
        window_end: absolute index one past the submitted window.
        status: ``"ok"`` when a :class:`VerificationResult` came back;
            otherwise the terminal serving status (``"rejected"``,
            ``"expired"``, ``"failed"``, ``"refused"``).
        result: the verification result for ``"ok"`` decisions.
        error: stringified terminal error for non-``"ok"`` decisions.
        latency_s: submit-to-decision wall time.
    """

    session_id: str
    user_id: str
    onset: int
    window_start: int
    window_end: int
    status: str
    result: VerificationResult | None
    error: str | None
    latency_s: float


_active_lock = threading.Lock()
_active_sessions = 0


def _track_active(delta: int) -> None:
    global _active_sessions
    with _active_lock:
        _active_sessions += delta
        obs.set_gauge("stream_sessions_active", float(_active_sessions))


class StreamSession:
    """One long-lived continuous-authentication session.

    Exactly one backend must be given.  Sessions are thread-safe but
    single-feed: one producer pushes chunks (any sizes, including
    1-sample chunks); decisions are returned from :meth:`push` as they
    finalise and delivered to ``on_decision`` when provided.

    Args:
        user_id: the claimed identity every captured window verifies
            against (1:1 continuous authentication).
        system: device facade for synchronous in-process verification.
        server: serving facade; windows are submitted as ordinary
            verify requests and coalesce with all other traffic.
        config: session policy; defaults to the backend's
            ``config.stream`` section.
        on_decision: callback invoked with each
            :class:`SessionDecision` as it finalises (from ``push`` or
            ``drain``, on the calling thread).
        session_id: stable identifier for traces and decisions.
    """

    def __init__(
        self,
        user_id: str,
        *,
        system: "MandiPass | None" = None,
        server: "AuthServer | None" = None,
        config: StreamConfig | None = None,
        on_decision: Callable[[SessionDecision], None] | None = None,
        session_id: str | None = None,
    ) -> None:
        if (system is None) == (server is None):
            raise StreamStateError("exactly one of system/server is required")
        self._system = system
        self._server = server
        backend = system if system is not None else server.system
        self.user_id = user_id
        self.config = config if config is not None else backend.config.stream
        self.preprocess: PreprocessConfig = backend.config.preprocess
        self._sos = _detection_sos(self.preprocess)
        self._on_decision = on_decision
        self.session_id = session_id if session_id is not None else f"s{id(self):x}"
        self._lock = threading.RLock()
        self._samples = 0
        self._trace: collections.deque[tuple[str, int]] = collections.deque(
            maxlen=TRACE_CAPACITY
        )
        self._chunks: list[np.ndarray] = []
        self._buffered = 0
        self._detector: StreamingOnsetDetector | None = None
        self._window_start = 0
        self._onset_abs = 0
        self._needed = 0
        self._deferred: list[np.ndarray] = []  # arrived during VERIFYING
        self._cooldown_left = 0
        self._pending: tuple[object, float, int, int, int] | None = None
        self._state = SessionState.IDLE
        self._closed = False
        self.onsets = 0
        self.decisions = 0
        self.rearms = 0
        self.dropped_chunks = 0
        self._arm(initial=True)
        _track_active(+1)

    # -- public API -----------------------------------------------------

    @property
    def state(self) -> SessionState:
        return self._state

    @property
    def trace(self) -> tuple[tuple[str, int], ...]:
        """State transitions as ``(state_name, absolute_sample)`` pairs.

        Only the most recent :data:`TRACE_CAPACITY` are kept.
        """
        with self._lock:
            return tuple(self._trace)

    @property
    def samples_seen(self) -> int:
        return self._samples

    def stats(self) -> dict:
        with self._lock:
            return {
                "samples": self._samples,
                "onsets": self.onsets,
                "decisions": self.decisions,
                "rearms": self.rearms,
                "dropped_chunks": self.dropped_chunks,
                "state": self._state.value,
            }

    def push(self, chunk: np.ndarray) -> list[SessionDecision]:
        """Feed one raw ``(k, 6)`` chunk; decisions finalised meanwhile.

        Never blocks on a server-backed session; a system-backed
        session verifies inline, so its decisions return from the same
        ``push`` that completed the window.
        """
        with self._lock:
            if self._closed:
                raise StreamStateError("session is closed")
            faults.maybe_delay("stream.push")
            try:
                faults.maybe_fail("stream.push")
            except InjectedFaultError:
                # The transport dropped this chunk; the session's
                # sample clock and detector state are untouched, so a
                # later chunk simply continues the stream.
                self.dropped_chunks += 1
                obs.inc("stream_dropped_chunks_total")
                return []
            chunk = np.asarray(chunk, dtype=np.float64)
            if chunk.ndim != 2 or chunk.shape[1] != NUM_AXES:
                raise ShapeError(f"chunk must be (k, 6), got {chunk.shape}")
            obs.inc("stream_samples_total", float(chunk.shape[0]))
            decisions: list[SessionDecision] = []
            self._poll_pending(decisions)
            self._consume(chunk, decisions)
            self._poll_pending(decisions)
            return decisions

    def _consume(self, chunk: np.ndarray, decisions: list[SessionDecision]) -> None:
        pos, n = 0, chunk.shape[0]
        while pos < n:
            if self._state is SessionState.VERIFYING:
                # Samples arriving during an in-flight decision are
                # deferred and replayed once it lands, so the stream
                # positions of every downstream event are independent
                # of verification latency and scheduling.
                self._deferred.append(chunk[pos:n].copy())
                return
            elif self._state is SessionState.COOLDOWN:
                take = min(self._cooldown_left, n - pos)
                self._cooldown_left -= take
                self._samples += take
                pos += take
                if self._cooldown_left == 0:
                    self._arm()
            else:  # armed: IDLE (detecting) or CAPTURING
                sub = chunk[pos:n]
                pos = n
                self._ingest(sub, decisions)

    def drain(self, timeout: float | None = None) -> list[SessionDecision]:
        """Wait out any in-flight verification; decisions finalised.

        A partially captured window at end-of-stream is abandoned
        (continuous authentication re-verifies on the next 'EMM'); only
        submitted windows owe a decision.
        """
        budget = self.config.drain_timeout_s if timeout is None else timeout
        deadline = time.monotonic() + budget
        with self._lock:
            decisions: list[SessionDecision] = []
            # Replaying deferred samples after a decision lands can
            # confirm another onset and submit a new window, so keep
            # settling until no verification is in flight.
            while self._pending is not None:
                remaining = deadline - time.monotonic()
                self._poll_pending(decisions, wait_s=max(remaining, 0.0))
                if self._pending is not None and remaining <= 0:
                    break
            return decisions

    def close(self, timeout: float | None = None) -> list[SessionDecision]:
        """Drain and retire the session (idempotent)."""
        with self._lock:
            if self._closed:
                return []
            decisions = self.drain(timeout)
            self._closed = True
            _track_active(-1)
            return decisions

    @property
    def closed(self) -> bool:
        return self._closed

    # -- state machine internals ---------------------------------------

    def _transition(self, state: SessionState, at: int | None = None) -> None:
        self._state = state
        self._trace.append((state.name, self._samples if at is None else at))

    def _arm(self, initial: bool = False) -> None:
        self._chunks = []
        self._buffered = 0
        self._window_start = self._samples
        self._detector = StreamingOnsetDetector(self.preprocess, sos=self._sos)
        if not initial:
            obs.inc("stream_rearms_total")
        self._transition(SessionState.IDLE)

    def _ingest(self, sub: np.ndarray, decisions: list[SessionDecision]) -> None:
        self._chunks.append(sub)
        self._buffered += sub.shape[0]
        self._samples += sub.shape[0]
        if self._state is SessionState.IDLE:
            with obs.span("stream_detect"):
                onset = self._detector.push(sub)
            if onset is not None:
                self.onsets += 1
                obs.inc("stream_onsets_total")
                self._onset_abs = self._window_start + onset
                # Trace the onset at the stream position where it
                # became confirmable, not at the chunk boundary the
                # detector happened to fire on.
                confirmed_at = self._window_start + self._detector.final_at
                self._transition(SessionState.ONSET, at=confirmed_at)
                # The window covers the segment and reaches the point
                # where batch detection on the window alone confirms
                # this same onset, so the backend, handed the onset,
                # decides it exactly as it would without the hint.
                # Both bounds are pure stream arithmetic, so the window
                # boundaries are invariant to how the feed was chunked.
                self._needed = max(
                    onset + self.preprocess.segment_length,
                    self._detector.final_at,
                )
                self._transition(SessionState.CAPTURING, at=confirmed_at)
            elif self._buffered >= self.config.rearm_after_samples:
                self.rearms += 1
                self._arm()
                return
        if (
            self._state is SessionState.CAPTURING
            and self._buffered >= self._needed
        ):
            self._submit(decisions)

    def _submit(self, decisions: list[SessionDecision]) -> None:
        buffered = np.concatenate(self._chunks, axis=0)
        window = buffered[: self._needed]
        if buffered.shape[0] > self._needed:
            # Overshoot past the window is stream content after the
            # submitted recording; replay it post-decision like any
            # sample that arrives while verification is in flight.
            self._deferred.append(buffered[self._needed :].copy())
            self._samples -= buffered.shape[0] - self._needed
        self._chunks = []
        self._buffered = 0
        self._transition(SessionState.VERIFYING)
        submitted = time.perf_counter()
        meta = (self._onset_abs, self._window_start, self._window_start + self._needed)
        onset = self._onset_abs - self._window_start
        with obs.span("stream_submit"):
            if self._server is not None:
                future = self._server.verify(
                    self.user_id,
                    window,
                    timeout_ms=self.config.verify_timeout_ms,
                    onset=onset,
                )
                self._pending = (future, submitted, *meta)
            else:
                results = self._system.verify_many(
                    self.user_id, [window], onsets=[onset]
                )
                self._finish(decisions, results[0], None, "ok", submitted, meta)

    def _poll_pending(
        self, decisions: list[SessionDecision], wait_s: float | None = None
    ) -> None:
        if self._pending is None:
            return
        future, submitted, onset, start, end = self._pending
        if wait_s is not None:
            future.wait(wait_s)
        if not future.done():
            return
        self._pending = None
        error = future.exception()
        if error is None:
            self._finish(
                decisions, future.result(), None, "ok", submitted,
                (onset, start, end),
            )
        else:
            self._finish(
                decisions, None, str(error), future.status.value, submitted,
                (onset, start, end),
            )

    def _finish(
        self,
        decisions: list[SessionDecision],
        result: VerificationResult | None,
        error: str | None,
        status: str,
        submitted: float,
        meta: tuple[int, int, int],
    ) -> None:
        from repro.core.verification import decision_label

        onset, start, end = meta
        latency = time.perf_counter() - submitted
        decision = SessionDecision(
            session_id=self.session_id,
            user_id=self.user_id,
            onset=onset,
            window_start=start,
            window_end=end,
            status=status,
            result=result,
            error=error,
            latency_s=latency,
        )
        self.decisions += 1
        obs.inc("stream_decisions_total", decision=decision_label(result))
        obs.observe("stream_decision_latency_seconds", latency)
        decisions.append(decision)
        if self._on_decision is not None:
            self._on_decision(decision)
        self._transition(SessionState.COOLDOWN)
        self._cooldown_left = self.config.cooldown_samples
        if self._cooldown_left == 0:
            self._arm()
        # Replay everything that arrived while the decision was in
        # flight (plus any capture overshoot) through the refractory
        # path, exactly as if it had arrived now.
        deferred, self._deferred = self._deferred, []
        for sub in deferred:
            self._consume(sub, decisions)
