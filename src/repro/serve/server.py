"""The concurrent serving facade: single requests in, micro-batches out.

Real authentication traffic arrives as independent single probes — one
'EMM' per earphone per attempt — so the throughput won by the batch
engine (``verify_many`` / ``identify_many``) is unreachable unless
*something* coalesces concurrent requests.  :class:`AuthServer` is that
layer:

* callers submit one recording at a time (:meth:`verify` /
  :meth:`identify`) and get an :class:`AuthFuture` back immediately;
* a :class:`~repro.serve.batcher.DynamicBatcher` hands the oldest
  queued key group, up to ``max_batch_size`` requests, to an idle
  worker at once (work-conserving: no coalescing timer), shedding
  requests whose per-request deadline expired while queued — batches
  form from the backlog that builds while a worker is busy;
* a worker drains batches into the underlying
  :class:`~repro.core.system.MandiPass` batch APIs and fans the results
  back out, one per future, in submission order within the batch.

Admission control is explicit: a full bounded queue (or a stopped
server) resolves the future as *rejected* — submission never blocks
and never raises.  Shutdown is graceful by default: :meth:`stop`
closes admission, drains every accepted request, then joins the
workers.

Decisions are identical to calling ``verify_many`` directly with the
same recordings, and distances are *bitwise* identical whenever the
micro-batch composition matches the direct call (the engine's forward
is deterministic in the batch content).  Across different batch splits
the underlying BLAS gemms may re-associate, so distances agree to
float tolerance — the same contract the golden engine suite pins for
batch-vs-single parity — while accept/reject decisions remain stable.
"""

from __future__ import annotations

import dataclasses
import enum
import operator
import threading
import time
from typing import TYPE_CHECKING

from repro.errors import (
    AdmissionRejectedError,
    CircuitOpenError,
    ConfigError,
    DeadlineExpiredError,
    ServingError,
    StageTimeoutError,
    TransientError,
    WorkerKilledError,
)
from repro.faults import runtime as faults
from repro.obs import runtime as obs
from repro.serve.batcher import DynamicBatcher
from repro.serve.resilience import CircuitBreaker, call_with_timeout

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.config import ResilienceConfig, ServingConfig
    from repro.core.system import MandiPass
    from repro.types import RawRecording


class RequestKind(enum.Enum):
    VERIFY = "verify"
    IDENTIFY = "identify"


class RequestStatus(enum.Enum):
    PENDING = "pending"
    OK = "ok"
    REJECTED = "rejected"  # admission control (queue full / stopped)
    EXPIRED = "expired"    # deadline passed while queued; shed
    FAILED = "failed"      # the batch call raised (e.g. user revoked)
    REFUSED = "refused"    # load shed by resilience policy (breaker/timeout)


class AuthFuture:
    """Handle for one submitted request; resolves exactly once.

    ``result()`` blocks until resolution and returns the
    :class:`~repro.types.VerificationResult` (or ``None`` for an
    identify against an empty gallery / unusable recording), raising
    :class:`~repro.errors.AdmissionRejectedError`,
    :class:`~repro.errors.DeadlineExpiredError`,
    :class:`~repro.errors.CircuitOpenError` /
    :class:`~repro.errors.StageTimeoutError` (refused) or the original
    batch exception for the non-OK terminal states.

    Settlement is idempotent: the first resolution wins and every later
    attempt is a no-op, so a request can never be answered twice even
    when a dying worker and its replacement race over the same batch.
    """

    __slots__ = (
        "kind", "user_id", "_event", "_lock", "_status", "_value", "_error"
    )

    def __init__(self, kind: RequestKind, user_id: str | None) -> None:
        self.kind = kind
        self.user_id = user_id
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._status = RequestStatus.PENDING
        self._value = None
        self._error: BaseException | None = None

    @property
    def status(self) -> RequestStatus:
        return self._status

    def done(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until resolved; False if ``timeout`` elapsed first."""
        return self._event.wait(timeout)

    def result(self, timeout: float | None = None):
        if not self._event.wait(timeout):
            raise TimeoutError("request not resolved within timeout")
        if self._status is RequestStatus.OK:
            return self._value
        assert self._error is not None
        raise self._error

    def exception(self, timeout: float | None = None) -> BaseException | None:
        """The terminal error, or None for an OK result."""
        if not self._event.wait(timeout):
            raise TimeoutError("request not resolved within timeout")
        return self._error

    # -- resolution (server-side only) ----------------------------------

    def _settle(
        self, value, error: BaseException | None, status: RequestStatus
    ) -> bool:
        """Settle the future; False if it was already settled."""
        with self._lock:
            if self._event.is_set():
                return False
            self._value = value
            self._error = error
            self._status = status
            self._event.set()
            return True

    def _resolve(self, value) -> bool:
        return self._settle(value, None, RequestStatus.OK)

    def _fail(self, error: BaseException, status: RequestStatus) -> bool:
        return self._settle(None, error, status)


@dataclasses.dataclass(eq=False)
class ServeRequest:
    """One queued request: payload + future + scheduling metadata."""

    kind: RequestKind
    user_id: str | None
    recording: "RawRecording"
    future: AuthFuture
    deadline: float | None  # absolute time.monotonic(), None = no deadline
    submitted_at: float     # time.perf_counter(), for e2e latency
    enqueued_at: float = 0.0  # stamped by the batcher
    onset: int | None = None  # known onset sample; None = detect

    @property
    def key(self) -> tuple:
        # verify batches share one sealed template, so they key by
        # user; identify batches score the whole gallery and coalesce
        # globally.
        return (self.kind, self.user_id)


class AuthServer:
    """Serving facade over one :class:`MandiPass` device.

    Args:
        system: the device facade whose batch APIs serve the traffic.
        config: serving policy; defaults to ``system.config.serving``.
        resilience: failure policy; defaults to
            ``system.config.resilience``.  Governs the per-batch retry
            budget for transient failures, the optional stage timeout,
            and the circuit breaker that sheds incoming batches as
            *refused* while the backend is persistently failing
            (DESIGN.md §4g).

    Two execution modes share every submission/batching/settlement code
    path (DESIGN.md §4i):

    * ``num_worker_processes == 0`` (default): one dispatcher thread
      drains batches into the facade's batch APIs in-process.
    * ``num_worker_processes == N > 0``: a
      :class:`~repro.serve.pool.WorkerPool` of N spawned processes runs
      the pipeline against shared-memory epochs, with one dispatcher
      thread per process.  Decisions are bitwise identical to the
      in-process path on identical batch compositions.

    Requests may be submitted before :meth:`start` — they queue (up to
    capacity) and are served once workers run.  Usable as a context
    manager: ``with AuthServer(device) as server: ...`` starts workers
    on entry and drains on exit.

    A worker that dies mid-batch (:class:`~repro.errors.WorkerKilledError`)
    fails that batch's unresolved futures and is replaced — a fresh
    thread in thread mode, a respawned process in pool mode — so
    capacity survives worker crashes.
    """

    def __init__(
        self,
        system: "MandiPass",
        config: "ServingConfig | None" = None,
        resilience: "ResilienceConfig | None" = None,
    ):
        self.system = system
        self.config = config if config is not None else system.config.serving
        self.resilience = (
            resilience if resilience is not None else system.config.resilience
        )
        self._breaker = CircuitBreaker(
            failure_threshold=self.resilience.breaker_failure_threshold,
            cooldown_s=self.resilience.breaker_cooldown_s,
        )
        self._batcher = DynamicBatcher(
            max_batch_size=self.config.max_batch_size,
            capacity=self.config.queue_capacity,
            on_shed=self._shed,
        )
        self._workers: list[threading.Thread] = []
        self._state_lock = threading.Lock()
        self._started = False
        self._stopped = False
        self._pool = None  # WorkerPool when num_worker_processes > 0
        self._streams: list = []  # StreamSessions opened via open_stream

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "AuthServer":
        """Start the dispatcher thread(s) (idempotent until stopped).

        Also pre-builds the 1:N gallery, so the first identify request
        pays scoring cost only; a transient build fault is swallowed
        here — identification lazily retries and degrades to per-user
        scoring until the build succeeds.
        """
        with self._state_lock:
            if self._stopped:
                raise ServingError("AuthServer cannot restart after stop()")
            if self._started:
                return self
            self._started = True
            try:
                self.system.warm_gallery()
            except TransientError:
                obs.inc("degraded_total", path="gallery_warmup")
            if self.config.num_worker_processes > 0:
                from repro.serve.pool import WorkerPool

                self._pool = WorkerPool(self.system, self.config)
                self._pool.start()  # unlinks its segments if boot fails
            # Pool mode pairs one dispatcher thread with each worker
            # process; thread mode runs exactly one dispatcher, since a
            # second thread only contends on the GIL.
            for index in range(max(self.config.num_worker_processes, 1)):
                worker = threading.Thread(
                    target=self._worker_loop,
                    args=(index,),
                    name=f"authserver-worker-{index}",
                    daemon=True,
                )
                worker.start()
                self._workers.append(worker)
        return self

    def stop(self, drain: bool = True, timeout: float | None = None) -> bool:
        """Stop the server; True if every worker exited in time.

        With ``drain=True`` (the default) every already-accepted
        request is still served before the workers exit; new
        submissions are rejected from the moment ``stop`` is called.
        With ``drain=False`` queued-but-undispatched requests resolve
        as rejected instead of being served.
        """
        # Close streaming sessions first, while the workers can still
        # serve their in-flight windows: each close() drains at most one
        # pending decision per session.
        with self._state_lock:
            streams, self._streams = list(self._streams), []
        for session in streams:
            session.close(timeout if drain else 0.0)
        with self._state_lock:
            already = self._stopped
            self._stopped = True
            started = self._started
        self._batcher.close()
        if not drain or not started:
            # Without workers a "drain" would hang forever; reject the
            # backlog explicitly either way.
            for request in self._batcher.drain_pending():
                obs.inc("serve_rejected_total")
                request.future._fail(
                    AdmissionRejectedError(
                        "server stopped before the request was served"
                    ),
                    RequestStatus.REJECTED,
                )
        if already and not self._workers:
            return True
        budget = self.config.drain_timeout_s if timeout is None else timeout
        deadline = time.monotonic() + budget
        # Snapshot: a dying worker's replacement may append concurrently.
        with self._state_lock:
            workers = list(self._workers)
        for worker in workers:
            worker.join(max(deadline - time.monotonic(), 0.0))
        if self._pool is not None:
            # After the dispatchers drained: stop the processes and
            # unlink every shared-memory segment the pool published.
            self._pool.stop()
        return not any(worker.is_alive() for worker in workers)

    def __enter__(self) -> "AuthServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    @property
    def is_running(self) -> bool:
        with self._state_lock:
            return self._started and not self._stopped

    @property
    def queue_depth(self) -> int:
        return self._batcher.depth

    @property
    def pool(self):
        """The :class:`~repro.serve.pool.WorkerPool`, or None (thread mode)."""
        return self._pool

    def worker_metrics(self) -> dict:
        """Merged worker-process metrics (empty dicts in thread mode).

        Pool mode: each worker ships its cumulative registry snapshot
        with every reply; the parent keeps the latest per (process,
        spawn generation) and merges them idempotently, so this never
        double-counts (see
        :class:`~repro.serve.pool.WorkerMetricsAggregator`).
        """
        if self._pool is None:
            return {"counters": {}, "gauges": {}, "histograms": {}}
        return self._pool.worker_metrics()

    # -- submission -----------------------------------------------------

    def verify(
        self,
        user_id: str,
        recording: "RawRecording",
        timeout_ms: float | None = None,
        onset: int | None = None,
    ) -> AuthFuture:
        """Submit one 1:1 verification request; never blocks.

        Args:
            timeout_ms: optional queueing deadline.  A request still
                queued when it expires is shed (future resolves with
                :class:`~repro.errors.DeadlineExpiredError`); a request
                already dispatched to a worker is always answered.
            onset: the recording's known onset sample (a stream
                session's confirmed onset), which skips detection for
                this request; ``None`` detects.  Hinted and unhinted
                requests share batches.  A hint that is not an integer,
                is negative or leaves too few samples is refused like
                an unusable recording, never raised.
        """
        if onset is not None:
            try:
                onset = operator.index(onset)  # numpy ints travel as int
            except TypeError:
                pass  # the preprocessor refuses it for this request only
        return self._submit(
            RequestKind.VERIFY, user_id, recording, timeout_ms, onset=onset
        )

    def identify(
        self, recording: "RawRecording", timeout_ms: float | None = None
    ) -> AuthFuture:
        """Submit one 1:N identification request; never blocks."""
        return self._submit(RequestKind.IDENTIFY, None, recording, timeout_ms)

    def open_stream(
        self,
        user_id: str,
        stream_config=None,
        on_decision=None,
        session_id: str | None = None,
    ):
        """Open a continuous-authentication session backed by this server.

        The returned :class:`~repro.stream.StreamSession` submits each
        captured post-onset window through :meth:`verify`, so windows
        from N concurrent sessions coalesce in the dynamic batcher with
        all other traffic.  Sessions are first-class server workload:
        they are tracked on :attr:`streams` and closed (draining any
        in-flight decision) by :meth:`stop`.

        Args:
            user_id: the claimed identity the session continuously
                re-verifies (must be enrolled, as for :meth:`verify`).
            stream_config: per-session policy; defaults to
                ``system.config.stream``.
            on_decision: optional callback receiving each
                :class:`~repro.stream.SessionDecision`.
            session_id: stable identifier for traces and decisions.
        """
        from repro.stream.session import StreamSession

        with self._state_lock:
            if self._stopped or not self._started:
                raise AdmissionRejectedError("server is not running")
        session = StreamSession(
            user_id,
            server=self,
            config=stream_config,
            on_decision=on_decision,
            session_id=session_id,
        )
        with self._state_lock:
            self._streams.append(session)
        return session

    @property
    def streams(self) -> tuple:
        """Sessions opened via :meth:`open_stream` and not yet closed."""
        with self._state_lock:
            self._streams = [s for s in self._streams if not s.closed]
            return tuple(self._streams)

    def _submit(
        self,
        kind: RequestKind,
        user_id: str | None,
        recording: "RawRecording",
        timeout_ms: float | None,
        onset: int | None = None,
    ) -> AuthFuture:
        if timeout_ms is not None and timeout_ms <= 0:
            raise ConfigError("timeout_ms must be positive when given")
        future = AuthFuture(kind, user_id)
        deadline = (
            time.monotonic() + timeout_ms / 1000.0 if timeout_ms is not None else None
        )
        request = ServeRequest(
            kind=kind,
            user_id=user_id,
            recording=recording,
            future=future,
            deadline=deadline,
            submitted_at=time.perf_counter(),
            onset=onset,
        )
        obs.inc("serve_requests_total", kind=kind.value)
        if self._stopped:
            obs.inc("serve_rejected_total")
            future._fail(
                AdmissionRejectedError("server is stopped"), RequestStatus.REJECTED
            )
        elif not self._batcher.offer(request):
            obs.inc("serve_rejected_total")
            future._fail(
                AdmissionRejectedError("admission queue is full"),
                RequestStatus.REJECTED,
            )
        return future

    # -- worker side ----------------------------------------------------

    def _worker_loop(self, index: int) -> None:
        while True:
            batch = self._batcher.next_batch()
            if batch is None:
                return
            try:
                self._serve_batch(batch, index)
            except WorkerKilledError:
                # The batch's futures were already failed by
                # _serve_batch; replace the dying worker so serving
                # capacity survives the crash.
                obs.inc("serve_worker_deaths_total")
                if self._pool is not None:
                    # The *process* died and the pool respawned it; this
                    # dispatcher thread is unharmed and keeps draining.
                    continue
                self._respawn_worker(index)
                return

    def _respawn_worker(self, index: int) -> None:
        with self._state_lock:
            worker = threading.Thread(
                target=self._worker_loop,
                args=(index,),
                name=f"authserver-worker-{index}-respawn",
                daemon=True,
            )
            worker.start()
            self._workers.append(worker)
        obs.inc("serve_worker_restarts_total")

    def _call_batch(
        self, head: ServeRequest, recordings: list, onsets: list, index: int
    ) -> list:
        def invoke():
            faults.maybe_delay("serve.worker")
            try:
                faults.maybe_fail("serve.worker")
            except WorkerKilledError:
                if self._pool is not None:
                    # Make the injected death real: terminate the
                    # process so respawn/settlement exercise the same
                    # machinery an organic crash would.
                    self._pool.kill_worker(index)
                raise
            if self._pool is not None:
                self._pool.ensure_current_epoch()
                return self._pool.execute(
                    index, head.kind, head.user_id, recordings, onsets
                )
            if head.kind is RequestKind.VERIFY:
                return self.system.verify_many(
                    head.user_id, recordings, onsets=onsets
                )
            return self.system.identify_many(recordings)

        timeout_s = self.resilience.stage_timeout_s
        if timeout_s is None:
            return invoke()
        try:
            return call_with_timeout(
                invoke, timeout_s, label=f"serve.{head.kind.value}"
            )
        except StageTimeoutError:
            if self._pool is not None:
                # The stalled call is still holding the worker's pipe;
                # reclaim the process so the next batch gets a fresh
                # one instead of queueing behind the stall.
                self._pool.kill_worker(index)
            raise

    def _fail_batch(
        self, batch: list, error: BaseException, status: RequestStatus
    ) -> None:
        for request in batch:
            request.future._fail(error, status)

    def _serve_batch(self, batch: list, index: int = 0) -> None:
        head = batch[0]
        if not self._breaker.allow():
            obs.inc("serve_refused_total", reason="circuit_open")
            self._fail_batch(
                batch,
                CircuitOpenError("circuit breaker open; request shed"),
                RequestStatus.REFUSED,
            )
            return
        recordings = [request.recording for request in batch]
        onsets = [request.onset for request in batch]
        policy = self.resilience
        attempt = 0
        while True:
            try:
                results = self._call_batch(head, recordings, onsets, index)
                break
            except WorkerKilledError as exc:
                # Terminal for this worker: answer the batch, then let
                # the exception unwind into _worker_loop's respawn path.
                self._breaker.record_failure()
                self._fail_batch(batch, exc, RequestStatus.FAILED)
                raise
            except StageTimeoutError as exc:
                # No retry: the stalled call is still burning a thread;
                # piling another attempt on top multiplies the stall.
                self._breaker.record_failure()
                obs.inc("serve_refused_total", reason="stage_timeout")
                self._fail_batch(batch, exc, RequestStatus.REFUSED)
                return
            except TransientError as exc:
                self._breaker.record_failure()
                if attempt >= policy.max_retries:
                    self._fail_batch(batch, exc, RequestStatus.FAILED)
                    return
                obs.inc("serve_retries_total")
                time.sleep(policy.backoff_delay(attempt))
                attempt += 1
            except BaseException as exc:  # e.g. user revoked mid-flight
                self._breaker.record_failure()
                self._fail_batch(batch, exc, RequestStatus.FAILED)
                return
        self._breaker.record_success()
        resolved_at = time.perf_counter()
        for request, result in zip(batch, results):
            obs.observe("serve_latency_seconds", resolved_at - request.submitted_at)
            request.future._resolve(result)

    def _shed(self, request: ServeRequest) -> None:
        obs.inc("serve_shed_total")
        request.future._fail(
            DeadlineExpiredError("deadline expired while queued"),
            RequestStatus.EXPIRED,
        )
