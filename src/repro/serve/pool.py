"""The multi-process worker pool behind :class:`~repro.serve.server.AuthServer`.

Thread workers only overlap inside BLAS: preprocessing, onset
detection, the batcher and gallery sync all contend on the GIL, so a
second dispatcher thread buys almost nothing on CPU-bound traffic.
This module escapes the interpreter instead (DESIGN.md §4i):

* **Topology.**  ``num_worker_processes`` spawned worker processes,
  each running the *full* preprocess→frontend→extractor→verify /
  identify pipeline in its own interpreter.  The parent keeps one
  dispatcher thread per process (1:1, synchronous over a
  ``multiprocessing.Pipe``), so the existing batcher/future machinery
  is untouched — a dispatcher behaves exactly like a thread worker
  whose ``verify_many`` happens to run elsewhere.

* **Replica state.**  The model's float64 state dict travels in the
  pickled :class:`WorkerBootstrap`; each worker restores it with
  :meth:`~repro.nn.layers.Module.load_state` and builds its own
  :class:`~repro.core.extractor.FrozenExtractor` from the same bytes
  the parent's engine was built from.  The gallery's resident scoring
  arrays are published into shared-memory segments
  (:mod:`repro.serve.shm`) and mapped zero-copy by every worker, which
  rebuilds its gallery around the mapped blocks
  (:meth:`~repro.core.gallery.sharded.ShardedGallery.from_epoch`).
  Decisions are therefore **bitwise identical** to the single-process
  path on identical batch compositions.

* **Versioned copy-on-write epochs.**  The parent owns the mutation
  log.  When the facade's template version moves, the next dispatch
  publishes a fresh epoch — new segment, generation+1 — and attaches
  the manifest to worker messages; a worker re-maps atomically between
  batches (it serves each batch against exactly one epoch), so
  enroll/revoke never blocks scoring.  Retired segments are unlinked
  as soon as no in-flight message still references them by name
  (a worker that already mapped a segment keeps its pages across the
  unlink — POSIX semantics — so only un-attached manifests gate
  retirement).

* **Failure semantics.**  A worker process that dies mid-batch
  surfaces as :class:`~repro.errors.WorkerKilledError` on its
  dispatcher — the same exception, breaker accounting and
  exactly-once :class:`~repro.serve.server.AuthFuture` settlement as
  the thread path — and the pool respawns the process.  Every batch
  reply carries the worker's cumulative metrics snapshot; the parent
  keeps the latest per (process, spawn generation) and merges them
  idempotently (:func:`repro.obs.metrics.merge_snapshots`), so a
  re-delivered snapshot can never double-count.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import pickle
import threading
from multiprocessing import connection as mp_connection
from multiprocessing import get_context
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import (
    ServingError,
    TransientError,
    VerificationError,
    WorkerKilledError,
)
from repro.obs import runtime as obs
from repro.obs.metrics import merge_snapshots
from repro.serve import shm

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.config import MandiPassConfig, ServingConfig
    from repro.core.system import MandiPass

#: How long the parent waits for a fresh worker's ready handshake; the
#: spawn re-imports numpy and the repro package, so seconds, not ms.
_BOOT_TIMEOUT_S = 60.0
_JOIN_TIMEOUT_S = 5.0


@dataclasses.dataclass(frozen=True)
class WorkerBootstrap:
    """Everything a spawned worker needs to build its replica.

    Must stay picklable under the ``spawn`` start method: frozen
    config dataclasses, plain ints/bools and the model's state dict of
    float64 arrays all are.
    """

    config: "MandiPassConfig"
    num_classes: int
    model_state: dict
    metrics_enabled: bool


class _EpochTransform:  # pragma: no cover - runs in worker processes
    """Duck-typed stand-in for :class:`~repro.security.cancelable.CancelableTransform`.

    Wraps a user's Gaussian matrix mapped out of a published epoch and
    replays ``CancelableTransform.apply``'s exact operation —
    ``float64(batch) @ matrix`` — so worker-side verification runs the
    same gemm on the same bytes as the parent and stays bitwise equal.
    """

    __slots__ = ("_matrix",)

    def __init__(self, matrix: np.ndarray) -> None:
        self._matrix = matrix

    def apply(self, vector: np.ndarray) -> np.ndarray:
        return np.asarray(vector, dtype=np.float64) @ self._matrix


class WorkerReplica:  # pragma: no cover - runs in worker processes
    """The child-side pipeline: engine + adopted gallery epochs."""

    def __init__(self, bootstrap: WorkerBootstrap) -> None:
        from repro.core.engine import InferenceEngine
        from repro.core.extractor import TwoBranchExtractor
        from repro.core.frontend import make_frontend
        from repro.dsp.pipeline import Preprocessor

        config = bootstrap.config
        self.config = config
        self.threshold = config.decision.threshold
        model = TwoBranchExtractor(
            config.extractor, num_classes=bootstrap.num_classes, seed=0
        )
        # The freshly-initialised weights only fixed the module topology.
        model.load_state(bootstrap.model_state)
        self.engine = InferenceEngine(
            model,
            Preprocessor(config.preprocess),
            make_frontend(config.extractor.frontend),
            batch_size=config.inference.batch_size,
            compute_dtype=config.inference.compute_dtype,
            resilience=config.resilience,
        )
        self.generation = -1  # no epoch mapped yet
        self._gallery = None
        self._epoch_segment = None
        self._pinned: list = []  # epochs whose views outlived their swap

    def adopt_epoch(self, generation: int, manifest: dict) -> None:
        """Re-map the published epoch; atomic between batches."""
        from repro.core.gallery.sharded import ShardedGallery

        segment, arrays = shm.attach(manifest)
        gallery = ShardedGallery.from_epoch(
            self.config.gallery, arrays, manifest["meta"]
        )
        old_segment = self._epoch_segment
        self._gallery = gallery  # drops the old gallery and its views
        self._epoch_segment = segment
        self.generation = generation
        if old_segment is not None:
            try:
                old_segment.close()
            except BufferError:  # pragma: no cover - stray exported view
                self._pinned.append(old_segment)
        obs.set_gauge("serve_worker_mapped_generation", generation)

    # -- request handlers (the facade's decision routines) -------------

    def verify_many(
        self, user_id: str, recordings: list, onsets: list | None
    ) -> list:
        from repro.core.verification import verify_batch

        row = self._gallery.row(user_id) if self._gallery is not None else None
        if row is None:
            raise VerificationError(f"user {user_id!r} is not enrolled")
        matrix, template = row
        with obs.span("verify"):
            obs.observe_batch_size("verify_many", len(recordings))
            return verify_batch(
                user_id=user_id,
                engine=self.engine,
                recordings=recordings,
                template=template,
                transform=_EpochTransform(matrix),
                threshold=self.threshold,
                onsets=onsets,
            )

    def identify_many(self, recordings: list) -> list:
        from repro.core.verification import identify_batch

        with obs.span("identify"):
            obs.observe_batch_size("identify_many", len(recordings))
            return identify_batch(
                self.engine, self._gallery, recordings, self.threshold
            )


def _safe_exception(exc: BaseException) -> BaseException:  # pragma: no cover - worker side
    """An exception guaranteed to survive the pipe (pickle round-trip)."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return ServingError(f"worker error: {type(exc).__name__}: {exc}")


def _registry_snapshot() -> dict | None:  # pragma: no cover - worker side
    registry = obs.get_registry()
    return registry.to_dict() if registry.enabled else None


def _worker_main(  # pragma: no cover - worker process entry point
    index: int, spawn_generation: int, bootstrap: WorkerBootstrap, conn
) -> None:
    """Entry point of one worker process (spawn-safe, module-level)."""
    if bootstrap.metrics_enabled:
        obs.enable()
    try:
        replica = WorkerReplica(bootstrap)
    except BaseException as exc:  # report instead of dying silently
        try:
            conn.send(("boot_error", _safe_exception(exc)))
        finally:
            conn.close()
        return
    conn.send(("ready", index, spawn_generation))
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            _exit_worker(conn)  # parent is gone
        if message[0] == "stop":
            _exit_worker(conn)
        _, batch_id, kind, user_id, recordings, onsets, generation, manifest = (
            message
        )
        try:
            if manifest is not None and generation != replica.generation:
                replica.adopt_epoch(generation, manifest)
            if kind == "verify":
                results = replica.verify_many(user_id, recordings, onsets)
            else:
                results = replica.identify_many(recordings)
        except BaseException as exc:
            reply = (
                "error",
                batch_id,
                _safe_exception(exc),
                replica.generation,
                _registry_snapshot(),
            )
        else:
            reply = (
                "ok",
                batch_id,
                results,
                replica.generation,
                _registry_snapshot(),
            )
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            _exit_worker(conn)


def _exit_worker(conn) -> None:  # pragma: no cover - worker side
    """Leave the worker process without running interpreter teardown.

    A replica's gallery views alias mapped shared-memory pages, so
    normal finalization would have ``SharedMemory.__del__`` try to
    close mappings that still have exported numpy pointers — a harmless
    but noisy ``BufferError`` per segment at every clean shutdown.  ``os._exit`` skips finalization
    entirely; the OS reclaims the mappings, and segment lifetime is
    the parent's job anyway.
    """
    try:
        conn.close()
    except Exception:  # pragma: no cover - already closed
        pass
    os._exit(0)


class WorkerMetricsAggregator:
    """Latest-cumulative-snapshot store, keyed by (process, spawn gen).

    Workers ship their whole registry cumulatively with every reply;
    keeping only the newest snapshot per incarnation makes the merge
    idempotent — replaying or re-merging any snapshot sequence yields
    the same totals, so the parent can never double-count a child's
    observations.  A respawned process is a *new* incarnation (fresh
    counters from zero under a new spawn generation), and its dead
    predecessor's final snapshot keeps contributing.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._latest: dict[tuple[int, int], dict] = {}

    def update(
        self, process_index: int, spawn_generation: int, snapshot: dict | None
    ) -> None:
        if snapshot is None:
            return
        with self._lock:
            self._latest[(process_index, spawn_generation)] = snapshot

    def merged(self) -> dict:
        with self._lock:
            snapshots = list(self._latest.values())
        return merge_snapshots(snapshots)


class _Worker:
    """Parent-side record of one worker process."""

    __slots__ = (
        "process", "conn", "spawn_generation", "mapped_gen", "in_flight_gen",
    )

    def __init__(self, process, conn, spawn_generation: int) -> None:
        self.process = process
        self.conn = conn
        self.spawn_generation = spawn_generation
        self.mapped_gen = -1
        self.in_flight_gen: int | None = None  # epoch gen of the live send


class WorkerPool:
    """N worker processes + shared-memory epoch publishing.

    Owned by :class:`~repro.serve.server.AuthServer` when
    ``num_worker_processes > 0``; its lifecycle (``start`` / ``stop``)
    follows the server's, and ``stop`` unlinks every shared segment the
    pool ever published (verified by the serve tests' leak assertion).
    """

    def __init__(self, system: "MandiPass", config: "ServingConfig") -> None:
        self._system = system
        self.num_processes = config.num_worker_processes
        self._ctx = get_context("spawn")
        self._publish_lock = threading.Lock()
        self._batch_ids = itertools.count(1)
        self._workers: list[_Worker | None] = [None] * self.num_processes
        self._spawn_counts = [0] * self.num_processes
        # Serializes pipe use per worker slot across incarnations: a
        # stage-timeout helper thread abandoned mid-execute and the
        # dispatcher's next batch must never interleave on one pipe.
        self._dispatch_locks = [
            threading.Lock() for _ in range(self.num_processes)
        ]
        self._bootstrap: WorkerBootstrap | None = None
        self._epoch_segment = None
        self._epoch_manifest: dict | None = None
        self._epoch_generation = 0
        self._published_version: int | None = None
        self._retired: list[tuple[int, object]] = []
        self._stopped = False
        self.metrics = WorkerMetricsAggregator()

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "WorkerPool":
        """Publish the initial epoch, then spawn every worker."""
        self._bootstrap = WorkerBootstrap(
            config=self._system.config,
            num_classes=self._system.model.num_classes,
            model_state=self._system.model.state_dict(),
            metrics_enabled=obs.get_registry().enabled,
        )
        try:
            self.ensure_current_epoch()
            for index in range(self.num_processes):
                self._spawn(index)
        except BaseException:
            self.stop()
            raise
        obs.set_gauge("serve_worker_processes", self.num_processes)
        self._publish_alive_gauge()
        return self

    def stop(self) -> None:
        """Stop workers and unlink every owned segment (idempotent)."""
        with self._publish_lock:
            if self._stopped:
                return
            self._stopped = True
        for worker in self._workers:
            if worker is None:
                continue
            try:
                worker.conn.send(("stop",))
            except Exception:
                pass
        for worker in self._workers:
            if worker is None:
                continue
            worker.process.join(timeout=_JOIN_TIMEOUT_S)
            if worker.process.is_alive():  # pragma: no cover - stuck child
                worker.process.terminate()
                worker.process.join(timeout=_JOIN_TIMEOUT_S)
            try:
                worker.conn.close()
            except Exception:
                pass
        shm.unlink(self._epoch_segment)
        self._epoch_segment = None
        self._epoch_manifest = None
        for _, segment in self._retired:
            shm.unlink(segment)
        self._retired.clear()
        obs.set_gauge("serve_worker_processes", 0)
        obs.set_gauge("serve_worker_alive", 0)

    def _spawn(self, index: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        spawn_generation = self._spawn_counts[index]
        self._spawn_counts[index] += 1
        process = self._ctx.Process(
            target=_worker_main,
            args=(index, spawn_generation, self._bootstrap, child_conn),
            name=f"authserver-proc-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        worker = _Worker(process, parent_conn, spawn_generation)
        ready = mp_connection.wait(
            [parent_conn, process.sentinel], timeout=_BOOT_TIMEOUT_S
        )
        if parent_conn in ready:
            message = parent_conn.recv()
            if message[0] == "boot_error":
                process.join(timeout=_JOIN_TIMEOUT_S)
                raise ServingError(
                    f"worker {index} failed to boot: {message[1]}"
                )
        else:
            process.terminate()
            process.join(timeout=_JOIN_TIMEOUT_S)
            raise ServingError(
                f"worker {index} died or hung during boot "
                f"(waited {_BOOT_TIMEOUT_S:.0f}s)"
            )
        self._workers[index] = worker
        self._publish_alive_gauge()

    def _publish_alive_gauge(self) -> None:
        alive = sum(
            1
            for worker in self._workers
            if worker is not None and worker.process.is_alive()
        )
        obs.set_gauge("serve_worker_alive", alive)

    def kill_worker(self, index: int) -> None:
        """Hard-kill one worker process (fault injection made real).

        The dispatcher currently (or next) talking to this worker
        observes the death as :class:`~repro.errors.WorkerKilledError`
        and the pool respawns the process — the same path an organic
        crash takes.
        """
        worker = self._workers[index]
        if worker is not None and worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(timeout=_JOIN_TIMEOUT_S)
        self._publish_alive_gauge()

    # -- epoch publishing ----------------------------------------------

    def ensure_current_epoch(self) -> None:
        """Publish a fresh epoch if the facade's template state moved.

        Called by dispatchers before every batch; the cheap no-change
        path is one int comparison.  Raises
        :class:`~repro.errors.TransientError` subclasses when an
        injected gallery-build fault fires during export — the
        server's existing per-batch retry/backoff path absorbs it.
        """
        if self._published_version == self._system.template_version:
            return
        with self._publish_lock:
            if self._stopped:
                return
            version, arrays, meta = self._system.export_epoch()
            if self._published_version == version:
                return
            segment, manifest = shm.publish(
                arrays, f"epoch{self._epoch_generation + 1}"
            )
            manifest["meta"] = meta
            if self._epoch_segment is not None:
                self._retired.append(
                    (self._epoch_generation, self._epoch_segment)
                )
            self._epoch_generation += 1
            self._epoch_segment = segment
            self._epoch_manifest = manifest
            self._published_version = version
            obs.inc("serve_epoch_publishes_total")
            obs.set_gauge("serve_worker_epoch_generation", self._epoch_generation)
            obs.set_gauge("serve_epoch_bytes", manifest["nbytes"])
            self._sweep_retired_locked()

    def _sweep_retired_locked(self) -> None:
        """Unlink retired segments no in-flight manifest still names.

        A worker that already *mapped* a segment keeps its pages across
        the unlink (POSIX), so only messages whose manifest has not yet
        been attached gate retirement: segment of generation ``g`` is
        safe once no live send carries generation ``<= g``.
        """
        floor = self._epoch_generation
        for worker in self._workers:
            if worker is not None and worker.in_flight_gen is not None:
                floor = min(floor, worker.in_flight_gen)
        keep = []
        for generation, segment in self._retired:
            if generation < floor:
                shm.unlink(segment)
            else:
                keep.append((generation, segment))
        self._retired = keep

    # -- dispatch -------------------------------------------------------

    def execute(
        self, index: int, kind, user_id, recordings: list, onsets: list | None = None
    ) -> list:
        """Run one batch on worker ``index``; blocks until its reply.

        ``onsets`` are the verify batch's per-recording onset hints
        (``None`` entries, or ``None`` for all, are detected).

        Raises :class:`~repro.errors.WorkerKilledError` when the
        process dies mid-batch (after respawning a replacement), or
        re-raises whatever the replica raised (e.g.
        :class:`~repro.errors.VerificationError` for an unknown user).
        """
        with self._dispatch_locks[index]:
            worker = self._workers[index]
            if worker is None or not worker.process.is_alive():
                self._respawn(index)
                worker = self._workers[index]
            return self._execute_on(
                worker, index, kind, user_id, recordings, onsets
            )

    def _respawn(self, index: int) -> None:
        with self._publish_lock:
            if self._stopped:
                raise ServingError("worker pool is stopped")
        old = self._workers[index]
        if old is not None:
            try:
                old.conn.close()
            except Exception:
                pass
        self._spawn(index)
        obs.inc("serve_worker_restarts_total")

    def _execute_on(
        self,
        worker: _Worker,
        index: int,
        kind,
        user_id,
        recordings: list,
        onsets: list | None,
    ) -> list:
        with self._publish_lock:
            generation = self._epoch_generation
            manifest = (
                None if worker.mapped_gen == generation else self._epoch_manifest
            )
            worker.in_flight_gen = generation
        batch_id = next(self._batch_ids)
        try:
            worker.conn.send(
                (
                    "batch",
                    batch_id,
                    kind.value,
                    user_id,
                    recordings,
                    onsets,
                    generation,
                    manifest,
                )
            )
        except (BrokenPipeError, OSError):
            self._on_worker_death(worker, index)
        while True:
            ready = mp_connection.wait([worker.conn, worker.process.sentinel])
            if worker.conn in ready:
                try:
                    message = worker.conn.recv()
                except (EOFError, OSError):
                    self._on_worker_death(worker, index)
                status, reply_id, payload, worker_gen, snapshot = message
                with self._publish_lock:
                    worker.mapped_gen = worker_gen
                    worker.in_flight_gen = None
                self.metrics.update(index, worker.spawn_generation, snapshot)
                if obs.get_registry().enabled:
                    obs.set_gauge(
                        "serve_worker_generation", worker_gen, process=str(index)
                    )
                if reply_id != batch_id:
                    # A reply for a batch this dispatcher already gave
                    # up on (stage timeout); the future was settled
                    # then — drop the stale answer, keep waiting.
                    continue
                if status == "ok":
                    return payload
                raise payload
            # Sentinel fired without a readable reply: the process died
            # mid-batch.
            self._on_worker_death(worker, index)

    def _on_worker_death(self, worker: _Worker, index: int) -> None:
        with self._publish_lock:
            worker.in_flight_gen = None
        self._publish_alive_gauge()
        self._respawn(index)
        raise WorkerKilledError(
            f"worker process {index} (spawn {worker.spawn_generation}) "
            "died mid-batch"
        )

    # -- introspection --------------------------------------------------

    def worker_metrics(self) -> dict:
        """Merged cumulative metrics across worker incarnations."""
        return self.metrics.merged()

    @property
    def epoch_generation(self) -> int:
        return self._epoch_generation
