"""Concurrent serving: dynamic micro-batching with backpressure.

The batch engine (PR 1) and the float32 hot path (PR 2) made *batched*
verification an order of magnitude cheaper per request than the
one-at-a-time loop — but only for callers that hand-build batches.
This subsystem serves the traffic shape real deployments actually see,
concurrent independent single requests, by coalescing them:

* :class:`~repro.serve.server.AuthServer` — Future-style single-request
  facade with optional per-request deadlines, graceful
  drain-on-shutdown;
* :class:`~repro.serve.batcher.DynamicBatcher` — bounded admission
  queue with work-conserving dispatch: an idle worker takes the oldest
  key group at once, up to ``max_batch_size`` requests, so batches
  form only from backlog; expired requests are shed;
* :class:`~repro.serve.locks.RWLock` — the readers/writer lock that
  serializes template mutations against in-flight scoring batches;
* :class:`~repro.serve.pool.WorkerPool` — the multi-process worker
  pool behind ``num_worker_processes``: spawned pipeline replicas
  mapping shared-memory model/gallery epochs zero-copy
  (:mod:`~repro.serve.shm`), with versioned copy-on-write epoch
  publishing and per-process metrics merged back into the parent;
* :mod:`~repro.serve.loadgen` — closed/open-loop load generation
  (fixed-rate, Poisson and diurnal-burst arrivals) behind
  ``python -m repro serve-bench`` (imported lazily; it drags in the
  recording substrate).

See DESIGN.md §4f for the batching policy and the locking contract,
and §4i for the process topology and epoch protocol.
"""

from repro.serve.batcher import DynamicBatcher
from repro.serve.locks import RWLock
from repro.serve.pool import WorkerMetricsAggregator, WorkerPool
from repro.serve.server import (
    AuthFuture,
    AuthServer,
    RequestKind,
    RequestStatus,
    ServeRequest,
)

__all__ = [
    "AuthFuture",
    "AuthServer",
    "DynamicBatcher",
    "RWLock",
    "RequestKind",
    "RequestStatus",
    "ServeRequest",
    "WorkerMetricsAggregator",
    "WorkerPool",
]
