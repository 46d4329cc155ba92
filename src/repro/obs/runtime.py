"""Process-wide metric collection: the default is off.

One module-level registry serves every instrumented call site in the
package.  By default it is a :class:`repro.obs.metrics.NullRegistry`,
so uninstrumented runs pay one ``enabled`` check per call site and
allocate nothing; :func:`enable` swaps in a live
:class:`~repro.obs.metrics.MetricsRegistry` (idempotent),
:func:`disable` swaps the null one back.

Instrumented modules import *this module* and go through the helpers
(``inc`` / ``observe`` / ``set_gauge`` / ``span``) rather than holding
a registry reference, so enabling collection mid-process takes effect
everywhere immediately — and the overhead bench can stub the helpers
out to measure a truly uninstrumented baseline.

Canonical metric names used across the serving path (DESIGN.md §4e):

========================  =========  =======================================
name                      kind       labels
========================  =========  =======================================
stage_latency_seconds     histogram  ``stage``: onset, outlier, filter,
                                     normalize, frontend, extractor,
                                     scoring, gallery_score, verify,
                                     identify
batch_size                histogram  ``op``: embed, verify_many,
                                     identify_many
failures_total            counter    ``error``: BatchItemFailure.error
decisions_total           counter    ``decision``: accept, reject, refusal
enrolled_users            gauge      --
gallery_users             gauge      --
========================  =========  =======================================

The sharded gallery (:mod:`repro.core.gallery.sharded`, DESIGN.md §4h)
adds:

================================  =========  =============================
name                              kind       labels
================================  =========  =============================
gallery_shards                    gauge      --  (occupied shard blocks)
gallery_tombstones                gauge      --  (revoked-but-unreclaimed
                                                 rows)
gallery_mutations_total           counter    ``kind``: upsert, remove
gallery_compactions_total         counter    --  (shards rebuilt
                                                 tombstone-free)
gallery_compaction_failures_total counter    --  (contained + deferred)
gallery_rerank_pool               histogram  --  (exact-stage candidates
                                                 per probe)
================================  =========  =============================

plus ``gallery_sync`` / ``gallery_prescreen`` / ``gallery_rerank`` /
``gallery_compact`` stages in ``stage_latency_seconds``.

The serving layer (:mod:`repro.serve`, DESIGN.md §4f) adds:

========================  =========  =======================================
name                      kind       labels
========================  =========  =======================================
serve_queue_depth         gauge      --
serve_queue_wait_seconds  histogram  --  (admission to dispatch)
serve_batch_occupancy     histogram  --  (requests per micro-batch)
serve_latency_seconds     histogram  --  (submit to resolved, end-to-end)
serve_requests_total      counter    ``kind``: verify, identify
serve_rejected_total      counter    --  (admission control)
serve_shed_total          counter    --  (deadline expired while queued)
========================  =========  =======================================

The multi-process worker pool (:mod:`repro.serve.pool`, DESIGN.md §4i)
adds — gauges live in the *parent*; worker-process registries are
shipped back per reply and merged idempotently per (process, spawn
generation) via :func:`repro.obs.metrics.merge_snapshots`:

=============================  =========  ================================
name                           kind       labels
=============================  =========  ================================
serve_worker_processes         gauge      --  (configured pool width;
                                              0 after ``stop()``)
serve_worker_alive             gauge      --  (currently-live processes)
serve_worker_epoch_generation  gauge      --  (latest published epoch)
serve_worker_generation        gauge      ``process``  (epoch each
                                          process last confirmed)
serve_worker_mapped_generation gauge      --  (worker-side: epoch this
                                          process has mapped)
serve_worker_restarts_total    counter    --  (respawns after death)
serve_epoch_publishes_total    counter    --  (copy-on-write publishes)
serve_epoch_bytes              gauge      --  (bytes in the live epoch
                                              segment)
=============================  =========  ================================

The fault-injection and resilience layer (:mod:`repro.faults`,
DESIGN.md §4g) adds:

==========================  =========  =====================================
name                        kind       labels
==========================  =========  =====================================
fault_injected_total        counter    ``point``, ``kind`` (fault points and
                                       kinds from :mod:`repro.faults`)
fault_retries_total         counter    ``stage``: preprocess, frontend,
                                       extractor (engine-level retries)
degraded_total              counter    ``path``: axes (verify with unusable
                                       IMU axes zeroed), identify_fallback
                                       (per-user scoring after gallery-build
                                       failure)
serve_retries_total         counter    --  (server-level batch retries)
serve_refused_total         counter    ``reason``: circuit_open,
                                       stage_timeout
serve_worker_deaths_total   counter    --  (workers killed mid-batch)
serve_worker_restarts_total counter    --  (replacement workers spawned)
serve_breaker_state         gauge      --  (0 closed, 1 open)
serve_breaker_open_total    counter    --  (breaker trip events)
==========================  =========  =====================================

The streaming continuous-authentication layer (:mod:`repro.stream`,
DESIGN.md §4j) adds — plus ``stream_detect`` / ``stream_submit``
stages in ``stage_latency_seconds``:

===============================  =========  ==============================
name                             kind       labels
===============================  =========  ==============================
stream_sessions_active           gauge      --  (open sessions, process-
                                                wide)
stream_samples_total             counter    --  (raw samples pushed)
stream_onsets_total              counter    --  (streaming detections)
stream_decisions_total           counter    ``decision``: accept, reject,
                                            refusal
stream_decision_latency_seconds  histogram  --  (window submit to decision)
stream_rearms_total              counter    --  (detector restarts:
                                                refractory expiry and
                                                onset-free rearm windows)
stream_dropped_chunks_total      counter    --  (``stream.push`` faults)
===============================  =========  ==============================

The storage gauges:

===========================  =========  =================================
name                         kind       labels
===========================  =========  =================================
model_bytes                  gauge      ``dtype``: float32 (the live
                                        extractor)
gallery_bytes                gauge      --  (derived 1:N scoring state,
                                            all shards)
===========================  =========  =================================

The adversarial scenario matrix, which alone fuses the IMU and
heartbeat channels (:mod:`repro.eval.scenarios`, DESIGN.md §4l), adds:

===========================  =========  =================================
name                         kind       labels
===========================  =========  =================================
scenario_cells_total         counter    --  (matrix cells evaluated)
scenario_eer                 gauge      ``scenario`` (motion+degradation
                                        cell), ``modality``: imu,
                                        heartbeat, fused
scenario_far                 gauge      ``scenario``, ``modality`` (at
                                        the clean-cell calibrated
                                        threshold)
scenario_frr                 gauge      ``scenario``, ``modality``
scenario_attack_far          gauge      ``attack``: replay, mimicry;
                                        ``modality``
===========================  =========  =================================
"""

from __future__ import annotations

import contextlib
import functools
import time
from typing import Callable, Iterator

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    MetricsRegistry,
    NullRegistry,
)

STAGE_LATENCY = "stage_latency_seconds"

_NULL_REGISTRY = NullRegistry()
_registry: MetricsRegistry = _NULL_REGISTRY


def get_registry() -> MetricsRegistry:
    """The process-wide registry (the shared null one when disabled)."""
    return _registry


def set_registry(registry: MetricsRegistry | None) -> MetricsRegistry:
    """Install ``registry`` process-wide; ``None`` restores the no-op."""
    global _registry
    _registry = registry if registry is not None else _NULL_REGISTRY
    return _registry


def enable() -> MetricsRegistry:
    """Turn collection on (idempotent); returns the live registry."""
    if not _registry.enabled:
        set_registry(MetricsRegistry())
    return _registry


def disable() -> None:
    """Turn collection off; the null registry absorbs all calls."""
    set_registry(None)


@contextlib.contextmanager
def collecting(
    registry: MetricsRegistry | None = None,
) -> Iterator[MetricsRegistry]:
    """Temporarily install a live registry (a fresh one by default).

    The previous process-wide registry is restored on exit; the yielded
    registry stays readable afterwards — the snapshot survives the
    scope::

        with obs.collecting() as registry:
            system.verify_many(user, queue)
        print(registry.to_prometheus())
    """
    previous = _registry
    installed = set_registry(registry if registry is not None else MetricsRegistry())
    try:
        yield installed
    finally:
        set_registry(previous)


# -- hot-path helpers ----------------------------------------------------
#
# Each checks ``enabled`` before touching labels, so the disabled cost
# is one call + one attribute read + one branch.


def inc(name: str, amount: float = 1.0, **labels: str) -> None:
    registry = _registry
    if registry.enabled:
        registry.counter(name, **labels).inc(amount)


def observe(
    name: str,
    value: float,
    buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    **labels: str,
) -> None:
    registry = _registry
    if registry.enabled:
        registry.histogram(name, buckets=buckets, **labels).observe(value)


def observe_batch_size(op: str, size: int) -> None:
    observe("batch_size", float(size), buckets=DEFAULT_SIZE_BUCKETS, op=op)


def set_gauge(name: str, value: float, **labels: str) -> None:
    registry = _registry
    if registry.enabled:
        registry.gauge(name, **labels).set(value)


class span:
    """Wall-clock timer for one pipeline stage.

    Context manager *and* decorator; records one observation into the
    ``stage_latency_seconds{stage=...}`` histogram of whichever
    registry is live when the span opens (decorated functions pick up
    an :func:`enable` issued after decoration).  When collection is
    disabled the span neither reads the clock nor touches a histogram.
    """

    __slots__ = ("stage", "_registry", "_start")

    def __init__(self, stage: str) -> None:
        self.stage = stage
        self._registry = None
        self._start = 0.0

    def __enter__(self) -> "span":
        registry = _registry
        if registry.enabled:
            self._registry = registry
            self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        registry = self._registry
        if registry is not None:
            elapsed = time.perf_counter() - self._start
            registry.histogram(STAGE_LATENCY, stage=self.stage).observe(elapsed)
            self._registry = None
        return False

    def __call__(self, func: Callable) -> Callable:
        @functools.wraps(func)
        def wrapped(*args, **kwargs):
            with span(self.stage):
                return func(*args, **kwargs)

        return wrapped
