"""Per-layer tracing by wrapping each layer's public functions.

:class:`Tracer` replaces a function on its module or class with a
wrapper that records one :class:`Span` per call: its layer, its parent
span on the same thread, the micro-batch the thread is serving, the
items it handled and its duration.  A span's *self* time is its
duration minus the durations of its direct children, so summing self
times over every span counts each traced second exactly once.  The
*residual* of a root span is its self time: work inside the top-level
operation that no wrapped layer below it claims.

:func:`install_layers` wraps the layers the benchmark reports on, and
:func:`per_layer_metrics` turns the spans into the ``per_layer``
metrics of ``BENCHMARK.json``.  Only the traced run installs the
tracer; the timed runs call the program unwrapped.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import threading
import time
from collections import defaultdict

import numpy as np

from loadgen import median, tail

#: Root layers that wait rather than work; they carry no residual.
WAIT_LAYERS = ("serve.batcher.next_batch", "serve.server.submit")
#: Root layers whose time is spent in another process; the worker's
#: share and the pipe's are reported as pool execute and IPC time.
REMOTE_LAYERS = ("serve.pool.execute",)


@dataclasses.dataclass
class Span:
    id: int
    parent: "Span | None"
    layer: str
    thread: int
    batch: int | None
    start: float = 0.0
    items: int = 0
    note: object = None
    duration: float = 0.0
    child: float = 0.0

    @property
    def self_time(self) -> float:
        return self.duration - self.child


class Tracer:
    """Wraps functions and records a span per call, per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.batches: dict[int, list[int]] = {}
        self._ids = itertools.count(1)
        self._batch_ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._requests: dict = {}

    # -- wrapping -------------------------------------------------------

    def wrap(self, owner, name: str, layer: str, items=None, note=None) -> None:
        """Trace ``owner.name`` as ``layer``.

        ``items(args, result)`` counts the items a call handled and
        ``note(args, result)`` keeps any per-call fact a metric needs.
        """
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return tracer.call(layer, original, args, kwargs, items, note)

        setattr(owner, name, traced)
        self._patches.append((owner, name, original))

    def restore(self) -> None:
        """Put every wrapped function back, newest first."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def clear(self) -> None:
        with self._lock:
            self.spans = []
            self.batches = {}
            self._requests = {}

    # -- recording ------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, layer, fn, args, kwargs, items=None, note=None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(
            id=next(self._ids),
            parent=parent,
            layer=layer,
            thread=threading.get_ident(),
            batch=getattr(self._local, "batch", None),
        )
        stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.duration = time.perf_counter() - span.start
            stack.pop()
            if parent is not None:
                parent.child += span.duration
        if items is not None:
            span.items = int(items(args, result))
        if note is not None:
            span.note = note(args, result)
        with self._lock:
            self.spans.append(span)
        if layer == "serve.server.submit":
            with self._lock:
                self._requests[result] = span.id
        elif layer == "serve.batcher.next_batch" and result:
            batch_id = next(self._batch_ids)
            span.batch = self._local.batch = batch_id
            with self._lock:
                self.batches[batch_id] = [
                    self._requests.get(request.future) for request in result
                ]
        return result

    # -- summaries ------------------------------------------------------

    def layers(self) -> dict[str, dict]:
        """Per layer: calls, items, total and self milliseconds."""
        table: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "items": 0, "total_ms": 0.0, "self_ms": 0.0}
        )
        for span in self.spans:
            row = table[span.layer]
            row["calls"] += 1
            row["items"] += span.items
            row["total_ms"] += span.duration * 1e3
            row["self_ms"] += span.self_time * 1e3
        return dict(table)

    def residual(self) -> tuple[float, int]:
        """``(total residual ms, work roots)`` over root spans that work here."""
        roots = [
            span
            for span in self.spans
            if span.parent is None
            and span.layer not in WAIT_LAYERS
            and span.layer not in REMOTE_LAYERS
        ]
        return sum(span.self_time for span in roots) * 1e3, len(roots)

    def dump(self, path) -> None:
        """Write every span as one JSON line; times in ms from the first."""
        origin = min((span.start for span in self.spans), default=0.0)
        with open(path, "w") as out:
            for span in self.spans:
                record = {
                    "id": span.id,
                    "parent": span.parent.id if span.parent else None,
                    "layer": span.layer,
                    "thread": span.thread,
                    "batch": span.batch,
                    "start_ms": (span.start - origin) * 1e3,
                    "duration_ms": span.duration * 1e3,
                    "self_ms": span.self_time * 1e3,
                    "items": span.items,
                }
                if span.layer == "serve.batcher.next_batch" and span.batch:
                    record["requests"] = self.batches.get(span.batch)
                out.write(json.dumps(record) + "\n")


def overhead_ratio(tracer: Tracer, install, job, repeats: int) -> float:
    """Traced over untraced median time of ``job``, minus one.

    ``install`` wraps the layers; the spans the traced calls leave are
    dropped afterwards.
    """

    def timed() -> float:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            job()
            times.append(time.perf_counter() - start)
        return float(np.median(times))

    job()  # warm caches before either leg
    plain = timed()
    install()
    traced = timed()
    tracer.clear()
    return traced / plain - 1.0


# -- the benchmark's layers --------------------------------------------------


def _rows(position: int):
    return lambda args, result: np.shape(args[position])[0]


def _count(position: int):
    return lambda args, result: len(args[position])


def install_layers(tracer: Tracer) -> None:
    """Wrap the public functions of every layer the benchmark reports."""
    from repro.core import frontend, verification
    from repro.core.engine import InferenceEngine
    from repro.core.gallery.sharded import ShardedGallery
    from repro.core.system import MandiPass
    from repro.dsp import pipeline
    from repro.dsp.pipeline import Preprocessor
    from repro.security.cancelable import CancelableTransform
    from repro.serve.batcher import DynamicBatcher
    from repro.serve.locks import RWLock
    from repro.serve.pool import WorkerPool
    from repro.serve.server import AuthServer
    from repro.stream.dsp import StreamingOnsetDetector, StreamingSOSFilter
    from repro.stream.session import StreamSession

    wrap = tracer.wrap
    # dsp: the names the batch pipeline imports, so nested helpers of
    # other modules are not counted twice.
    for name in (
        "detect_onset",
        "detect_onset_from_signal",
        "detection_signals_batch",
        "segment_after_onset",
    ):
        wrap(pipeline, name, "dsp.onset")
    wrap(pipeline, "replace_outliers", "dsp.outlier")
    wrap(pipeline, "replace_outliers_batch", "dsp.outlier")
    wrap(pipeline, "sosfilt", "dsp.filter")
    wrap(pipeline, "min_max_normalize", "dsp.normalize")
    wrap(
        Preprocessor,
        "process_batch_detailed",
        "dsp.pipeline",
        items=_count(1),
        note=lambda args, result: len(result[2]),
    )
    # core
    for cls in (frontend.FrontEnd, *frontend.FrontEnd.__subclasses__()):
        if "transform_batch" in cls.__dict__:
            wrap(cls, "transform_batch", "core.frontend", items=_rows(1))
    wrap(InferenceEngine, "embed_features", "core.extractor", items=_rows(1))
    wrap(CancelableTransform, "apply", "core.scoring")
    wrap(verification, "distances_to_template", "core.scoring", items=_rows(0))
    wrap(ShardedGallery, "best_match", "core.gallery.best_match", items=_rows(1))
    wrap(ShardedGallery, "sync", "core.gallery.sync")
    wrap(MandiPass, "enroll", "core.system.enroll")
    wrap(MandiPass, "revoke", "core.system.revoke")
    wrap(MandiPass, "renew", "core.system.renew")
    wrap(MandiPass, "verify_many", "core.system.verify_many", items=_count(2))
    wrap(MandiPass, "identify_many", "core.system.identify_many", items=_count(1))
    wrap(RWLock, "acquire_read", "core.system.read_wait")
    # serve
    wrap(DynamicBatcher, "next_batch", "serve.batcher.next_batch", note=_queue_note)
    wrap(AuthServer, "verify", "serve.server.submit")
    wrap(AuthServer, "identify", "serve.server.submit")
    wrap(WorkerPool, "execute", "serve.pool.execute", items=_count(4))
    wrap(
        WorkerPool,
        "ensure_current_epoch",
        "serve.pool.epoch",
        note=lambda args, result: args[0].epoch_generation,
    )
    # stream
    wrap(StreamSession, "push", "stream.push", items=_rows(1))
    wrap(StreamingSOSFilter, "push", "stream.filter")
    wrap(StreamingOnsetDetector, "push", "stream.detector")


def _queue_note(args, result):
    """Queue waits (s) of a dispatched batch, stamped as it returns."""
    if not result:
        return None
    now = time.monotonic()
    return [now - request.enqueued_at for request in result]


# -- per-layer metrics -------------------------------------------------------


def _hist(snapshot: dict, key: str) -> tuple[float, float]:
    hist = (snapshot or {}).get("histograms", {}).get(key)
    return (hist["sum"], hist["count"]) if hist else (0.0, 0)


def _ratio(num: float, den: float) -> float:
    return float(num / den) if den else 0.0


def per_layer_metrics(
    tracer: Tracer,
    obs_snapshot: dict,
    worker_snapshot: dict,
    late_ms: np.ndarray,
    overhead: float,
) -> dict[str, tuple[float, str]]:
    """``{name: (value, unit)}`` for every ``per_layer`` metric.

    A layer the workload never reaches reports 0.  In pool mode the
    pipeline runs in the worker process, so its DSP, front-end and
    extractor stages come from the worker's own stage histograms and
    are added to what the parent traced (enrollment runs in the parent).
    """
    layers = tracer.layers()

    def row(layer: str) -> dict:
        return layers.get(
            layer, {"calls": 0, "items": 0, "total_ms": 0.0, "self_ms": 0.0}
        )

    spans_of = defaultdict(list)
    for span in tracer.spans:
        spans_of[span.layer].append(span)

    # Pool workers report per-stage histograms (seconds) over the
    # recordings they embedded.
    worker_items = _hist(worker_snapshot, 'batch_size{op="embed"}')[0]

    def stage(layer: str, obs_stage: str) -> tuple[float, float]:
        worker_s = _hist(
            worker_snapshot, f'stage_latency_seconds{{stage="{obs_stage}"}}'
        )[0]
        return row(layer)["total_ms"] + worker_s * 1e3, worker_items

    pipeline_items = row("dsp.pipeline")["items"]
    metrics: dict[str, tuple[float, str]] = {}
    for name, obs_stage in (
        ("onset", "onset"),
        ("outlier", "outlier"),
        ("filter", "filter"),
        ("normalize", "normalize"),
    ):
        total, extra = stage(f"dsp.{name}", obs_stage)
        metrics[f"dsp.{name}_ms_per_item"] = (
            _ratio(total, pipeline_items + extra),
            "ms",
        )
    refused = sum(span.note or 0 for span in spans_of["dsp.pipeline"])
    metrics["dsp.refusal_ratio"] = (_ratio(refused, pipeline_items), "ratio")

    total, extra = stage("core.frontend", "frontend")
    metrics["core.frontend.ms_per_item"] = (
        _ratio(total, row("core.frontend")["items"] + extra),
        "ms",
    )
    total, extra = stage("core.extractor", "extractor")
    extractor = row("core.extractor")
    metrics["core.extractor.ms_per_item"] = (
        _ratio(total, extractor["items"] + extra),
        "ms",
    )
    metrics["core.extractor.items_per_call"] = (
        _ratio(extractor["items"], extractor["calls"]),
        "items",
    )
    scoring = row("core.scoring")
    metrics["core.scoring.ms_per_item"] = (
        _ratio(scoring["total_ms"], scoring["items"]),
        "ms",
    )

    best = row("core.gallery.best_match")
    metrics["core.gallery.best_match_ms_per_probe"] = (
        _ratio(best["self_ms"], best["items"]),
        "ms",
    )
    sync_s, sync_n = _hist(obs_snapshot, 'stage_latency_seconds{stage="gallery_sync"}')
    metrics["core.gallery.sync_ms"] = (_ratio(sync_s * 1e3, sync_n), "ms")
    pool_sum, pool_n = _hist(obs_snapshot, "gallery_rerank_pool")
    metrics["core.gallery.rerank_pool_mean"] = (_ratio(pool_sum, pool_n), "users")
    metrics["core.gallery.compactions"] = (
        float((obs_snapshot or {}).get("counters", {}).get("gallery_compactions_total", 0.0)),
        "count",
    )

    for name in ("enroll", "revoke"):
        spans = row(f"core.system.{name}")
        metrics[f"core.system.{name}_ms"] = (
            _ratio(spans["total_ms"], spans["calls"]),
            "ms",
        )
    wait = row("core.system.read_wait")
    metrics["core.system.read_wait_ms"] = (_ratio(wait["total_ms"], wait["calls"]), "ms")

    waits = [
        w for span in spans_of["serve.batcher.next_batch"] for w in (span.note or ())
    ]
    sizes = [len(span.note) for span in spans_of["serve.batcher.next_batch"] if span.note]
    metrics["serve.batcher.queue_wait_p50_ms"] = (
        median(waits) * 1e3 if waits else 0.0,
        "ms",
    )
    metrics["serve.batcher.queue_wait_p99_ms"] = (
        tail(waits) * 1e3 if waits else 0.0,
        "ms",
    )
    metrics["serve.batcher.occupancy_mean"] = (
        float(np.mean(sizes)) if sizes else 0.0,
        "items",
    )
    # Facade batch calls a server worker thread made for its batches:
    # the root spans tagged with the batch they serve.
    served = [
        span
        for span in tracer.spans
        if span.parent is None
        and span.batch is not None
        and span.layer not in WAIT_LAYERS
    ]
    metrics["serve.server.service_ms_per_batch"] = (
        _ratio(
            sum(span.duration for span in served) * 1e3,
            len({span.batch for span in served}),
        ),
        "ms",
    )

    execute = row("serve.pool.execute")
    execute_ms = _ratio(execute["total_ms"], execute["calls"])
    verify_s, verify_n = _hist(
        worker_snapshot, 'stage_latency_seconds{stage="verify"}'
    )
    identify_s, identify_n = _hist(
        worker_snapshot, 'stage_latency_seconds{stage="identify"}'
    )
    worker_ms = _ratio((verify_s + identify_s) * 1e3, verify_n + identify_n)
    metrics["serve.pool.execute_ms_per_batch"] = (execute_ms, "ms")
    metrics["serve.pool.ipc_ms_per_batch"] = (
        execute_ms - worker_ms if execute["calls"] else 0.0,
        "ms",
    )
    published = []
    last = None
    for span in spans_of["serve.pool.epoch"]:
        if last is not None and span.note != last:
            published.append(span.duration * 1e3)
        last = span.note
    metrics["serve.pool.epoch_publish_ms"] = (
        float(np.mean(published)) if published else 0.0,
        "ms",
    )
    metrics["serve.pool.epochs_published"] = (float(len(published)), "count")

    push = row("stream.push")
    metrics["stream.push_ms_per_chunk"] = (_ratio(push["total_ms"], push["calls"]), "ms")
    metrics["stream.filter_ms_per_chunk"] = (
        _ratio(row("stream.filter")["total_ms"], push["calls"]),
        "ms",
    )
    metrics["stream.detector_ms_per_chunk"] = (
        _ratio(row("stream.detector")["total_ms"], push["calls"]),
        "ms",
    )
    stream_verify = [
        span.duration * 1e3
        for span in spans_of["core.system.verify_many"]
        if span.parent is not None and span.parent.layer == "stream.push"
    ]
    metrics["stream.verify_ms"] = (
        float(np.mean(stream_verify)) if stream_verify else 0.0,
        "ms",
    )

    metrics["loadgen.late_p99_ms"] = (
        tail(late_ms) if len(late_ms) else 0.0,
        "ms",
    )
    residual_ms, roots = tracer.residual()
    metrics["unattributed_ms"] = (_ratio(residual_ms, roots), "ms")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics
