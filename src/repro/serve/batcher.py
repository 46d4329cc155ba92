"""Dynamic micro-batching: coalesce queued requests under a policy.

Production inference servers (clipper/triton-style dynamic batchers)
win their throughput by coalescing independent single requests into one
batched model call.  :class:`DynamicBatcher` is that request-coalescing
core, kept free of any inference knowledge: items are opaque objects
exposing three attributes —

``key``
    batchable-together identity.  A batch is always homogeneous in
    ``key`` (the server keys verify requests by user and identify
    requests globally, because ``verify_many`` takes one template).
``deadline``
    absolute :func:`time.monotonic` instant after which the item must
    be *shed* instead of served, or ``None``.
``enqueued_at``
    stamped by :meth:`offer`; the batcher reads it back for the
    queue-wait histogram.

Policy: dispatch is work-conserving.  A worker blocked in
:meth:`next_batch` takes the key of the FIFO head at once and ships up
to ``max_batch_size`` queued items of that key — there is no coalescing
timer, so an idle-arrival request pays no queueing beyond the wake-up.
Batches still form from the backlog that builds while the workers are
busy: the next dispatch after a long batch collects every request of
the head's key that arrived meanwhile.

Admission control is a bounded FIFO: :meth:`offer` returns ``False``
instead of growing an unbounded heap; the caller translates that into
an explicit rejected result.  Expired items are shed inside
:meth:`next_batch` via the ``on_shed`` callback (invoked with no lock
held) and never reach a worker.

Instrumented through :mod:`repro.obs`: ``serve_queue_depth`` gauge,
``serve_queue_wait_seconds`` and ``serve_batch_occupancy`` histograms.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable

from repro.errors import ConfigError
from repro.faults import runtime as faults
from repro.obs import runtime as obs
from repro.obs.metrics import DEFAULT_SIZE_BUCKETS


class DynamicBatcher:
    """Bounded FIFO that hands out key-homogeneous micro-batches.

    Args:
        max_batch_size: upper bound on one dispatched batch.
        capacity: admission bound on queued (not yet dispatched) items.
        on_shed: called once per expired item, outside the lock.
    """

    def __init__(
        self,
        max_batch_size: int,
        capacity: int,
        on_shed: Callable[[object], None] | None = None,
    ) -> None:
        if max_batch_size <= 0:
            raise ConfigError("max_batch_size must be positive")
        if capacity <= 0:
            raise ConfigError("capacity must be positive")
        self.max_batch_size = max_batch_size
        self.capacity = capacity
        self._on_shed = on_shed
        self._cond = threading.Condition()
        self._items: deque = deque()
        self._closed = False

    # -- producer side --------------------------------------------------

    @property
    def depth(self) -> int:
        """Number of queued, not-yet-dispatched items."""
        with self._cond:
            return len(self._items)

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    def offer(self, item) -> bool:
        """Admit ``item``; False when full or closed (never blocks)."""
        if faults.should_reject("serve.queue"):
            # Injected queue saturation: admission control reports full
            # exactly as a genuinely saturated queue would.
            return False
        with self._cond:
            if self._closed or len(self._items) >= self.capacity:
                return False
            item.enqueued_at = time.monotonic()
            self._items.append(item)
            obs.set_gauge("serve_queue_depth", len(self._items))
            self._cond.notify_all()
        return True

    def close(self) -> None:
        """Stop admitting; queued items still drain through workers."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def drain_pending(self) -> list:
        """Remove and return every queued item (for non-drain stops)."""
        with self._cond:
            items = list(self._items)
            self._items.clear()
            obs.set_gauge("serve_queue_depth", 0)
            self._cond.notify_all()
        return items

    # -- consumer side --------------------------------------------------

    def next_batch(self) -> list | None:
        """The head key's micro-batch; blocks only while the queue is
        empty, and returns None once closed + empty.

        Expired items are shed before dispatch (the ``on_shed``
        callback runs between lock sections, so a future blocked on a
        shed request resolves without waiting for the next dispatch).
        """
        while True:
            shed: list = []
            batch: list | None = None
            closed_and_empty = False
            with self._cond:
                while True:
                    shed = self._pop_expired_locked(time.monotonic())
                    if shed:
                        break  # resolve outside the lock, then retry
                    if self._items:
                        batch = self._take_batch_locked(self._items[0].key)
                        break
                    if self._closed:
                        closed_and_empty = True
                        break
                    self._cond.wait()
            for item in shed:
                if self._on_shed is not None:
                    self._on_shed(item)
            if batch is not None:
                dispatched = time.monotonic()
                for item in batch:
                    obs.observe(
                        "serve_queue_wait_seconds", dispatched - item.enqueued_at
                    )
                obs.observe(
                    "serve_batch_occupancy",
                    float(len(batch)),
                    buckets=DEFAULT_SIZE_BUCKETS,
                )
                return batch
            if closed_and_empty:
                return None
            # else: only shed items this round; go wait again.

    # -- internals (lock held) ------------------------------------------

    def _pop_expired_locked(self, now: float) -> list:
        if not any(
            item.deadline is not None and item.deadline <= now
            for item in self._items
        ):
            return []
        shed = []
        alive: deque = deque()
        for item in self._items:
            if item.deadline is not None and item.deadline <= now:
                shed.append(item)
            else:
                alive.append(item)
        self._items = alive
        obs.set_gauge("serve_queue_depth", len(self._items))
        return shed

    def _take_batch_locked(self, key) -> list:
        batch: list = []
        rest: deque = deque()
        for item in self._items:
            if len(batch) < self.max_batch_size and item.key == key:
                batch.append(item)
            else:
                rest.append(item)
        self._items = rest
        obs.set_gauge("serve_queue_depth", len(self._items))
        if self._items:
            # Another worker may already have a dispatchable batch.
            self._cond.notify_all()
        return batch
