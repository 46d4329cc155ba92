"""Process-wide fault injection: the default is *no plan*.

Mirrors the :mod:`repro.obs.runtime` null-registry pattern: one
module-level slot holds the active :class:`~repro.faults.plan.FaultPlan`
(or ``None``), and every hook starts with one global read plus one
``is None`` branch — production traffic with no plan installed pays
nothing else.  Instrumented modules import *this module* and call the
helpers, so installing a plan mid-process takes effect everywhere at
once.

Canonical fault points (DESIGN.md §4g):

==================  ====================  ===============================
point               kinds                 effect
==================  ====================  ===============================
imu                 dropout / nan / clip  corrupt recordings entering the
                                          engine (and ``Recorder.record``)
engine.preprocess   error / delay         Section IV pipeline stage
engine.frontend     error / delay         direction-splitting transform
engine.extractor    error / delay         CNN forward
gallery.build       error                 1:N gallery sync entry (fires
                                          when mutations are pending)
gallery.shard_build error / delay         one row-level shard mutation
                                          (applied-or-untouched; the
                                          entry stays logged for retry)
gallery.compact     error / delay         tombstone compaction of one
                                          shard (contained: deferred
                                          and retried, never fails an
                                          identification)
serve.queue         reject                admission queue reports full
serve.worker        kill / delay / error  worker death / stall / failure
stream.push         error / delay         one pushed chunk of a
                                          continuous-auth session:
                                          ``error`` drops the chunk
                                          (counted, session stays
                                          consistent), ``delay`` stalls
                                          ingest
==================  ====================  ===============================

Fires are counted into the ``fault_injected_total{point,kind}`` metric
family when collection is on.

Plans are installed per process.  In multi-process serving
(``num_worker_processes > 0``) only the *parent-side* points fire:
``serve.queue`` and ``serve.worker`` hook the dispatcher (a
``serve.worker`` kill there terminates the real worker process), and
``gallery.*`` fire inside the parent's mutation/publish path.  The
engine-stage points (``engine.*``, ``imu``) run inside worker
processes, which never install a plan — inject those in-process
(thread mode) where the engine actually executes under the plan.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.errors import InjectedFaultError, WorkerKilledError
from repro.faults.plan import FaultPlan, FaultRule
from repro.obs import runtime as obs

_active: FaultPlan | None = None


def get_plan() -> FaultPlan | None:
    """The installed plan, or ``None`` when injection is off."""
    return _active


def install(plan: FaultPlan | None) -> FaultPlan | None:
    """Install ``plan`` process-wide; ``None`` turns injection off."""
    global _active
    _active = plan
    return plan


def clear() -> None:
    """Remove any installed plan (idempotent)."""
    install(None)


def _record(rule: FaultRule) -> None:
    obs.inc("fault_injected_total", point=rule.point, kind=rule.kind)


# -- hooks (called from instrumented production code) ---------------------


def maybe_fail(point: str) -> None:
    """Raise the injected error for ``point`` if an error rule fires.

    ``"error"`` rules raise :class:`~repro.errors.InjectedFaultError`
    (transient — the retry policies may re-attempt); ``"kill"`` rules
    raise :class:`~repro.errors.WorkerKilledError` (terminal for the
    calling worker).
    """
    plan = _active
    if plan is None:
        return
    rule = plan.fired(point, ("error", "kill"))
    if rule is None:
        return
    _record(rule)
    if rule.kind == "kill":
        raise WorkerKilledError(f"injected worker death at {point!r}")
    raise InjectedFaultError(point)


def maybe_delay(point: str) -> None:
    """Sleep out a latency-spike rule for ``point``, if one fires."""
    plan = _active
    if plan is None:
        return
    rule = plan.fired(point, ("delay",))
    if rule is not None and rule.delay_s > 0:
        _record(rule)
        time.sleep(rule.delay_s)


def should_reject(point: str) -> bool:
    """True when a ``"reject"`` rule fires — the queue claims it is full."""
    plan = _active
    if plan is None:
        return False
    rule = plan.fired(point, ("reject",))
    if rule is None:
        return False
    _record(rule)
    return True


def corrupt_recording(recording: np.ndarray, point: str = "imu") -> np.ndarray:
    """Apply any fired corruption rules to one ``(n, 6)`` recording.

    Always returns a copy when a rule fires; never mutates the caller's
    array.  ``dropout`` kills whole axes (a dead sensor channel),
    ``nan`` writes a contiguous non-finite burst, ``clip`` saturates an
    axis at a rail — the three failure shapes real earphone IMUs
    exhibit.
    """
    plan = _active
    if plan is None:
        return recording
    arr = np.asarray(recording)
    if arr.ndim != 2:
        return recording
    draws = plan.corruption_draws(point, arr.shape[1])
    if not draws:
        return recording
    out = np.array(arr, dtype=np.float64, copy=True)
    n = out.shape[0]
    for rule, axes, position in draws:
        _record(rule)
        if rule.kind == "dropout":
            out[:, list(axes)] = 0.0
        elif rule.kind == "nan":
            span = max(1, int(round(rule.fraction * n)))
            start = min(int(position * n), max(n - span, 0))
            out[start : start + span, list(axes)] = np.nan
        elif rule.kind == "clip":
            for axis in axes:
                column = out[:, axis]
                rail = (
                    rule.magnitude
                    if rule.magnitude is not None
                    else 0.5 * float(np.max(np.abs(column)) or 1.0)
                )
                out[:, axis] = np.clip(column, -rail, rail)
    return out


def corrupt_recordings(
    recordings: Sequence[np.ndarray], point: str = "imu"
) -> Sequence[np.ndarray]:
    """Batch form of :func:`corrupt_recording`; no-op without a plan."""
    plan = _active
    if plan is None:
        return recordings
    return [corrupt_recording(recording, point=point) for recording in recordings]
