"""Arrival schedules, the open-loop generator and the percentile rule.

The load generator runs on a single thread.  It sends each event at
its due time whatever the server is doing.  A request's completion is
stamped by the thread that settles its future (see
:class:`SettleClock`), not by the generator, so neither a write running
on the generator thread nor an older request still in flight delays the
stamp.  Every latency runs from the request's *due* time, which charges
a generator stall to the requests it delayed; how late the generator
ran is reported separately and is the only charge the generator adds.

The schedule runs in segments of ``SEGMENT_S`` schedule seconds.  Between
two segments the generator waits until every request sent so far has
settled and reads the machine's speed with a probe; that pause is cut out
of the schedule's clock, so each segment starts from an idle server and
the probe's time is charged to no request.  The readings on either side
of a segment tell its latencies' speed, which lets a run on a core that a
neighbour slows be reported at a reference speed.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Callable

import numpy as np

from repro.serve.loadgen import poisson_arrivals
from repro.serve.server import AuthFuture

REQUEST = "request"
WRITE = "write"

#: How long after the last send of a segment the generator waits for
#: stragglers.
DRAIN_TIMEOUT_S = 60.0
#: Schedule seconds between two speed probes.
SEGMENT_S = 0.5


def poisson_offsets(rate: float, seconds: float, seed: int) -> np.ndarray:
    """Offsets (s) of a seeded Poisson process at ``rate`` within ``seconds``.

    Draws enough arrivals that running past ``seconds`` is all but
    certain (mean plus eight standard deviations), then clips.
    """
    expected = rate * seconds
    count = int(expected + 8.0 * np.sqrt(expected) + 8)
    offsets = poisson_arrivals(count, rate, seed=seed)
    return offsets[offsets < seconds]


def fixed_offsets(interval: float, seconds: float, phase: float) -> np.ndarray:
    """Offsets ``phase, phase + interval, ...`` below ``seconds``."""
    return np.arange(phase, seconds, interval)


def merge_schedule(
    requests: np.ndarray, writes: np.ndarray
) -> list[tuple[float, str, int]]:
    """One time-ordered list of ``(offset, kind, index)`` events."""
    events = [(float(t), REQUEST, i) for i, t in enumerate(requests)]
    events += [(float(t), WRITE, i) for i, t in enumerate(writes)]
    events.sort(key=lambda event: (event[0], event[1], event[2]))
    return events


def tail_quantile(count: int, cap: float = 0.99) -> float:
    """Highest quantile up to ``cap`` with at least ten samples beyond it.

    ``1 - 10 / count``, capped and never below the median, so a reported
    p99 is only a true p99 once there are 1000 samples and otherwise the
    highest quantile the sample count supports.
    """
    if count <= 20:
        return 0.5
    return min(1.0 - 10.0 / count, cap)


def tail(values, cap: float = 0.99) -> float:
    """The tail-rule quantile of ``values`` (NaN when empty)."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return float("nan")
    return float(np.quantile(values, tail_quantile(values.size, cap)))


def median(values) -> float:
    values = np.asarray(values, dtype=np.float64)
    return float(np.median(values)) if values.size else float("nan")


class SettleClock:
    """Stamps ``time.perf_counter()`` on every served future as it settles.

    While installed, :class:`~repro.serve.server.AuthFuture` settlement
    records the time on the settling thread, just before the future's
    event is set.  ``settled_at(future)`` returns that stamp.
    """

    def __init__(self) -> None:
        self._stamps: dict = {}
        self._lock = threading.Lock()
        self._original = None

    def __enter__(self) -> "SettleClock":
        original = AuthFuture._settle
        stamps, lock = self._stamps, self._lock

        def _settle(future, value, error, status):
            now = time.perf_counter()
            settled = original(future, value, error, status)
            if settled:
                with lock:
                    stamps[future] = now
            return settled

        self._original = original
        AuthFuture._settle = _settle
        return self

    def __exit__(self, *exc) -> None:
        AuthFuture._settle = self._original

    def settled_at(self, future) -> float:
        with self._lock:
            return self._stamps.get(future, float("nan"))


@dataclasses.dataclass
class OpenLoopRecord:
    """What one open-loop run saw; times are schedule seconds."""

    due: np.ndarray
    sent: np.ndarray
    done: np.ndarray
    futures: list
    write_due: np.ndarray
    write_took: np.ndarray
    #: Segment of each request.
    segment: np.ndarray
    #: Probe readings before each segment and after the last one.
    speed_ms: np.ndarray
    #: Wall seconds of each segment, its drain included, its probe not.
    segment_s: np.ndarray
    #: CPU seconds of this process over the segments.
    cpu_s: float

    @property
    def latency_ms(self) -> np.ndarray:
        return (self.done - self.due) * 1e3

    @property
    def late_ms(self) -> np.ndarray:
        return (self.sent - self.due) * 1e3

    @property
    def write_ms(self) -> np.ndarray:
        return self.write_took * 1e3


def _drain(futures: list) -> None:
    deadline = time.perf_counter() + DRAIN_TIMEOUT_S
    for future in futures:
        future.wait(max(deadline - time.perf_counter(), 0.0))


def run_open_loop(
    schedule: list[tuple[float, str, int]],
    send: Callable[[int], object],
    write: Callable[[int], None],
    probe: Callable[[], float],
) -> OpenLoopRecord:
    """Drive ``schedule`` from this thread; return per-request stamps.

    ``send(i)`` submits request ``i`` and returns its
    :class:`~repro.serve.server.AuthFuture`; ``write(i)`` performs write
    ``i`` synchronously on this thread, as a device's enrollment call
    would.  ``probe()`` returns the machine's speed reading; it runs
    before the first segment, between segments and after the last.
    Requests still unresolved ``DRAIN_TIMEOUT_S`` after their segment's
    last send keep a NaN completion time.
    """
    num_requests = sum(1 for _, kind, _ in schedule if kind == REQUEST)
    num_writes = len(schedule) - num_requests
    due = np.full(num_requests, np.nan)
    sent = np.full(num_requests, np.nan)
    done = np.full(num_requests, np.nan)
    origin = np.full(num_requests, np.nan)
    segment = np.zeros(num_requests, dtype=np.int64)
    futures: list = [None] * num_requests
    write_due = np.full(num_writes, np.nan)
    write_took = np.full(num_writes, np.nan)
    speed_ms, segment_s, cpu_s = [probe()], [], 0.0

    with SettleClock() as clock:
        in_flight: list = []
        boundary = SEGMENT_S
        start = began_segment = time.perf_counter()
        cpu = time.process_time()
        for offset, kind, index in schedule:
            if offset >= boundary:
                # Close the segment; the drain and the probe are cut out
                # of the schedule's clock.
                paused = time.perf_counter()
                _drain(in_flight)
                in_flight = []
                segment_s.append(time.perf_counter() - began_segment)
                cpu_s += time.process_time() - cpu
                speed_ms.append(probe())
                cpu = time.process_time()
                began_segment = time.perf_counter()
                start += began_segment - paused
                boundary = (offset // SEGMENT_S + 1) * SEGMENT_S
            remaining = offset - (time.perf_counter() - start)
            if remaining > 0:
                time.sleep(remaining)
            began = time.perf_counter() - start
            if kind == REQUEST:
                due[index] = offset
                sent[index] = began
                origin[index] = start
                segment[index] = len(segment_s)
                futures[index] = send(index)
                in_flight.append(futures[index])
            else:
                write_due[index] = offset
                write(index)
                write_took[index] = time.perf_counter() - start - began
        _drain(in_flight)
        segment_s.append(time.perf_counter() - began_segment)
        cpu_s += time.process_time() - cpu
        for index, future in enumerate(futures):
            done[index] = clock.settled_at(future) - origin[index]
    speed_ms.append(probe())
    return OpenLoopRecord(
        due=due,
        sent=sent,
        done=done,
        futures=futures,
        write_due=write_due,
        write_took=write_took,
        segment=segment,
        speed_ms=np.asarray(speed_ms),
        segment_s=np.asarray(segment_s),
        cpu_s=cpu_s,
    )
