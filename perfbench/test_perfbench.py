"""Tests of the benchmark's own pieces.

Run from the root of the repository::

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import sys
import threading
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np
import pytest

import fixture
import loadgen
import tracing
import workloads
from repro.serve.server import AuthFuture, RequestKind


# -- arrival schedules -------------------------------------------------------------


def test_poisson_offsets_repeat_for_a_seed_and_stay_in_the_window():
    a = loadgen.poisson_offsets(50.0, 10.0, seed=3)
    b = loadgen.poisson_offsets(50.0, 10.0, seed=3)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, loadgen.poisson_offsets(50.0, 10.0, seed=4))
    assert a.min() >= 0.0 and a.max() < 10.0
    assert np.all(np.diff(a) > 0)
    assert 400 < len(a) < 600


def test_merge_schedule_orders_requests_and_writes_by_due_time():
    schedule = loadgen.merge_schedule(np.array([0.1, 0.3]), np.array([0.2, 0.3]))
    assert schedule == [
        (0.1, loadgen.REQUEST, 0),
        (0.2, loadgen.WRITE, 0),
        (0.3, loadgen.REQUEST, 1),
        (0.3, loadgen.WRITE, 1),
    ]


def _fake_substrate(num_people: int = 1200) -> dict:
    rng = np.random.default_rng(0)
    return {"people": rng.normal(size=(num_people, fixture.TRIALS_PER_PERSON, 12, 6))}


@pytest.mark.parametrize(
    "workload", [workloads.FleetVerify, workloads.FleetVerifyPool, workloads.GateIdentify]
)
def test_workload_inputs_repeat_for_a_seed(workload):
    first = workload(_fake_substrate(), None, 5, 4.0)
    again = workload(_fake_substrate(), None, 5, 4.0)
    other = workload(_fake_substrate(), None, 6, 4.0)
    assert first.schedule == again.schedule
    assert first.kinds == again.kinds
    for x, y in zip(first.recordings, again.recordings):
        np.testing.assert_array_equal(x, y)
    assert first.schedule != other.schedule


def test_fleet_and_pool_send_the_same_requests():
    fleet = workloads.FleetVerify(_fake_substrate(), None, 9, 4.0)
    pool = workloads.FleetVerifyPool(_fake_substrate(), None, 9, 4.0)
    assert fleet.claims == pool.claims
    requests = [event for event in pool.schedule if event[1] == loadgen.REQUEST]
    assert requests == fleet.schedule


def test_gate_churn_plan_keeps_every_version_it_enrolls():
    gate = workloads.GateIdentify(_fake_substrate(), None, 2, 10.0)
    ops = [op for op, _, _ in gate.writes]
    assert ops[:3] == ["enroll", "renew", "revoke"]
    for op, person, seed in gate.writes:
        if op != "revoke":
            assert seed in gate.versions[workloads._user(person)]
    assert len(set(gate.final_churn)) == len(gate.final_churn)


# -- percentile rule ---------------------------------------------------------------


@pytest.mark.parametrize("count", [21, 50, 100, 500, 999, 1000, 5000])
def test_tail_quantile_leaves_at_least_ten_samples_beyond(count):
    q = loadgen.tail_quantile(count)
    assert 0.5 <= q <= 0.99
    assert (1.0 - q) * count >= 10.0 - 1e-9


def test_tail_quantile_is_the_median_for_few_samples_and_p99_for_many():
    assert loadgen.tail_quantile(20) == 0.5
    assert loadgen.tail_quantile(500) == pytest.approx(0.98)
    assert loadgen.tail_quantile(10_000) == 0.99
    assert loadgen.tail(np.arange(1000.0)) == pytest.approx(np.quantile(np.arange(1000.0), 0.99))


# -- span arithmetic ---------------------------------------------------------------


class _Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def perf_counter(self) -> float:
        return self.now


def test_self_time_and_residual_arithmetic(monkeypatch):
    clock = _Clock()
    monkeypatch.setattr(tracing, "time", types.SimpleNamespace(perf_counter=clock.perf_counter))
    layer = types.SimpleNamespace()

    def inner():
        clock.now += 2.0

    def outer():
        clock.now += 1.0
        layer.inner()
        layer.inner()
        clock.now += 0.5

    layer.inner, layer.outer = inner, outer
    tracer = tracing.Tracer()
    tracer.wrap(layer, "inner", "core.inner", items=lambda args, result: 3)
    tracer.wrap(layer, "outer", "core.outer")
    layer.outer()
    layer.outer()
    table = tracer.layers()
    assert table["core.outer"] == {
        "calls": 2, "items": 0, "total_ms": 11000.0, "self_ms": 3000.0
    }
    assert table["core.inner"] == {
        "calls": 4, "items": 12, "total_ms": 8000.0, "self_ms": 8000.0
    }
    residual_ms, roots = tracer.residual()
    assert (residual_ms, roots) == (3000.0, 2)
    # Self times partition the traced time exactly.
    assert sum(row["self_ms"] for row in table.values()) == 11000.0
    parents = {span.layer: span.parent for span in tracer.spans}
    assert parents["core.outer"] is None
    assert parents["core.inner"].layer == "core.outer"
    tracer.restore()
    assert layer.inner is inner and layer.outer is outer


def test_wait_and_remote_roots_carry_no_residual():
    tracer = tracing.Tracer()
    for layer in (*tracing.WAIT_LAYERS, *tracing.REMOTE_LAYERS):
        tracer.spans.append(
            tracing.Span(id=1, parent=None, layer=layer, thread=0, batch=None, duration=1.0)
        )
    assert tracer.residual() == (0.0, 0)


# -- the open-loop generator ------------------------------------------------------------


def test_settle_clock_stamps_on_the_settling_thread_and_restores():
    original = AuthFuture._settle
    with loadgen.SettleClock() as clock:
        future = AuthFuture(RequestKind.VERIFY, "u")
        before = time.perf_counter()
        assert future._resolve("ok")
        assert before <= clock.settled_at(future) <= time.perf_counter()
        assert not future._resolve("again")
    assert AuthFuture._settle is original


def test_completion_is_stamped_when_resolved_not_when_a_write_ends():
    """A write running on the generator thread must not delay the stamp."""
    future = AuthFuture(RequestKind.VERIFY, "u")

    def send(index):
        threading.Timer(0.02, future._resolve, args=("ok",)).start()
        return future

    def write(index):
        time.sleep(0.2)

    schedule = loadgen.merge_schedule(np.array([0.0]), np.array([0.001]))
    record = loadgen.run_open_loop(schedule, send, write, lambda: 1.0)
    assert record.latency_ms[0] < 150.0
    assert record.write_ms[0] >= 190.0
    assert record.late_ms[0] >= 0.0


def test_segment_pauses_are_cut_out_of_the_schedule_clock():
    """A slow probe between segments delays no request and charges none."""
    readings = iter([1.0, 2.0, 3.0, 4.0])

    def probe():
        time.sleep(0.3)
        return next(readings)

    def send(index):
        future = AuthFuture(RequestKind.VERIFY, "u")
        threading.Timer(0.01, future._resolve, args=("ok",)).start()
        return future

    offsets = np.array([0.1, 0.2, loadgen.SEGMENT_S + 0.1, 2 * loadgen.SEGMENT_S + 0.1])
    schedule = loadgen.merge_schedule(offsets, np.zeros(0))
    record = loadgen.run_open_loop(schedule, send, None, probe)
    np.testing.assert_array_equal(record.segment, [0, 0, 1, 2])
    np.testing.assert_array_equal(record.speed_ms, [1.0, 2.0, 3.0, 4.0])
    assert len(record.segment_s) == 3
    assert np.all(record.late_ms < 100.0)
    assert np.all(record.latency_ms < 150.0)
    assert np.all(record.segment_s < 0.3 + loadgen.SEGMENT_S)
