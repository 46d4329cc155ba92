"""Serving layer: micro-batched throughput vs the sequential baseline.

Drives :func:`repro.serve.loadgen.serving_benchmark` — the same suite
behind ``python -m repro serve-bench`` — and asserts the acceptance
bars of the serving layer:

* closed-loop throughput >= 5x the sequential one-at-a-time loop
  (>= 2x under ``SERVE_QUICK=1``, where the tiny request counts leave
  the micro-batches half empty);
* idle-arrival p99 latency within the work-conserving bound (the
  single-service p99 + two GIL switch intervals: dispatch has no
  coalescing window, so an idle request pays only its own service and
  the two thread handoffs);
* overload on a small queue actually sheds or rejects instead of
  queueing without bound;
* the Poisson / diurnal arrival traces complete against a 2-process
  pool and the worker sweep produces a row per process count with the
  machine facts recorded next to it.

The process-scaling bar is hardware-conditional by design: on a
multi-core host the sweep must show real scaling (>= 2x at 4 worker
processes over 1), while on a 1-core container — where parallel
speedup is physically impossible — the sweep still has to *complete
correctly* (every request served, no leaked segments) and the report
must record the core count that explains the flat curve.  Faking a
speedup bar the hardware cannot express would make the bench dishonest.

Results land in ``BENCH_serving.json`` at the repo root; quick mode
writes ``BENCH_serving.quick.json`` instead, so a smoke never
overwrites the full-mode file.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.serve import shm as serve_shm
from repro.serve.loadgen import serving_benchmark

from conftest import once

QUICK = os.environ.get("SERVE_QUICK", "") == "1"
RESULTS_PATH = Path(__file__).resolve().parents[1] / (
    "BENCH_serving.quick.json" if QUICK else "BENCH_serving.json"
)
SPEEDUP_BAR = 2.0 if QUICK else 5.0
#: Required 4-process-vs-1 scaling when the host actually has the cores.
PROCESS_SCALING_BAR = 2.5


def test_serving_throughput_and_policy(benchmark):
    report = once(
        benchmark,
        lambda: serving_benchmark(quick=QUICK, output=RESULTS_PATH),
    )

    machine = report["machine"]
    baseline = report["baseline"]
    sequential = baseline["sequential"]
    closed = baseline["closed_loop"]
    idle = baseline["idle"]
    overload = baseline["open_loop"]
    arrivals = report["arrivals"]
    sweep = report["worker_sweep"]
    print()
    print(
        f"serving ({'quick' if QUICK else 'full'}, "
        f"{machine['usable_cpus']} cpu): "
        f"sequential {sequential['throughput_rps']:.0f} req/s, "
        f"closed-loop {closed['throughput_rps']:.0f} req/s "
        f"({baseline['speedup_vs_sequential']:.1f}x, "
        f"occupancy {closed['mean_batch_occupancy']:.1f}), "
        f"idle p99 {idle['p99_ms']:.1f} ms (bound {idle['bound_ms']:.1f} ms), "
        f"overload shed {overload['expired']} / rejected "
        f"{overload['rejected']}, sweep "
        + ", ".join(
            f"{row['processes']}p={row['throughput_rps']:.0f}"
            for row in sweep["rows"]
        )
    )

    # The report is honest about the hardware it ran on.
    assert machine["cpu_count"] >= 1
    assert machine["usable_cpus"] >= 1
    assert machine["start_method"] in ("spawn", "fork", "forkserver")

    # Everything accepted in the cooperative phases actually completed.
    assert sequential["failed"] == 0 and closed["failed"] == 0
    assert closed["rejected"] == 0 and closed["expired"] == 0
    assert closed["mean_batch_occupancy"] > 1.0  # coalescing happened

    assert baseline["speedup_vs_sequential"] >= SPEEDUP_BAR
    assert idle["within_bound"], (
        f"idle p99 {idle['p99_ms']:.1f} ms exceeds policy bound "
        f"{idle['bound_ms']:.1f} ms"
    )
    # Overload (2x the measured batched capacity into an 8-slot queue)
    # must trigger backpressure, not unbounded queueing.
    assert overload["expired"] + overload["rejected"] >= 1
    assert overload["failed"] == 0

    # Arrival traces ran against a live 2-process pool: nothing failed
    # outright, and the sustainable Poisson trace was actually served.
    assert arrivals["processes"] == 2
    for name in ("poisson", "diurnal"):
        trace = arrivals[name]
        assert trace["failed"] == 0, f"{name} trace hit hard failures"
        total = (
            trace["completed"] + trace["rejected"] + trace["expired"]
        )
        assert total > 0
    assert arrivals["poisson"]["completed"] >= arrivals["poisson"]["rejected"]

    # Worker sweep: one thread-mode row plus one row per process count,
    # every row fully served (backpressure never fired in closed loop).
    rows = sweep["rows"]
    assert rows[0]["mode"] == "threads"
    assert all(row["mode"] == "processes" for row in rows[1:])
    assert len(rows) >= 3
    for row in rows:
        assert row["failed"] == 0 and row["rejected"] == 0
        assert row["completed"] > 0
    by_procs = {row["processes"]: row for row in rows}
    if machine["usable_cpus"] >= 4 and 4 in by_procs and 1 in by_procs:
        scaling = (
            by_procs[4]["throughput_rps"] / by_procs[1]["throughput_rps"]
        )
        assert scaling >= PROCESS_SCALING_BAR, (
            f"4-process pool scaled only {scaling:.2f}x over 1 process "
            f"on a {machine['usable_cpus']}-cpu host"
        )

    # Nothing the benchmark published survived its servers.
    assert serve_shm.leaked_segments() == []
