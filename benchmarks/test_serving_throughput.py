"""Serving layer: micro-batched throughput vs the sequential baseline.

Measures what the dynamic micro-batcher buys over a sequential
one-request-at-a-time loop on the same machine, and what an
idle-arrival request pays on top of its own service time.  Workloads:

* **sequential** — one thread, ``system.verify`` per request, no
  batching: what every caller had before the serving layer existed;
* **closed loop** — ``NUM_CLIENTS`` threads, each submitting its next
  single request only after the previous one resolved; the batcher
  turns the concurrent singles into micro-batches;
* **open loop** — requests submitted on an arrival schedule with a
  per-request deadline, regardless of completions: a constant-rate
  overload, a seeded **Poisson** trace (independent callers, whose
  bursts are what build a backlog to batch) and a **diurnal-burst**
  trace alternating quiet and peak phases;
* **worker sweep** — closed-loop throughput against
  ``num_worker_processes`` on a pipeline-bound configuration (small
  batches, so the GIL-free pipeline, not the batcher, is the
  bottleneck), with the machine's CPU count and start method recorded
  next to the numbers.

The substrate is :func:`repro.serve.loadgen.build_bench_system`'s
untrained, seeded compact extractor: decisions are meaningless, but the
compute per request is the real serving path.  The acceptance bars:

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

import json
import os
import sys
import threading
import time
from pathlib import Path

import numpy as np

from repro.config import ServingConfig
from repro.errors import AdmissionRejectedError, DeadlineExpiredError
from repro.obs import runtime as obs
from repro.serve import shm as serve_shm
from repro.serve.loadgen import build_bench_system, machine_info, poisson_arrivals
from repro.serve.server import AuthServer

from conftest import LoadResult, once, run_sequential

QUICK = os.environ.get("SERVE_QUICK", "") == "1"
RESULTS_PATH = Path(__file__).resolve().parents[1] / (
    "BENCH_serving.quick.json" if QUICK else "BENCH_serving.json"
)
SPEEDUP_BAR = 2.0 if QUICK else 5.0
#: Required 4-process-vs-1 scaling when the host actually has the cores.
PROCESS_SCALING_BAR = 2.5

DTYPE = "float32"
MAX_BATCH_SIZE = 64
NUM_CLIENTS = 16 if QUICK else 64
REQUESTS_PER_CLIENT = 4 if QUICK else 8
#: Worker-process counts of the sweep, and its pipeline-bound load.
PROCESS_COUNTS = [1, 2] if QUICK else [1, 2, 4]
SWEEP_BATCH_SIZE = 4
SWEEP_CLIENTS = 8 if QUICK else 16
SWEEP_REQUESTS_PER_CLIENT = 4 if QUICK else 8
#: Queueing allowance (ms) in the overload and arrival-trace request
#: deadlines, on top of their multiples of the single-service time.
DEADLINE_SLACK_MS = 4.0
RESULT_TIMEOUT_S = 120.0


def run_closed_loop(
    server: AuthServer,
    user_id: str,
    probes: list,
    num_clients: int,
    requests_per_client: int,
) -> LoadResult:
    """``num_clients`` synchronous callers driving the server at once."""
    barrier = threading.Barrier(num_clients + 1)
    per_client: list[dict] = [
        {"lat": [], "completed": 0, "rejected": 0, "expired": 0, "failed": 0}
        for _ in range(num_clients)
    ]

    def client(index: int) -> None:
        stats = per_client[index]
        barrier.wait()
        for i in range(requests_per_client):
            probe = probes[(index * requests_per_client + i) % len(probes)]
            t0 = time.perf_counter()
            future = server.verify(user_id, probe)
            try:
                future.result(timeout=RESULT_TIMEOUT_S)
            except AdmissionRejectedError:
                stats["rejected"] += 1
            except DeadlineExpiredError:
                stats["expired"] += 1
            except Exception:
                stats["failed"] += 1
            else:
                stats["completed"] += 1
                stats["lat"].append(time.perf_counter() - t0)

    threads = [
        threading.Thread(target=client, args=(i,), daemon=True)
        for i in range(num_clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    duration = time.perf_counter() - start
    merged = LoadResult(0, 0, 0, 0, duration, [])
    for stats in per_client:
        merged.completed += stats["completed"]
        merged.rejected += stats["rejected"]
        merged.expired += stats["expired"]
        merged.failed += stats["failed"]
        merged.latencies_s.extend(stats["lat"])
    return merged


def diurnal_arrivals(
    num_requests: int,
    base_rps: float,
    peak_rps: float,
    cycles: int = 2,
    seed: int = 0,
) -> np.ndarray:
    """Arrival offsets alternating quiet and burst phases.

    Requests are split evenly across ``2 * cycles`` phases — quiet at
    ``base_rps``, burst at ``peak_rps`` — with exponential
    inter-arrivals inside each phase (a piecewise-stationary Poisson
    process).  This is the day/night shape a wearable authenticator
    sees: long idle stretches punctuated by unlock storms.
    """
    rng = np.random.default_rng(seed)
    phases = max(2 * cycles, 1)
    per_phase = [num_requests // phases] * phases
    for i in range(num_requests - sum(per_phase)):
        per_phase[i] += 1
    gaps: list[np.ndarray] = []
    for index, count in enumerate(per_phase):
        rate = base_rps if index % 2 == 0 else peak_rps
        if count:
            gaps.append(rng.exponential(1.0 / rate, size=count))
    return np.cumsum(np.concatenate(gaps)) if gaps else np.empty(0)


def run_open_loop(
    server: AuthServer,
    user_id: str,
    probes: list,
    num_requests: int,
    offered_rps: float = 0.0,
    timeout_ms: float | None = None,
    arrivals: np.ndarray | None = None,
) -> LoadResult:
    """Submit on an arrival schedule, regardless of completions.

    ``arrivals`` (cumulative offsets in seconds from the run start,
    e.g. from :func:`poisson_arrivals` or :func:`diurnal_arrivals`)
    takes precedence; otherwise requests are paced at a constant
    ``offered_rps``.  ``timeout_ms`` attaches a per-request deadline.
    """
    futures = []
    if arrivals is not None:
        offsets = np.asarray(arrivals, dtype=np.float64)
        num_requests = len(offsets)
    else:
        interval = 1.0 / offered_rps if offered_rps > 0 else 0.0
        offsets = interval * np.arange(num_requests, dtype=np.float64)
    start = time.perf_counter()
    for i in range(num_requests):
        next_at = start + float(offsets[i])
        now = time.perf_counter()
        if now < next_at:
            time.sleep(next_at - now)
        futures.append(
            (
                time.perf_counter(),
                server.verify(
                    user_id, probes[i % len(probes)], timeout_ms=timeout_ms
                ),
            )
        )
    result = LoadResult(0, 0, 0, 0, 0.0, [])
    for submitted_at, future in futures:
        try:
            future.result(timeout=RESULT_TIMEOUT_S)
        except AdmissionRejectedError:
            result.rejected += 1
        except DeadlineExpiredError:
            result.expired += 1
        except Exception:
            result.failed += 1
        else:
            result.completed += 1
            result.latencies_s.append(time.perf_counter() - submitted_at)
    result.duration_s = time.perf_counter() - start
    return result


def _mean_batch_occupancy(snapshot: dict) -> float:
    histogram = snapshot.get("histograms", {}).get("serve_batch_occupancy")
    if not histogram or not histogram["count"]:
        return float("nan")
    return histogram["sum"] / histogram["count"]


def run_worker_sweep() -> dict:
    """Closed-loop throughput vs worker-process count, plus thread row.

    Uses a deliberately *pipeline-bound* configuration — small batches
    — so per-request pipeline compute, not batch amortisation,
    dominates; that is the regime where GIL-free worker processes can
    scale and a GIL-bound thread cannot.  Each row re-runs the same
    closed-loop workload against a fresh server; the ``"threads"`` row
    is the single in-process dispatcher, for reference.
    """
    rows: list[dict] = []
    for processes in [0, *PROCESS_COUNTS]:
        serving = ServingConfig(
            max_batch_size=SWEEP_BATCH_SIZE,
            queue_capacity=max(4 * SWEEP_CLIENTS, 64),
            num_worker_processes=processes,
        )
        system, user_id, probes = build_bench_system(
            dtype=DTYPE, serving=serving
        )
        system.verify_many(user_id, probes[: min(8, len(probes))])
        with AuthServer(system) as server:
            # One throwaway round trip per process so spawn/import cost
            # never lands inside the measured window.
            server.verify(user_id, probes[0]).result(timeout=120)
            result = run_closed_loop(
                server, user_id, probes, SWEEP_CLIENTS, SWEEP_REQUESTS_PER_CLIENT
            )
        rows.append(
            {
                "mode": "threads" if processes == 0 else "processes",
                "processes": processes,
                **result.summary(),
            }
        )
    thread_rps = rows[0]["throughput_rps"]
    for row in rows:
        row["speedup_vs_threads"] = (
            row["throughput_rps"] / thread_rps if thread_rps else float("nan")
        )
    return {
        "config": {
            "max_batch_size": SWEEP_BATCH_SIZE,
            "num_clients": SWEEP_CLIENTS,
            "requests_per_client": SWEEP_REQUESTS_PER_CLIENT,
        },
        "rows": rows,
    }


def serving_benchmark() -> dict:
    """Run the full serving benchmark suite and return the report dict.

    Sections: ``machine`` (the hardware every number depends on),
    ``baseline`` (the single-process suite — sequential, closed loop,
    idle arrivals, constant-rate overload), ``arrivals`` (Poisson and
    diurnal-burst open-loop traces against a 2-process pool), and
    ``worker_sweep`` (closed-loop throughput vs process count on a
    pipeline-bound configuration).
    """
    sequential_requests = 16 if QUICK else 128
    idle_requests = 8 if QUICK else 50
    open_requests = 64 if QUICK else 192
    arrival_requests = 24 if QUICK else 96

    serving = ServingConfig(
        max_batch_size=MAX_BATCH_SIZE,
        queue_capacity=max(4 * NUM_CLIENTS, 64),
    )
    system, user_id, probes = build_bench_system(dtype=DTYPE, serving=serving)

    # Warm the im2col workspaces once per shape.
    system.verify_many(user_id, probes[: min(8, len(probes))])
    system.verify(user_id, probes[0])

    sequential = run_sequential(system, user_id, probes, sequential_requests)
    single_service_ms = sequential.percentile_ms(50)
    # The idle policy compares a p99 against the bound, so "one batch
    # service time" has to be the service-time *tail*, not the median —
    # an idle request that lands on a slow service pays that tail.
    service_tail_ms = sequential.percentile_ms(99)

    with obs.collecting() as registry:
        with AuthServer(system) as server:
            closed = run_closed_loop(
                server, user_id, probes, NUM_CLIENTS, REQUESTS_PER_CLIENT
            )
            # Idle arrivals: one at a time against the otherwise-idle
            # server; each pays one service plus the thread handoffs.
            idle_latencies: list[float] = []
            for i in range(idle_requests):
                t0 = time.perf_counter()
                server.verify(user_id, probes[i % len(probes)]).result(timeout=120)
                idle_latencies.append(time.perf_counter() - t0)
        snapshot = registry.to_dict()
    idle = LoadResult(
        completed=idle_requests,
        rejected=0,
        expired=0,
        failed=0,
        duration_s=sum(idle_latencies),
        latencies_s=idle_latencies,
    )

    # Overload demonstration: offer above the *batched* capacity (the
    # closed-loop throughput, not the sequential one — micro-batching
    # already absorbs several times the sequential rate) with tight
    # deadlines on a small queue; sheds and rejects instead of melting
    # down.
    overload_serving = ServingConfig(
        max_batch_size=MAX_BATCH_SIZE, queue_capacity=8
    )
    overload_rate = max(2.0 * closed.throughput_rps, 50.0)
    with AuthServer(system, config=overload_serving) as server:
        open_loop = run_open_loop(
            server,
            user_id,
            probes,
            num_requests=open_requests,
            offered_rps=overload_rate,
            timeout_ms=2 * DEADLINE_SLACK_MS + 2 * single_service_ms,
        )

    speedup = (
        closed.throughput_rps / sequential.throughput_rps
        if sequential.throughput_rps
        else float("nan")
    )
    # Dispatch is work-conserving, so an idle request pays no queueing
    # wait — only two GIL handoffs the direct call never pays (client ->
    # worker on submit, worker -> client on resolve); each is worth up
    # to one interpreter switch interval, so the bound carries that
    # slack explicitly.
    wakeup_slack_ms = 2.0 * sys.getswitchinterval() * 1e3
    idle_bound_ms = service_tail_ms + wakeup_slack_ms

    # Arrival-process traces against a 2-process pool: a sustainable
    # Poisson rate (bursts build short backlogs but the server keeps
    # up) and a diurnal trace whose peaks overrun capacity (the
    # bursts shed, the quiet phases recover — that is the whole story).
    sustainable_rps = 0.5 * closed.throughput_rps
    arrival_serving = ServingConfig(
        max_batch_size=MAX_BATCH_SIZE,
        queue_capacity=max(4 * NUM_CLIENTS, 64),
        num_worker_processes=2,
    )
    arrival_deadline_ms = 4 * DEADLINE_SLACK_MS + 8 * single_service_ms
    with AuthServer(system, config=arrival_serving) as server:
        server.verify(user_id, probes[0]).result(timeout=120)  # warm spawn
        poisson = run_open_loop(
            server,
            user_id,
            probes,
            num_requests=arrival_requests,
            timeout_ms=arrival_deadline_ms,
            arrivals=poisson_arrivals(arrival_requests, sustainable_rps, seed=11),
        )
        diurnal = run_open_loop(
            server,
            user_id,
            probes,
            num_requests=arrival_requests,
            timeout_ms=arrival_deadline_ms,
            arrivals=diurnal_arrivals(
                arrival_requests,
                base_rps=max(0.125 * closed.throughput_rps, 4.0),
                peak_rps=2.0 * closed.throughput_rps,
                cycles=2,
                seed=13,
            ),
        )

    sweep = run_worker_sweep()

    return {
        "quick": QUICK,
        "machine": machine_info("spawn"),
        "config": {
            "dtype": DTYPE,
            "max_batch_size": MAX_BATCH_SIZE,
            "num_clients": NUM_CLIENTS,
            "requests_per_client": REQUESTS_PER_CLIENT,
        },
        "baseline": {
            "sequential": {
                **sequential.summary(),
                "single_service_ms": single_service_ms,
            },
            "closed_loop": {
                **closed.summary(),
                "mean_batch_occupancy": _mean_batch_occupancy(snapshot),
            },
            "idle": {
                **idle.summary(),
                "bound_ms": idle_bound_ms,
                "within_bound": bool(idle.percentile_ms(99) <= idle_bound_ms),
                "policy": (
                    "p99 <= one batch service time (p99 tail)"
                    " + 2 GIL switch intervals"
                ),
            },
            "open_loop": {
                **open_loop.summary(),
                "offered_rps": overload_rate,
                "queue_capacity": overload_serving.queue_capacity,
            },
            "speedup_vs_sequential": speedup,
        },
        "arrivals": {
            "processes": arrival_serving.num_worker_processes,
            "deadline_ms": arrival_deadline_ms,
            "poisson": {
                **poisson.summary(),
                "offered_rps": sustainable_rps,
            },
            "diurnal": {
                **diurnal.summary(),
                "base_rps": max(0.125 * closed.throughput_rps, 4.0),
                "peak_rps": 2.0 * closed.throughput_rps,
                "cycles": 2,
            },
        },
        "worker_sweep": sweep,
    }


def test_serving_throughput_and_policy(benchmark):
    report = once(benchmark, serving_benchmark)
    RESULTS_PATH.write_text(json.dumps(report, indent=2) + "\n")

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
