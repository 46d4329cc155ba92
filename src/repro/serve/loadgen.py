"""Closed/open-loop load generation for the serving layer.

Backs ``python -m repro serve-bench``: measures what the dynamic
micro-batcher actually buys over a sequential one-request-at-a-time
loop on the same machine, and what an idle-arrival request pays on top
of its own service time.  Workloads:

* **sequential** — the baseline: one thread, ``system.verify`` per
  request, no batching.  This is what every caller had before the
  serving layer existed.
* **closed loop** — ``num_clients`` threads, each submitting its next
  single request only after the previous one resolved.  Concurrency is
  bounded by the client count; the batcher turns the concurrent singles
  into micro-batches.
* **open loop** — requests submitted on a fixed arrival schedule with a
  per-request deadline, regardless of completions.  The schedule can
  be a constant rate, a seeded **Poisson** process (exponential
  inter-arrivals — the honest model of independent callers, whose
  bursts are what actually build a backlog to batch), or a
  **diurnal-burst** trace alternating quiet and peak phases (the
  day/night shape the paper's wearable scenario implies).
* **worker sweep** — closed-loop throughput as a function of
  ``num_worker_processes`` on a deliberately pipeline-bound
  configuration (small batches so the GIL-free pipeline, not the
  batcher, is the bottleneck).  The sweep is honest about hardware: it
  records the machine's CPU count and the start method next to the
  numbers, because process scaling on a 1-CPU container *measures the
  dispatch overhead*, not the speedup a multi-core host would see.

The report lands in ``BENCH_serving.json``: a ``machine`` section,
the single-process ``baseline`` suite, the ``arrivals`` section, and
the ``worker_sweep`` table.

The bench substrate is an untrained (deterministically seeded) compact
extractor — decisions are meaningless but the compute per request is
the real serving path, which is all a scheduling benchmark needs.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import sys
import threading
import time
from pathlib import Path

import numpy as np

from repro.config import (
    ExtractorConfig,
    InferenceConfig,
    MandiPassConfig,
    SecurityConfig,
    ServingConfig,
)
from repro.errors import AdmissionRejectedError, DeadlineExpiredError
from repro.obs import runtime as obs
from repro.serve.server import AuthServer

#: Queueing allowance (ms) in the overload and arrival-trace request
#: deadlines, on top of their multiples of the single-service time.
DEADLINE_SLACK_MS = 4.0

@dataclasses.dataclass
class LoadResult:
    """Outcome of one workload run."""

    completed: int
    rejected: int
    expired: int
    failed: int
    duration_s: float
    latencies_s: list[float]

    @property
    def throughput_rps(self) -> float:
        return self.completed / self.duration_s if self.duration_s > 0 else 0.0

    def percentile_ms(self, q: float) -> float:
        if not self.latencies_s:
            return float("nan")
        return float(np.percentile(np.asarray(self.latencies_s), q) * 1e3)

    def summary(self) -> dict:
        return {
            "completed": self.completed,
            "rejected": self.rejected,
            "expired": self.expired,
            "failed": self.failed,
            "duration_s": self.duration_s,
            "throughput_rps": self.throughput_rps,
            "p50_ms": self.percentile_ms(50),
            "p95_ms": self.percentile_ms(95),
            "p99_ms": self.percentile_ms(99),
        }


def build_bench_system(
    dtype: str = "float32",
    serving: ServingConfig | None = None,
    num_probes: int = 32,
    gallery=None,
) -> tuple:
    """(system, user_id, probe pool) for serving benchmarks.

    ``gallery`` (a :class:`~repro.config.GalleryConfig`) lets chaos
    campaigns shrink shards so tombstone compaction actually triggers
    within a short schedule.

    Heavy imports stay inside the function so ``repro.serve`` never
    drags the physiological substrate in at import time.
    """
    from repro.config import GalleryConfig
    from repro.core.extractor import TwoBranchExtractor
    from repro.core.system import MandiPass
    from repro.imu import Recorder
    from repro.physio import sample_population

    extractor_config = ExtractorConfig(embedding_dim=64, channels=(4, 8, 16))
    config = MandiPassConfig(
        extractor=extractor_config,
        security=SecurityConfig(template_dim=64, projected_dim=64, matrix_seed=1),
        inference=InferenceConfig(compute_dtype=dtype),
        serving=serving if serving is not None else ServingConfig(),
        gallery=gallery if gallery is not None else GalleryConfig(),
    )
    model = TwoBranchExtractor(extractor_config, num_classes=4, seed=0).eval()
    system = MandiPass(model, config=config)
    population = sample_population(4, 1, seed=0)
    recorder = Recorder(seed=1)
    system.enroll(
        "bench", [recorder.record(population[0], trial_index=i) for i in range(4)]
    )
    probes = [
        recorder.record(population[i % len(population)], trial_index=10 + i)
        for i in range(num_probes)
    ]
    return system, "bench", probes


def run_sequential(system, user_id: str, probes: list, num_requests: int) -> LoadResult:
    """The pre-serving baseline: one blocking ``verify`` per request."""
    latencies: list[float] = []
    start = time.perf_counter()
    for i in range(num_requests):
        t0 = time.perf_counter()
        system.verify(user_id, probes[i % len(probes)])
        latencies.append(time.perf_counter() - t0)
    duration = time.perf_counter() - start
    return LoadResult(
        completed=num_requests,
        rejected=0,
        expired=0,
        failed=0,
        duration_s=duration,
        latencies_s=latencies,
    )


def run_closed_loop(
    server: AuthServer,
    user_id: str,
    probes: list,
    num_clients: int,
    requests_per_client: int,
    result_timeout_s: float = 120.0,
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
                future.result(timeout=result_timeout_s)
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


def poisson_arrivals(
    num_requests: int, offered_rps: float, seed: int = 0
) -> np.ndarray:
    """Cumulative arrival offsets (s) of a seeded Poisson process.

    Exponential inter-arrivals at rate ``offered_rps`` — the honest
    model of independent callers.  Its bursts (several arrivals inside
    one service time) and gaps are exactly what a constant-rate
    schedule hides from the batcher.
    """
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / offered_rps, size=num_requests)
    return np.cumsum(gaps)


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
    result_timeout_s: float = 120.0,
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
            future.result(timeout=result_timeout_s)
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


def machine_info(start_method: str) -> dict:
    """Hardware/runtime facts every throughput number depends on.

    Process scaling claims are meaningless without the core count they
    were measured on — a worker sweep on a 1-CPU container measures
    dispatch overhead, not parallel speedup, and the report must say
    so rather than imply otherwise.
    """
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        usable = os.cpu_count() or 1
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable,
        "start_method": start_method,
        "python": platform.python_version(),
        "platform": sys.platform,
    }


def run_worker_sweep(
    process_counts: list[int],
    dtype: str = "float32",
    num_clients: int = 8,
    requests_per_client: int = 8,
    max_batch_size: int = 4,
) -> dict:
    """Closed-loop throughput vs worker-process count, plus thread row.

    Uses a deliberately *pipeline-bound* configuration — small batches
    — so per-request pipeline compute, not batch amortisation,
    dominates; that is the regime where GIL-free worker processes can
    scale and a GIL-bound thread cannot.  Each row re-runs the same
    closed-loop workload against a fresh server; the ``"threads"`` row
    is the single in-process dispatcher, for reference.
    """
    rows: list[dict] = []
    for processes in [0, *process_counts]:
        serving = ServingConfig(
            max_batch_size=max_batch_size,
            queue_capacity=max(4 * num_clients, 64),
            num_worker_processes=processes,
        )
        system, user_id, probes = build_bench_system(
            dtype=dtype, serving=serving
        )
        system.verify_many(user_id, probes[: min(8, len(probes))])
        with AuthServer(system) as server:
            # One throwaway round trip per process so spawn/import cost
            # never lands inside the measured window.
            server.verify(user_id, probes[0]).result(timeout=120)
            result = run_closed_loop(
                server, user_id, probes, num_clients, requests_per_client
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
            "max_batch_size": max_batch_size,
            "num_clients": num_clients,
            "requests_per_client": requests_per_client,
        },
        "rows": rows,
    }


def serving_benchmark(
    quick: bool = False,
    dtype: str = "float32",
    max_batch_size: int = 64,
    num_clients: int | None = None,
    requests_per_client: int | None = None,
    process_counts: list[int] | None = None,
    output: str | Path | None = None,
) -> dict:
    """Run the full serving benchmark suite and return the report dict.

    Sections: ``machine`` (the hardware every number depends on),
    ``baseline`` (the single-process suite — sequential, closed loop,
    idle arrivals, constant-rate overload), ``arrivals`` (Poisson and
    diurnal-burst open-loop traces against a 2-process pool), and
    ``worker_sweep`` (closed-loop throughput vs process count on a
    pipeline-bound configuration).
    """
    num_clients = num_clients or (16 if quick else 64)
    requests_per_client = requests_per_client or (4 if quick else 8)
    sequential_requests = 16 if quick else 128
    idle_requests = 8 if quick else 50
    open_requests = 64 if quick else 192
    arrival_requests = 24 if quick else 96
    if process_counts is None:
        process_counts = [1, 2] if quick else [1, 2, 4]

    serving = ServingConfig(
        max_batch_size=max_batch_size,
        queue_capacity=max(4 * num_clients, 64),
    )
    system, user_id, probes = build_bench_system(dtype=dtype, serving=serving)

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
                server, user_id, probes, num_clients, requests_per_client
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
        max_batch_size=max_batch_size, queue_capacity=8
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
        max_batch_size=max_batch_size,
        queue_capacity=max(4 * num_clients, 64),
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

    sweep = run_worker_sweep(
        process_counts,
        dtype=dtype,
        num_clients=8 if quick else 16,
        requests_per_client=4 if quick else 8,
    )

    report = {
        "quick": quick,
        "machine": machine_info("spawn"),
        "config": {
            "dtype": dtype,
            "max_batch_size": max_batch_size,
            "num_clients": num_clients,
            "requests_per_client": requests_per_client,
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
    if output is not None:
        Path(output).write_text(json.dumps(report, indent=2) + "\n")
    return report
