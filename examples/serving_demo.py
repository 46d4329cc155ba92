"""Serving demo: concurrent authentication through the micro-batcher.

A deployed verification service receives *single* requests — one 'EMM'
per attempt — yet the inference engine is an order of magnitude more
efficient per request when it runs batches.  The serving layer closes
that gap: concurrent callers submit one recording each, a dynamic
batcher hands whatever queued up while the worker was busy to the
next batch (up to ``max_batch_size``), and every caller gets their own
result back through a future.

The demo walks through:

1. many concurrent clients — watch the batch occupancy climb while
   every decision matches a direct ``verify``;
2. an idle-arrival request — dispatched at once, it pays one service;
3. overload against a tiny admission queue — requests are *rejected*
   or *shed* explicitly instead of queueing without bound;
4. graceful drain — accepted requests complete on shutdown.

Run:  python examples/serving_demo.py    (about half a minute)
"""

from __future__ import annotations

import threading
import time

from repro import AuthServer, MandiPass, Recorder, obs, sample_population
from repro.config import (
    ExtractorConfig,
    InferenceConfig,
    MandiPassConfig,
    SecurityConfig,
    ServingConfig,
)
from repro.core.extractor import TwoBranchExtractor
from repro.errors import AdmissionRejectedError, DeadlineExpiredError


def build_device() -> tuple[MandiPass, list]:
    """A compact (untrained, seeded) device plus a pool of probes.

    Training is beside the point here — the scheduling behaviour is the
    same and the demo stays fast.  Swap in a trained extractor (see
    examples/quickstart.py) for meaningful accept/reject decisions.
    """
    extractor_config = ExtractorConfig(embedding_dim=64, channels=(4, 8, 16))
    config = MandiPassConfig(
        extractor=extractor_config,
        security=SecurityConfig(template_dim=64, projected_dim=64, matrix_seed=1),
        inference=InferenceConfig(compute_dtype="float32"),
        serving=ServingConfig(max_batch_size=32),
    )
    model = TwoBranchExtractor(extractor_config, num_classes=4, seed=0).eval()
    device = MandiPass(model, config=config)
    population = sample_population(4, 1, seed=0)
    recorder = Recorder(seed=1)
    device.enroll(
        "alice", [recorder.record(population[0], trial_index=i) for i in range(4)]
    )
    probes = [
        recorder.record(population[i % len(population)], trial_index=10 + i)
        for i in range(24)
    ]
    return device, probes


def main() -> None:
    device, probes = build_device()
    device.verify("alice", probes[0])  # warm the eval caches

    # ------------------------------------------------------------------
    # 1. Concurrent clients: singles in, micro-batches through.
    # ------------------------------------------------------------------
    print("24 concurrent clients, one request each:")
    direct = device.verify_many("alice", probes)
    with obs.collecting() as registry:
        with AuthServer(device) as server:
            results: list = [None] * len(probes)

            def client(index: int, barrier: threading.Barrier) -> None:
                barrier.wait()
                results[index] = server.verify("alice", probes[index]).result(
                    timeout=30
                )

            barrier = threading.Barrier(len(probes))
            threads = [
                threading.Thread(target=client, args=(i, barrier), daemon=True)
                for i in range(len(probes))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        snapshot = registry.to_dict()
    occupancy = snapshot["histograms"]["serve_batch_occupancy"]
    matches = sum(
        served.accepted == want.accepted
        for served, want in zip(results, direct)
    )
    print(f"  {occupancy['count']:.0f} micro-batches served "
          f"{occupancy['sum']:.0f} requests "
          f"(mean occupancy {occupancy['sum'] / occupancy['count']:.1f})")
    print(f"  decisions matching a direct verify: {matches}/{len(probes)}")

    # ------------------------------------------------------------------
    # 2. Idle arrival: dispatched at once, no coalescing wait.
    # ------------------------------------------------------------------
    with AuthServer(device) as server:
        t0 = time.perf_counter()
        server.verify("alice", probes[0]).result(timeout=30)
        elapsed_ms = (time.perf_counter() - t0) * 1e3
    print(f"\nIdle arrival: {elapsed_ms:.1f} ms end-to-end (one service)")

    # ------------------------------------------------------------------
    # 3. Overload: explicit backpressure on a tiny queue.
    # ------------------------------------------------------------------
    print("\nOverload (120 instant submissions, queue capacity 8, 6 ms deadline):")
    tally = {"ok": 0, "rejected": 0, "expired": 0}
    # Batches of 4: whatever queues behind the in-flight batch outlives
    # its 6 ms deadline and is shed instead of served late.
    overload_config = ServingConfig(max_batch_size=4, queue_capacity=8)
    with AuthServer(device, config=overload_config) as server:
        futures = [
            server.verify("alice", probes[i % len(probes)], timeout_ms=6.0)
            for i in range(120)
        ]
        for future in futures:
            try:
                future.result(timeout=30)
            except AdmissionRejectedError:
                tally["rejected"] += 1
            except DeadlineExpiredError:
                tally["expired"] += 1
            else:
                tally["ok"] += 1
    print(f"  served {tally['ok']}, rejected {tally['rejected']} (queue full), "
          f"shed {tally['expired']} (deadline passed in queue)")

    # ------------------------------------------------------------------
    # 4. Graceful drain: stop() serves what it accepted.
    # ------------------------------------------------------------------
    server = AuthServer(device).start()
    pending = [server.verify("alice", probe) for probe in probes[:6]]
    server.stop()  # drain=True: closes admission, serves the backlog
    done = sum(future.done() for future in pending)
    print(f"\nDrain on shutdown: {done}/{len(pending)} accepted requests "
          "completed before the workers exited")


if __name__ == "__main__":
    main()
