"""Streaming decision throughput: N sessions vs one ``AuthServer``.

The sweep behind the "continuous authentication" claim (``README.md``,
DESIGN.md §4j).  It measures what N long-lived sessions cost per
*decision* against the batch paths on the same probes:

* **sequential** — ``system.verify`` per probe, one at a time: the
  pre-serving baseline, and the "equivalent batch path" the headline
  claim is measured against;
* **megabatch** — one ``verify_many`` over every probe at once: the
  upper bound when all windows are known ahead of time;
* **sweep** — for each session count N, N threads each pump a
  concatenated probe stream chunk by chunk through a server-backed
  ``StreamSession``; their captured windows coalesce in the dynamic
  batcher.  Throughput counts *decisions* (one per probe per session),
  so the streaming legs also pay the onset detection and capture the
  batch legs skip.

Two bars asserted:

* **exactly once** — every leg of the sweep emits precisely one
  decision per detected onset (no losses, no duplicates);
* **streams keep up** — the best sweep point sustains at least 0.95x
  the per-decision throughput of the sequential batch path (the
  dynamic batcher amortises windows across sessions, so concurrency
  should win, not merely break even).

Results land in ``BENCH_stream.json`` at the repo root; quick mode
writes ``BENCH_stream.quick.json`` instead, so a smoke never
overwrites the full-mode file.  Set ``STREAM_QUICK=1`` (CI smoke) to
sweep N=1/4 with fewer repeats; the full run sweeps N=1/2/4/8.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.config import StreamConfig
from repro.serve.loadgen import build_bench_system, machine_info
from repro.serve.server import AuthServer

from conftest import run_sequential

QUICK = os.environ.get("STREAM_QUICK", "") == "1"
RESULTS_PATH = Path(__file__).resolve().parents[1] / (
    "BENCH_stream.quick.json" if QUICK else "BENCH_stream.json"
)
SESSION_COUNTS = (1, 4) if QUICK else (1, 2, 4, 8)
#: Probe recordings each session's feed concatenates.
REPEATS = 4 if QUICK else 10
DTYPE = "float32"
#: 35-sample pushes are 100 ms of feed at 350 Hz.
STREAM_CONFIG = StreamConfig(chunk_size=35, cooldown_samples=105)


def _session_stream(probes: list, offset: int) -> np.ndarray:
    """A continuous feed of ``REPEATS`` probe recordings for one session."""
    return np.concatenate(
        [probes[(offset + j) % len(probes)] for j in range(REPEATS)], axis=0
    )


def _run_streams(
    server: AuthServer, user_id: str, probes: list, num_sessions: int
) -> dict:
    """N concurrent sessions, each fed its stream chunk-by-chunk."""
    chunk = STREAM_CONFIG.chunk_size
    streams = [_session_stream(probes, i) for i in range(num_sessions)]
    decisions: list[list] = [[] for _ in range(num_sessions)]
    latencies: list[float] = []
    barrier = threading.Barrier(num_sessions + 1)

    def pump(i: int) -> None:
        session = server.open_stream(
            user_id, stream_config=STREAM_CONFIG, session_id=f"bench-{i}"
        )
        stream = streams[i]
        barrier.wait()
        pos = 0
        while pos < stream.shape[0]:
            decisions[i].extend(session.push(stream[pos : pos + chunk]))
            pos += chunk
        decisions[i].extend(session.close())

    threads = [
        threading.Thread(target=pump, args=(i,), daemon=True)
        for i in range(num_sessions)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    duration = time.perf_counter() - start
    total = sum(len(ds) for ds in decisions)
    ok = sum(1 for ds in decisions for d in ds if d.status == "ok")
    for ds in decisions:
        latencies.extend(d.latency_s for d in ds)
    lat = np.asarray(latencies) if latencies else np.asarray([float("nan")])
    return {
        "sessions": num_sessions,
        "repeats": REPEATS,
        "expected_decisions": num_sessions * REPEATS,
        "decisions": total,
        "ok": ok,
        "duration_s": duration,
        "throughput_dps": total / duration if duration > 0 else 0.0,
        "decision_latency_p50_ms": float(np.percentile(lat, 50) * 1e3),
        "decision_latency_p95_ms": float(np.percentile(lat, 95) * 1e3),
    }


def stream_benchmark() -> dict:
    """Run the sustained-streams suite and return the report.

    Every leg sees the same probe recordings; the streaming legs simply
    receive them as one continuous chunked feed per session.
    """
    system, user_id, probes = build_bench_system(dtype=DTYPE, num_probes=8)

    # Batch legs: same number of decisions as the largest streaming leg.
    baseline_requests = max(SESSION_COUNTS) * REPEATS
    sequential = run_sequential(system, user_id, probes, baseline_requests)
    batch_probes = [probes[i % len(probes)] for i in range(baseline_requests)]
    t0 = time.perf_counter()
    system.verify_many(user_id, batch_probes)
    mega_duration = time.perf_counter() - t0

    with AuthServer(system) as server:
        sweep = [
            _run_streams(server, user_id, probes, count)
            for count in SESSION_COUNTS
        ]

    best = max(sweep, key=lambda row: row["throughput_dps"])
    report = {
        "machine": machine_info("threads"),
        "config": {
            "session_counts": list(SESSION_COUNTS),
            "repeats": REPEATS,
            "chunk_size": STREAM_CONFIG.chunk_size,
            "cooldown_samples": STREAM_CONFIG.cooldown_samples,
            "dtype": DTYPE,
            "probe_samples": int(probes[0].shape[0]),
        },
        "sequential": sequential.summary(),
        "megabatch": {
            "requests": baseline_requests,
            "duration_s": mega_duration,
            "throughput_rps": (
                baseline_requests / mega_duration if mega_duration > 0 else 0.0
            ),
        },
        "sweep": sweep,
        "claims": {
            "exactly_once": all(
                row["decisions"] == row["expected_decisions"] for row in sweep
            ),
            "best_sessions": best["sessions"],
            "best_throughput_dps": best["throughput_dps"],
            "ratio_vs_sequential": (
                best["throughput_dps"] / sequential.throughput_rps
                if sequential.throughput_rps > 0
                else 0.0
            ),
        },
    }
    report["claims"]["meets_095x_sequential"] = (
        report["claims"]["ratio_vs_sequential"] >= 0.95
    )
    return report


@pytest.fixture(scope="module")
def sweep() -> dict:
    data = stream_benchmark()
    RESULTS_PATH.write_text(json.dumps(data, indent=2) + "\n")
    line = " | ".join(
        f"N={row['sessions']}: {row['throughput_dps']:.0f} dps "
        f"(p95 {row['decision_latency_p95_ms']:.0f} ms)"
        for row in data["sweep"]
    )
    print(
        f"\nstream sweep: {line} | sequential "
        f"{data['sequential']['throughput_rps']:.0f} rps"
    )
    return data


def test_every_leg_is_exactly_once(sweep):
    """No sweep point may lose or duplicate a decision."""
    assert sweep["claims"]["exactly_once"] is True
    for row in sweep["sweep"]:
        assert row["decisions"] == row["expected_decisions"], (
            f"N={row['sessions']}: {row['decisions']} decisions for "
            f"{row['expected_decisions']} detected onsets"
        )
        assert row["ok"] == row["decisions"], (
            f"N={row['sessions']}: {row['decisions'] - row['ok']} "
            "decisions carried errors"
        )


def test_streams_sustain_sequential_throughput(sweep):
    """Best concurrency level must reach >=0.95x the sequential path."""
    ratio = sweep["claims"]["ratio_vs_sequential"]
    assert sweep["claims"]["meets_095x_sequential"], (
        f"best sweep point only reaches {ratio:.2f}x the sequential "
        f"batch path ({sweep['claims']['best_throughput_dps']:.0f} dps "
        f"at N={sweep['claims']['best_sessions']})"
    )


def test_concurrency_amortises_the_batcher(sweep):
    """More sessions must not collapse throughput: the top sweep point
    should beat the single-session one."""
    by_n = {row["sessions"]: row["throughput_dps"] for row in sweep["sweep"]}
    best_multi = max(v for n, v in by_n.items() if n > 1)
    assert best_multi >= by_n[1], (
        f"multi-session throughput {best_multi:.0f} dps fell below the "
        f"single-session {by_n[1]:.0f} dps"
    )
