"""Streaming decision throughput: N sessions vs one ``AuthServer``.

The sweep behind the "continuous authentication" claim (``README.md``,
DESIGN.md §4j).  One shared server, N ``StreamSession`` producers each
pushing chunked IMU and collecting ``SessionDecision`` events.  Two
bars asserted:

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

import os
from pathlib import Path

import pytest

from repro.stream.bench import stream_benchmark

QUICK = os.environ.get("STREAM_QUICK", "") == "1"
RESULTS_PATH = Path(__file__).resolve().parents[1] / (
    "BENCH_stream.quick.json" if QUICK else "BENCH_stream.json"
)


@pytest.fixture(scope="module")
def sweep() -> dict:
    if QUICK:
        data = stream_benchmark(
            session_counts=(1, 4), repeats=4, output_path=RESULTS_PATH
        )
    else:
        data = stream_benchmark(output_path=RESULTS_PATH)
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
