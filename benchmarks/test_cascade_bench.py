"""Early-exit cascade: speedup, decision-quality deltas, accounting.

The sweep behind the "cheap stage 1" claim (``README.md``, DESIGN.md
§4k), on the server-class bench substrate where stage 2 dominates the
per-probe budget:

* **accounting** — the ``cascade_exits_total`` provenance counters
  must cover 100 % of the evaluated probes;
* **decision quality** — the calibrated operating point must not raise
  FAR or FRR over the full pipeline by more than the pinned epsilon;
* **speed** — the cascade must beat the ``full_pipeline=True`` bypass
  by at least 2x per probe at the swept operating point (full mode
  only: the quick smoke keeps probe pools too small for a stable
  timing bar).

Results land in ``BENCH_cascade.json`` at the repo root; quick mode
writes ``BENCH_cascade.quick.json`` instead, so a smoke never
overwrites the full-mode file.  Set ``CASCADE_QUICK=1`` (CI smoke) for
small probe pools; the full run uses the pools the committed report
was produced with.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.cascade.bench import BENCH_EPSILON, run_cascade_bench

QUICK = os.environ.get("CASCADE_QUICK", "") == "1"
RESULTS_PATH = Path(__file__).resolve().parents[1] / (
    "BENCH_cascade.quick.json" if QUICK else "BENCH_cascade.json"
)


@pytest.fixture(scope="module")
def report() -> dict:
    data = run_cascade_bench(quick=QUICK, output=RESULTS_PATH)
    mode = data["modes"]["features"]
    print(
        f"\ncascade sweep: {mode['timing']['speedup']:.2f}x, "
        f"exit {mode['calibration']['exit_fraction']:.2f}, "
        f"dFAR {mode['eval']['far_delta']:.3f}, "
        f"dFRR {mode['eval']['frr_delta']:.3f}"
    )
    return data


def test_exit_provenance_covers_every_probe(report):
    """Every evaluated probe must land in exactly one exit counter."""
    mode = report["modes"]["features"]
    exits = mode["eval"]["exits"]
    assert mode["eval"]["exits_accounted"], (
        f"exit counters {exits} do not sum to "
        f"{report['substrate']['eval_probes']} probes"
    )


def test_calibrated_band_meets_epsilon(report):
    """FAR/FRR must not degrade past the pinned one-sided epsilon."""
    mode = report["modes"]["features"]
    assert mode["calibration"]["feasible"], "no feasible band"
    assert mode["eval"]["far_delta"] <= BENCH_EPSILON
    assert mode["eval"]["frr_delta"] <= BENCH_EPSILON


def test_stage1_actually_exits_probes(report):
    """A cascade that routes everything to stage 2 saves nothing."""
    operating = report["modes"]["features"]
    exits = operating["eval"]["exits"]
    stage1_exits = exits.get("stage1_accept", 0) + exits.get(
        "stage1_reject", 0
    )
    assert stage1_exits > 0
    assert operating["calibration"]["exit_fraction"] >= 0.5


@pytest.mark.skipif(
    QUICK, reason="timing bar needs the full probe pools to be stable"
)
def test_speedup_at_least_2x(report):
    """The headline claim: >= 2x per-probe at the operating point."""
    timing = report["modes"]["features"]["timing"]
    assert timing["speedup"] >= 2.0, (
        f"cascade {timing['cascade_ms_per_probe']:.3f} ms/probe vs full "
        f"{timing['full_ms_per_probe']:.3f} ms/probe"
    )
