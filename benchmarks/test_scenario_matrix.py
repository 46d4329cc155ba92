"""Adversarial scenario matrix: fusion must buy back hostile-cell EER.

The bench behind the "cross-modal fusion survives what breaks one
channel" claim (``README.md``, DESIGN.md §4l), run over the full
motion x degradation grid plus the attack families:

* **coverage** — every motion x degradation cell and both attack
  families must appear in the report;
* **hostile-cell recovery** — in the worst cell for the IMU channel
  the fused EER must beat IMU-only by a clear margin;
* **clean-cell safety** — fusion must not cost accuracy where the IMU
  channel is healthy;
* **attack surface** — template replay must be structurally blocked by
  the fused pipeline, and mimicry must never get *easier* under fusion;
* **accounting** — the refusal (failure-to-acquire) rate is reported
  separately per cell, never folded into the error rates.

Results land in ``BENCH_scenarios.json`` at the repo root; quick mode
writes ``BENCH_scenarios.quick.json`` instead, so a smoke never
overwrites the full-mode file.  Set ``SCENARIO_QUICK=1`` (CI smoke) for
the small grid; the full run uses the pools the committed report was
produced with.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.eval.scenarios import MODALITIES, run_scenario_bench

QUICK = os.environ.get("SCENARIO_QUICK", "") == "1"
RESULTS_PATH = Path(__file__).resolve().parents[1] / (
    "BENCH_scenarios.quick.json" if QUICK else "BENCH_scenarios.json"
)


@pytest.fixture(scope="module")
def report() -> dict:
    data = run_scenario_bench(quick=QUICK, output=RESULTS_PATH)
    claims = data["claims"]
    print(
        f"\nscenario matrix: hostile {claims['hostile_cell']} "
        f"imu {claims['hostile_imu_eer']:.3f} -> "
        f"fused {claims['hostile_fused_eer']:.3f}"
    )
    return data


def test_matrix_covers_grid_and_attacks(report):
    """>= 3 motions x >= 3 degradations x >= 2 attack families."""
    assert report["claims"]["matrix_full"]
    for row in report["matrix"]:
        assert set(row["modalities"]) == set(MODALITIES)
        for modality in MODALITIES:
            cell = row["modalities"][modality]
            # Small inverted pools can push the empirical EER past
            # chance level; it is still a rate.
            assert 0.0 <= cell["eer"] <= 1.0
            assert 0.0 <= cell["refusal_rate"] <= 1.0


def test_clean_cell_is_first_and_calibrates(report):
    first = report["matrix"][0]
    assert first["scenario"] == "static+clean"
    assert all(d == 0.0 for d in first["deltas_vs_clean"].values())
    calibration = report["calibration"]
    assert 0.0 < calibration["imu_threshold"] < 2.0
    assert 0.0 < calibration["heartbeat_threshold"] < 2.0
    assert calibration["fusion_weights"]["imu"] > 0.0


def test_fusion_buys_back_hostile_cell(report):
    """The tentpole claim: a cell where IMU-only collapses and the
    heartbeat channel carries the fused decision."""
    assert report["claims"]["fused_beats_imu_in_hostile_cell"], (
        f"hostile {report['claims']['hostile_cell']}: "
        f"imu {report['claims']['hostile_imu_eer']:.3f} vs "
        f"fused {report['claims']['hostile_fused_eer']:.3f}"
    )


def test_fusion_free_in_clean_cell(report):
    assert report["claims"]["fused_no_worse_in_clean"]


def test_replay_structurally_blocked(report):
    assert report["claims"]["replay_blocked_by_fusion"]
    replay = next(r for r in report["attacks"] if r["attack"] == "replay")
    assert replay["far"]["fused"] == 0.0


def test_mimicry_not_easier_under_fusion(report):
    assert report["claims"]["mimicry_no_worse_fused"]


def test_metrics_emitted_per_cell(report):
    """Every cell must emit its scenario_* observability series."""
    metrics = report["metrics"]
    assert metrics["scenario_cells_total"] == len(report["matrix"])
    eer_series = [k for k in metrics if k.startswith("scenario_eer")]
    assert len(eer_series) == len(report["matrix"]) * len(MODALITIES)
