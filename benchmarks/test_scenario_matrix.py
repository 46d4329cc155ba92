"""Adversarial scenario matrix: the IMU pipeline under hostile conditions.

The bench behind the hostile-conditions result (``README.md``, DESIGN.md
§4l), run over the full motion x degradation grid plus the attack
families:

* **coverage** — every motion x degradation cell and both attack
  families must appear in the report;
* **calibration** — the static+clean cell comes first and sets the
  operating threshold every other cell is scored at;
* **accounting** — the refusal (failure-to-acquire) rate is reported
  separately per cell, never folded into the error rates, and every
  cell emits its ``scenario_*`` observability series.

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

from repro.eval.scenarios import run_scenario_bench

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
        f"EER {claims['hostile_eer']:.3f}"
    )
    return data


def test_matrix_covers_grid_and_attacks(report):
    """>= 3 motions x >= 3 degradations x >= 2 attack families."""
    assert report["claims"]["matrix_full"]
    for row in report["matrix"]:
        # Small inverted pools can push the empirical EER past chance
        # level; it is still a rate.
        assert 0.0 <= row["eer"] <= 1.0
        assert 0.0 <= row["refusal_rate"] <= 1.0
    for row in report["attacks"]:
        assert 0.0 <= row["far"] <= 1.0


def test_clean_cell_is_first_and_calibrates(report):
    first = report["matrix"][0]
    assert first["scenario"] == "static+clean"
    assert first["eer_delta_vs_clean"] == 0.0
    assert 0.0 < report["calibration"]["threshold"] < 2.0


def test_metrics_emitted_per_cell(report):
    """Every cell must emit its scenario_* observability series."""
    metrics = report["metrics"]
    assert metrics["scenario_cells_total"] == len(report["matrix"])
    eer_series = [k for k in metrics if k.startswith("scenario_eer")]
    assert len(eer_series) == len(report["matrix"])
