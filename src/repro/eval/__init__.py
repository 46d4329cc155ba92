"""Evaluation harness: metrics, pair distances, calibration, reporting.

Implements the paper's Section VII machinery: FRR/FAR/EER (Eq. 9-11),
genuine/impostor pair distances, threshold calibration, the scenario
matrix, and the similarity-distribution summaries behind Figs. 12-14.
The Fig. 10(b) EER is computed by its bench (``baseline_eer`` in
``benchmarks/conftest.py``).
"""

from repro.eval.calibration import (
    OperatingPoint,
    calibrate_far,
    fused_error_rates,
    operating_table,
    threshold_for_target_far,
)
from repro.eval.curves import roc_auc, subject_bootstrap_eer_ci
from repro.eval.metrics import (
    equal_error_rate,
    far_frr_curve,
    false_accept_rate,
    false_reject_rate,
)
from repro.eval.pairs import genuine_impostor_distances
from repro.eval.distributions import distance_distribution
from repro.eval.reporting import render_series, render_table
from repro.eval.scenarios import (
    DegradationSpec,
    Scenario,
    degrade_recording,
    run_attacks,
    run_scenario_bench,
    run_scenario_matrix,
    scenario_grid,
)
from repro.eval.scorenorm import normalized_pair_distances

__all__ = [
    "DegradationSpec",
    "Scenario",
    "degrade_recording",
    "run_attacks",
    "run_scenario_bench",
    "run_scenario_matrix",
    "scenario_grid",
    "OperatingPoint",
    "calibrate_far",
    "fused_error_rates",
    "operating_table",
    "threshold_for_target_far",
    "normalized_pair_distances",
    "roc_auc",
    "subject_bootstrap_eer_ci",
    "distance_distribution",
    "equal_error_rate",
    "far_frr_curve",
    "false_accept_rate",
    "false_reject_rate",
    "genuine_impostor_distances",
    "render_series",
    "render_table",
]
