"""Evaluation harness: metrics, pair generation, protocols, reporting.

Implements the paper's Section VII machinery: FRR/FAR/EER/VSR (Eq. 9-11),
genuine/impostor pair distances, the embedding-evaluation protocol, and
the similarity-distribution summaries behind Figs. 12-14.
"""

from repro.eval.calibration import (
    OperatingPoint,
    calibrate_far,
    fused_error_rates,
    operating_table,
    threshold_for_target_far,
    threshold_for_target_frr,
)
from repro.eval.curves import (
    bootstrap_eer_ci,
    det_curve,
    roc_auc,
    subject_bootstrap_eer_ci,
)
from repro.eval.metrics import (
    equal_error_rate,
    far_frr_curve,
    false_accept_rate,
    false_reject_rate,
    verification_success_rate,
)
from repro.eval.pairs import genuine_impostor_distances
from repro.eval.protocol import EmbeddingProtocolResult, run_embedding_protocol
from repro.eval.distributions import distance_distribution, vsr_against_templates
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
from repro.eval.scorenorm import TNorm, ZNorm, normalized_pair_distances

__all__ = [
    "DegradationSpec",
    "Scenario",
    "degrade_recording",
    "run_attacks",
    "run_scenario_bench",
    "run_scenario_matrix",
    "scenario_grid",
    "EmbeddingProtocolResult",
    "OperatingPoint",
    "calibrate_far",
    "fused_error_rates",
    "operating_table",
    "threshold_for_target_far",
    "threshold_for_target_frr",
    "TNorm",
    "ZNorm",
    "bootstrap_eer_ci",
    "det_curve",
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
    "run_embedding_protocol",
    "verification_success_rate",
    "vsr_against_templates",
]
