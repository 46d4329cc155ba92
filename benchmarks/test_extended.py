"""Extended experiments beyond the paper's evaluation section.

* DET / AUC / bootstrap confidence interval around the headline EER —
  the companions any modern biometric evaluation would add;
* score normalisation (Z/T/S-norm from speaker verification) on the
  same embeddings;
* enrollment-count sweep: how many 'EMM' recordings does registration
  need before the probe-template VSR saturates?  (The paper enrolls
  from a short fixed registration; this quantifies the design margin.)
"""

import numpy as np

from repro.datasets.splits import enrollment_probe_split
from repro.eval.curves import roc_auc, subject_bootstrap_eer_ci
from repro.eval.distributions import genuine_distances_to_templates
from repro.eval.metrics import equal_error_rate
from repro.eval.reporting import render_series, render_table
from repro.eval.scorenorm import normalized_pair_distances

from conftest import once


def test_extended_det_auc_confidence(benchmark, baseline_eer, user_embeddings):
    eer, genuine, impostor = baseline_eer
    emb, labels = user_embeddings

    def run():
        auc = roc_auc(genuine, impostor)
        ci = subject_bootstrap_eer_ci(emb, labels, num_resamples=40)
        return auc, ci

    auc, ci = once(benchmark, run)

    print()
    print(render_table(
        ["quantity", "value"],
        [
            ["EER", f"{eer.eer:.4f}"],
            ["ROC AUC", f"{auc:.4f}"],
            [f"subject-bootstrap {ci.confidence:.0%} CI",
             f"[{ci.lower:.4f}, {ci.upper:.4f}]"],
        ],
        title="Extended - uncertainty around the headline EER",
    ))

    # Shape: strong separation and an interval that actually contains
    # the point estimate.
    assert auc > 0.97
    assert ci.lower <= eer.eer <= ci.upper + 0.02


def test_extended_score_normalization(
    benchmark, production_model, cache, user_embeddings, baseline_eer
):
    """Z/T/S-norm against a hired-people cohort."""
    from repro.core.mandibleprint import extract_embeddings
    from repro.core.similarity import center_embedding
    from repro.datasets.standard import hired_spec

    emb, labels = user_embeddings
    raw_eer = baseline_eer[0].eer

    def run():
        cohort_ds = cache.get(hired_spec(num_people=40, trials_per_person=5))
        cohort = center_embedding(
            extract_embeddings(production_model, cohort_ds.features)
        )
        out = {}
        for method in ("z-norm", "t-norm", "s-norm"):
            genuine, impostor = normalized_pair_distances(
                emb, labels, cohort, method=method
            )
            out[method] = equal_error_rate(genuine, impostor).eer
        return out

    eers = once(benchmark, run)

    print()
    rows = [["raw cosine", f"{raw_eer:.4f}"]]
    rows += [[method, f"{value:.4f}"] for method, value in eers.items()]
    print(render_table(["scoring", "EER"], rows,
                       title="Extended - cohort score normalisation"))

    # Shape: normalisation must not break verification; the best variant
    # should be at least competitive with raw scoring.
    assert min(eers.values()) < raw_eer + 0.02


def test_extended_operating_points_and_fusion(benchmark, baseline_eer):
    """Deployment-style calibration: FRR at FAR budgets, and what
    asking for three or five probes buys analytically."""
    from repro.eval.calibration import fused_error_rates, operating_table

    eer, genuine, impostor = baseline_eer

    def run():
        table = operating_table(genuine, impostor, (0.05, 0.01, 0.001))
        multi_probe = {
            probes: fused_error_rates(
                eer.frr_at_threshold, eer.far_at_threshold, probes, "majority"
            )
            for probes in (1, 3, 5)
        }
        return table, multi_probe

    table, multi_probe = once(benchmark, run)

    print()
    print(render_table(
        ["FAR budget", "threshold", "FRR", "VSR"],
        [
            [f"{p.far:.4f}", f"{p.threshold:.4f}", f"{p.frr:.4f}", f"{p.vsr:.4f}"]
            for p in table
        ],
        title="Extended - operating points at FAR budgets",
    ))
    print(render_table(
        ["probes (majority vote)", "FRR", "FAR"],
        [[k, f"{v[0]:.5f}", f"{v[1]:.5f}"] for k, v in multi_probe.items()],
        title="Extended - analytical multi-probe majority vote",
    ))

    # Shape: tighter FAR budgets cost FRR monotonically; a majority vote
    # over three probes improves both error rates.
    frrs = [p.frr for p in table]
    assert frrs == sorted(frrs)
    assert multi_probe[3][0] < multi_probe[1][0]
    assert multi_probe[3][1] < multi_probe[1][1]


def test_extended_enrollment_count_sweep(benchmark, user_embeddings, operating_threshold):
    emb, labels = user_embeddings
    counts = [1, 2, 4, 6, 10, 15]

    def run():
        vsrs = []
        for count in counts:
            enroll_mask, probe_mask = enrollment_probe_split(labels, count, seed=1)
            templates = np.stack(
                [
                    emb[enroll_mask & (labels == person)].mean(axis=0)
                    for person in np.unique(labels)
                ]
            )
            distances = genuine_distances_to_templates(
                emb[probe_mask], templates, labels[probe_mask]
            )
            vsrs.append(float(np.mean(distances <= operating_threshold)))
        return vsrs

    vsrs = once(benchmark, run)

    print()
    print(render_series(
        "Extended - VSR vs enrollment recordings per user",
        counts, [round(v, 4) for v in vsrs],
        x_label="enroll", y_label="VSR",
    ))

    # Shape: more enrollment recordings help, with diminishing returns;
    # even a handful gives a high VSR (the paper's RTC <= 1 s story).
    assert vsrs[-1] >= vsrs[0]
    assert vsrs[2] > 0.9
    assert vsrs[-1] - vsrs[2] < 0.08  # saturation
