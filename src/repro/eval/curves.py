"""Extended evaluation curves and uncertainty estimates.

ROC AUC and a subject-level bootstrap confidence interval -- the standard
companions of an EER number when comparing biometric systems.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import ShapeError
from repro.eval.metrics import equal_error_rate


def roc_auc(
    genuine_distances: np.ndarray,
    impostor_distances: np.ndarray,
) -> float:
    """Area under the ROC: P(genuine distance < impostor distance).

    Computed exactly with the Mann-Whitney statistic (ties count half).
    1.0 = perfect separation, 0.5 = chance.
    """
    genuine = np.asarray(genuine_distances, dtype=np.float64).reshape(-1)
    impostor = np.asarray(impostor_distances, dtype=np.float64).reshape(-1)
    if genuine.size == 0 or impostor.size == 0:
        raise ShapeError("need both genuine and impostor distances")
    combined = np.concatenate([genuine, impostor])
    # Midranks handle ties exactly.
    order = np.argsort(combined, kind="mergesort")
    ranks = np.empty_like(combined)
    sorted_vals = combined[order]
    i = 0
    position = np.arange(1, combined.size + 1, dtype=np.float64)
    while i < combined.size:
        j = i
        while j + 1 < combined.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = position[i : j + 1].mean()
        i = j + 1
    genuine_ranks = ranks[: genuine.size]
    u_stat = genuine_ranks.sum() - genuine.size * (genuine.size + 1) / 2.0
    return 1.0 - float(u_stat / (genuine.size * impostor.size))


@dataclasses.dataclass(frozen=True)
class BootstrapCI:
    """A bootstrap confidence interval."""

    point: float
    lower: float
    upper: float
    confidence: float


def subject_bootstrap_eer_ci(
    embeddings: np.ndarray,
    labels: np.ndarray,
    num_resamples: int = 100,
    confidence: float = 0.95,
    seed: int = 0,
) -> BootstrapCI:
    """Subject-level bootstrap: resample *people*, then recompute pairs.

    The statistically honest interval for all-pairs protocols, since
    scores sharing a subject are dependent.
    """
    from repro.eval.pairs import genuine_impostor_distances

    embeddings = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    people = np.unique(labels)
    if people.size < 3:
        raise ShapeError("need at least three subjects")
    rng = np.random.default_rng(seed)
    genuine, impostor = genuine_impostor_distances(embeddings, labels, None)
    point = equal_error_rate(genuine, impostor).eer

    samples = []
    for _ in range(num_resamples):
        chosen = rng.choice(people, size=people.size, replace=True)
        # Duplicate draws of the same subject keep the same label: their
        # mutual pairs are genuine, not impostor (labelling them by draw
        # position would count a subject against themself).
        parts_e, parts_l = [], []
        for person in chosen:
            mask = labels == person
            parts_e.append(embeddings[mask])
            parts_l.append(np.full(int(mask.sum()), int(person)))
        emb = np.concatenate(parts_e)
        lab = np.concatenate(parts_l)
        try:
            g, i = genuine_impostor_distances(emb, lab, max_impostor_pairs=100_000)
        except ShapeError:
            continue
        samples.append(equal_error_rate(g, i).eer)
    if len(samples) < 10:
        raise ShapeError("too few valid bootstrap resamples")
    alpha = (1.0 - confidence) / 2.0
    return BootstrapCI(
        point=point,
        lower=float(np.quantile(samples, alpha)),
        upper=float(np.quantile(samples, 1.0 - alpha)),
        confidence=confidence,
    )
