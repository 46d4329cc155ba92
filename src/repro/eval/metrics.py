"""Authentication metrics: FRR, FAR, EER, VSR (Eq. 9-11).

Distance convention (see DESIGN.md): lower distance = more alike;
a probe is **accepted** when ``distance <= threshold``.  Therefore

* FRR(t) = P(genuine distance  >  t)   -- legitimate user rejected,
* FAR(t) = P(impostor distance <= t)   -- illegitimate user accepted,
* VSR    = 1 - FRR (Eq. 11),
* EER    = the common value where FAR(t) = FRR(t).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import ShapeError


def _as_distances(values: np.ndarray, name: str) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    if values.size == 0:
        raise ShapeError(f"{name} must contain at least one distance")
    if not np.all(np.isfinite(values)):
        raise ShapeError(f"{name} contains non-finite distances")
    return values


def false_reject_rate(genuine_distances: np.ndarray, threshold: float) -> float:
    """Eq. 9: fraction of genuine comparisons rejected at ``threshold``."""
    genuine = _as_distances(genuine_distances, "genuine_distances")
    return float(np.mean(genuine > threshold))


def false_accept_rate(impostor_distances: np.ndarray, threshold: float) -> float:
    """Eq. 10: fraction of impostor comparisons accepted at ``threshold``."""
    impostor = _as_distances(impostor_distances, "impostor_distances")
    return float(np.mean(impostor <= threshold))


def far_frr_curve(
    genuine_distances: np.ndarray,
    impostor_distances: np.ndarray,
    thresholds: np.ndarray | None = None,
    num_points: int = 512,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """FAR and FRR as functions of the threshold (Fig. 10b).

    Returns:
        ``(thresholds, far, frr)``.
    """
    genuine = _as_distances(genuine_distances, "genuine_distances")
    impostor = _as_distances(impostor_distances, "impostor_distances")
    if thresholds is None:
        lo = min(genuine.min(), impostor.min())
        hi = max(genuine.max(), impostor.max())
        thresholds = np.linspace(lo, hi, num_points)
    else:
        thresholds = np.asarray(thresholds, dtype=np.float64)
    genuine_sorted = np.sort(genuine)
    impostor_sorted = np.sort(impostor)
    # FRR(t) = P(genuine > t); FAR(t) = P(impostor <= t).
    frr = 1.0 - np.searchsorted(genuine_sorted, thresholds, side="right") / genuine.size
    far = np.searchsorted(impostor_sorted, thresholds, side="right") / impostor.size
    return thresholds, far, frr


@dataclasses.dataclass(frozen=True)
class EERResult:
    """EER and the threshold where FAR and FRR cross."""

    eer: float
    threshold: float
    far_at_threshold: float
    frr_at_threshold: float


def equal_error_rate(
    genuine_distances: np.ndarray,
    impostor_distances: np.ndarray,
    num_points: int = 2048,
) -> EERResult:
    """EER by locating the FAR/FRR crossing on a dense threshold grid.

    FAR rises and FRR falls as the threshold grows, so the difference
    ``FAR - FRR`` is monotone non-decreasing; we interpolate the zero
    crossing and report the mean of the two rates there (the standard
    finite-sample EER estimate).
    """
    thresholds, far, frr = far_frr_curve(
        genuine_distances, impostor_distances, num_points=num_points
    )
    diff = far - frr
    # With separated distributions a whole plateau of thresholds attains
    # the minimum |FAR - FRR|; take its midpoint for a robust operating
    # threshold rather than the plateau edge.
    min_abs = np.abs(diff).min()
    plateau = np.flatnonzero(np.abs(diff) <= min_abs + 1e-15)
    idx = int(plateau[len(plateau) // 2])
    # Refine with linear interpolation between the sign change neighbours.
    if 0 < idx < thresholds.size and diff[idx] != 0.0:
        j = idx - 1 if diff[idx] > 0 else idx + 1
        j = int(np.clip(j, 0, thresholds.size - 1))
        d0, d1 = diff[min(idx, j)], diff[max(idx, j)]
        if d0 != d1 and d0 <= 0.0 <= d1:
            t0, t1 = thresholds[min(idx, j)], thresholds[max(idx, j)]
            frac = -d0 / (d1 - d0)
            threshold = float(t0 + frac * (t1 - t0))
        else:
            threshold = float(thresholds[idx])
    else:
        threshold = float(thresholds[idx])
    far_t = false_accept_rate(impostor_distances, threshold)
    frr_t = false_reject_rate(genuine_distances, threshold)
    return EERResult(
        eer=float((far_t + frr_t) / 2.0),
        threshold=threshold,
        far_at_threshold=far_t,
        frr_at_threshold=frr_t,
    )
