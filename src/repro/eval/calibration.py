"""Threshold calibration and operating-point reporting.

The paper fixes the threshold at the EER crossing (0.5485).  Real
deployments usually calibrate to a *target FAR* instead ("no more than
1 in 1000 impostor acceptances") and accept whatever FRR follows.
These helpers compute such operating points from score sets, and
:func:`fused_error_rates` shows what asking for several probes does to
a single-probe operating point.
"""

from __future__ import annotations

import dataclasses
from math import comb

import numpy as np

from repro.errors import ConfigError, ShapeError
from repro.eval.metrics import false_accept_rate, false_reject_rate


@dataclasses.dataclass(frozen=True)
class OperatingPoint:
    """One calibrated decision threshold and its error rates."""

    threshold: float
    far: float
    frr: float

    @property
    def vsr(self) -> float:
        return 1.0 - self.frr


def threshold_for_target_far(
    impostor_distances: np.ndarray, target_far: float
) -> float:
    """Largest threshold whose FAR does not exceed ``target_far``.

    Distance convention: accept iff ``distance <= threshold``, so FAR
    grows with the threshold and the calibrated value is the
    ``target_far``-quantile of the impostor scores (adjusted to the
    at-most semantics on finite samples).
    """
    if not 0.0 <= target_far <= 1.0:
        raise ConfigError("target_far must lie in [0, 1]")
    impostor = np.sort(np.asarray(impostor_distances, dtype=np.float64).reshape(-1))
    if impostor.size == 0:
        raise ShapeError("need impostor distances")
    # Number of impostor acceptances allowed.
    allowed = int(np.floor(target_far * impostor.size))
    if allowed == 0:
        # Threshold strictly below the smallest impostor score.
        return float(np.nextafter(impostor[0], -np.inf))
    return float(impostor[allowed - 1])


def threshold_for_target_frr(
    genuine_distances: np.ndarray, target_frr: float
) -> float:
    """Smallest threshold whose FRR does not exceed ``target_frr``."""
    if not 0.0 <= target_frr <= 1.0:
        raise ConfigError("target_frr must lie in [0, 1]")
    genuine = np.sort(np.asarray(genuine_distances, dtype=np.float64).reshape(-1))
    if genuine.size == 0:
        raise ShapeError("need genuine distances")
    allowed = int(np.floor(target_frr * genuine.size))
    # Reject the `allowed` largest genuine scores at most.
    index = genuine.size - 1 - allowed
    if index < 0:
        return float(np.nextafter(genuine[0], -np.inf))
    return float(genuine[index])


def operating_point_at(
    genuine_distances: np.ndarray,
    impostor_distances: np.ndarray,
    threshold: float,
) -> OperatingPoint:
    """Error rates at an explicit threshold."""
    return OperatingPoint(
        threshold=float(threshold),
        far=false_accept_rate(impostor_distances, threshold),
        frr=false_reject_rate(genuine_distances, threshold),
    )


def calibrate_far(
    genuine_distances: np.ndarray,
    impostor_distances: np.ndarray,
    target_far: float,
) -> OperatingPoint:
    """Operating point calibrated to a FAR budget."""
    threshold = threshold_for_target_far(impostor_distances, target_far)
    return operating_point_at(genuine_distances, impostor_distances, threshold)


def operating_table(
    genuine_distances: np.ndarray,
    impostor_distances: np.ndarray,
    target_fars: tuple[float, ...] = (0.05, 0.01, 0.001),
) -> list[OperatingPoint]:
    """The standard security-tier table: FRR at several FAR budgets."""
    return [
        calibrate_far(genuine_distances, impostor_distances, far)
        for far in target_fars
    ]


def fused_error_rates(
    frr: float, far: float, num_probes: int, rule: str = "majority"
) -> tuple[float, float]:
    """Analytical (independence-assuming) error rates after fusion.

    One 'EMM' costs 0.2 s of signal, so a deployment can cheaply ask for
    two or three probes before unlocking anything valuable.

    Args:
        frr / far: single-probe error rates.
        num_probes: how many probes are fused.
        rule: ``"majority"``, ``"all"`` (AND: every probe must accept) or
            ``"any"`` (OR: one acceptance suffices).

    Returns:
        ``(fused_frr, fused_far)``.
    """
    if not 0.0 <= frr <= 1.0 or not 0.0 <= far <= 1.0:
        raise ConfigError("rates must lie in [0, 1]")
    if num_probes <= 0:
        raise ConfigError("num_probes must be positive")

    if rule == "all":
        # Reject if any probe rejects.
        fused_frr = 1.0 - (1.0 - frr) ** num_probes
        fused_far = far**num_probes
    elif rule == "any":
        fused_frr = frr**num_probes
        fused_far = 1.0 - (1.0 - far) ** num_probes
    elif rule == "majority":
        need = num_probes // 2 + 1

        def at_least(p: float, k: int) -> float:
            return sum(
                comb(num_probes, i) * p**i * (1.0 - p) ** (num_probes - i)
                for i in range(k, num_probes + 1)
            )

        # FRR: genuine accepted with prob (1-frr) per probe; reject when
        # acceptances fall below the majority.
        fused_frr = 1.0 - at_least(1.0 - frr, need)
        fused_far = at_least(far, need)
    else:
        raise ConfigError("rule must be 'majority', 'all' or 'any'")
    return float(fused_frr), float(fused_far)
