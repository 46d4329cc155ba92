"""Dataset splitting utilities."""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError


def per_person_split(
    labels: np.ndarray,
    test_fraction: float = 0.2,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Boolean masks ``(train, test)`` stratified within each person.

    Every person contributes the same fraction of trials to the test
    set (the paper's 80/20 classification splits are per-person).
    """
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError("test_fraction must lie in (0, 1)")
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    test_mask = np.zeros(labels.shape[0], dtype=bool)
    for person in np.unique(labels):
        members = np.flatnonzero(labels == person)
        rng.shuffle(members)
        take = max(1, int(round(test_fraction * members.size)))
        test_mask[members[:take]] = True
    return ~test_mask, test_mask


def enrollment_probe_split(
    labels: np.ndarray,
    enroll_count: int,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Masks ``(enroll, probe)``: first ``enroll_count`` trials per person
    enroll, the rest probe.

    Shuffled per person so enrollment is not biased toward early trials.
    """
    if enroll_count <= 0:
        raise ConfigError("enroll_count must be positive")
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    enroll_mask = np.zeros(labels.shape[0], dtype=bool)
    for person in np.unique(labels):
        members = np.flatnonzero(labels == person)
        if members.size <= enroll_count:
            raise ConfigError(
                f"person {person} has only {members.size} trials; need more "
                f"than enroll_count={enroll_count}"
            )
        rng.shuffle(members)
        enroll_mask[members[:enroll_count]] = True
    return enroll_mask, ~enroll_mask
