"""Model state persistence (npz-based)."""

from __future__ import annotations

import os

import numpy as np

from repro.errors import SerializationError


def save_state_dict(state: dict[str, np.ndarray], path: str | os.PathLike) -> None:
    """Write a flat state dict to an ``.npz`` file."""
    if not state:
        raise SerializationError("refusing to save an empty state dict")
    try:
        np.savez(path, **{k: np.asarray(v) for k, v in state.items()})
    except OSError as exc:
        raise SerializationError(f"cannot write {path}: {exc}") from exc


def load_state_dict(path: str | os.PathLike) -> dict[str, np.ndarray]:
    """Read a state dict written by :func:`save_state_dict`."""
    try:
        with np.load(path) as archive:
            return {key: archive[key].copy() for key in archive.files}
    except OSError as exc:
        raise SerializationError(f"cannot read {path}: {exc}") from exc
