"""Shared type and validator tests."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.types import (
    AXIS_NAMES,
    VerificationResult,
    ensure_raw_recording,
    ensure_signal_array,
)


class TestAxisConventions:
    def test_axis_order_matches_paper(self):
        assert AXIS_NAMES == ("ax", "ay", "az", "gx", "gy", "gz")


class TestEnsureRawRecording:
    def test_accepts_n_by_6(self):
        out = ensure_raw_recording(np.zeros((10, 6)))
        assert out.shape == (10, 6)
        assert out.dtype == np.float64

    def test_rejects_wrong_width(self):
        with pytest.raises(ShapeError):
            ensure_raw_recording(np.zeros((10, 3)))

    def test_rejects_1d(self):
        with pytest.raises(ShapeError):
            ensure_raw_recording(np.zeros(10))

    def test_casts_integer_input(self):
        out = ensure_raw_recording(np.ones((4, 6), dtype=np.int32))
        assert out.dtype == np.float64


class TestEnsureSignalArray:
    def test_accepts_6_by_n(self):
        assert ensure_signal_array(np.zeros((6, 60))).shape == (6, 60)

    def test_enforces_length_when_given(self):
        with pytest.raises(ShapeError):
            ensure_signal_array(np.zeros((6, 50)), n=60)

    def test_rejects_wrong_axis_count(self):
        with pytest.raises(ShapeError):
            ensure_signal_array(np.zeros((5, 60)))


class TestVerificationResult:
    def test_holds_fields(self):
        res = VerificationResult(
            accepted=True, distance=0.1, threshold=0.45, user_id="alice"
        )
        assert res.accepted and res.user_id == "alice"

    def test_rejects_nan_distance(self):
        with pytest.raises(ValueError):
            VerificationResult(
                accepted=False, distance=float("nan"), threshold=0.45, user_id="x"
            )
