"""Property-based hardening of the analytical multi-probe error rates.

:func:`repro.eval.calibration.fused_error_rates` assumes independent
probes; here it is checked against a brute-force Bernoulli simulation,
and (hypothesis) its outputs stay probabilities and its AND / OR rules
are duals.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.eval.calibration import fused_error_rates


class TestAnalyticalVsEmpirical:
    """``fused_error_rates`` against brute-force Bernoulli simulation."""

    @pytest.mark.parametrize("rule", ["all", "any", "majority"])
    @pytest.mark.parametrize("num_probes", [1, 2, 3, 5])
    def test_matches_simulation(self, rule, num_probes):
        frr, far = 0.12, 0.07
        rng = np.random.default_rng(20260808)
        trials = 40_000
        genuine_rejects = (
            rng.random((trials, num_probes)) < frr
        )  # True = probe rejects a genuine user
        impostor_accepts = rng.random((trials, num_probes)) < far
        genuine_accepts = ~genuine_rejects
        if rule == "all":
            fused_acc_genuine = genuine_accepts.all(axis=1)
            fused_acc_impostor = impostor_accepts.all(axis=1)
        elif rule == "any":
            fused_acc_genuine = genuine_accepts.any(axis=1)
            fused_acc_impostor = impostor_accepts.any(axis=1)
        else:
            fused_acc_genuine = genuine_accepts.sum(axis=1) * 2 > num_probes
            fused_acc_impostor = impostor_accepts.sum(axis=1) * 2 > num_probes
        expected_frr, expected_far = fused_error_rates(
            frr, far, num_probes, rule=rule
        )
        assert float((~fused_acc_genuine).mean()) == pytest.approx(
            expected_frr, abs=0.01
        )
        assert float(fused_acc_impostor.mean()) == pytest.approx(
            expected_far, abs=0.01
        )

    @given(
        st.floats(0.0, 1.0, allow_nan=False),
        st.floats(0.0, 1.0, allow_nan=False),
        st.integers(1, 9),
        st.sampled_from(["all", "any", "majority"]),
    )
    def test_rates_stay_probabilities(self, frr, far, n, rule):
        fused_frr, fused_far = fused_error_rates(frr, far, n, rule=rule)
        assert 0.0 <= fused_frr <= 1.0
        assert 0.0 <= fused_far <= 1.0

    @given(st.floats(0.01, 0.49), st.floats(0.01, 0.49), st.integers(1, 4))
    def test_all_and_any_are_duals(self, frr, far, n):
        """Swapping the rule swaps the roles of the two error rates."""
        frr_all, far_all = fused_error_rates(frr, far, n, rule="all")
        frr_any, far_any = fused_error_rates(far, frr, n, rule="any")
        assert frr_all == pytest.approx(far_any, abs=1e-12)
        assert far_all == pytest.approx(frr_any, abs=1e-12)
