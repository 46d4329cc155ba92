"""Negative paths of the analytical multi-probe error rates: guards.

Complements the brute-force simulation in ``test_fusion_properties.py``
by pinning every rejection branch of
:func:`repro.eval.calibration.fused_error_rates`: rates outside [0, 1],
a non-positive probe count and an unknown rule.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.eval.calibration import fused_error_rates


class TestAnalyticalGuards:
    @pytest.mark.parametrize("frr,far", [(-0.1, 0.1), (0.1, 1.5)])
    def test_rates_out_of_range(self, frr, far):
        with pytest.raises(ConfigError, match="lie in"):
            fused_error_rates(frr, far, 3)

    def test_non_positive_probes(self):
        with pytest.raises(ConfigError, match="positive"):
            fused_error_rates(0.1, 0.1, 0)

    def test_unknown_rule(self):
        with pytest.raises(ConfigError, match="rule"):
            fused_error_rates(0.1, 0.1, 3, rule="median")
