"""Tests for the extra activations and RMSProp."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.nn.activations import GELU, LeakyReLU, Softmax, Tanh
from repro.nn.optim import RMSProp
from repro.nn.gradcheck import check_layer_input_grad
from repro.nn.tensor import Parameter

TOL = 1e-6


class TestActivations:
    def test_tanh_gradient(self, rng):
        assert check_layer_input_grad(Tanh(), rng.normal(size=(3, 7))) < TOL

    def test_leaky_relu_gradient(self, rng):
        x = rng.normal(size=(3, 7)) + 0.05
        assert check_layer_input_grad(LeakyReLU(0.1), x) < TOL

    def test_leaky_relu_negative_slope(self):
        out = LeakyReLU(0.1)(np.array([-2.0, 3.0]))
        np.testing.assert_allclose(out, [-0.2, 3.0])

    def test_gelu_gradient(self, rng):
        assert check_layer_input_grad(GELU(), rng.normal(size=(3, 7))) < 1e-5

    def test_gelu_matches_known_values(self):
        out = GELU()(np.array([0.0, 1.0, -1.0]))
        assert out[0] == pytest.approx(0.0)
        assert out[1] == pytest.approx(0.8412, abs=1e-3)
        assert out[2] == pytest.approx(-0.1588, abs=1e-3)

    def test_softmax_rows_sum_to_one(self, rng):
        out = Softmax()(rng.normal(size=(4, 6)))
        np.testing.assert_allclose(out.sum(axis=1), 1.0)

    def test_softmax_gradient(self, rng):
        assert check_layer_input_grad(Softmax(), rng.normal(size=(3, 5))) < TOL


class TestRMSProp:
    def test_converges_on_quadratic(self):
        param = Parameter(np.array([5.0, -3.0]))
        opt = RMSProp([param], lr=0.05)
        for _ in range(500):
            param.zero_grad()
            param.accumulate(2.0 * param.data)
            opt.step()
        assert np.abs(param.data).max() < 1e-2

    def test_momentum_variant(self):
        param = Parameter(np.array([5.0]))
        opt = RMSProp([param], lr=0.02, momentum=0.9)
        for _ in range(300):
            param.zero_grad()
            param.accumulate(2.0 * param.data)
            opt.step()
        assert abs(float(param.data[0])) < 0.5

    def test_rejects_bad_alpha(self):
        with pytest.raises(ConfigError):
            RMSProp([Parameter(np.zeros(1))], alpha=1.0)
