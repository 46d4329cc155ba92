"""Parametrized numerical gradient checks across layer configurations.

The single most valuable property of a from-scratch backprop framework
is that every (shape, stride, padding) combination backpropagates
exactly; this grid pins the combinations the extractor and its
ablations actually use, plus asymmetric edge cases.
"""

import numpy as np
import pytest

from repro.nn import BatchNorm2d, Conv2d, Linear, Sequential
from tests.gradcheck import (
    check_layer_input_grad,
    check_layer_param_grads,
    numerical_gradient,
)

TOL = 1e-6


@pytest.mark.parametrize("kernel", [(1, 1), (3, 3), (3, 5), (5, 3)])
@pytest.mark.parametrize("stride", [(1, 1), (1, 2), (2, 2)])
def test_conv_grid_input_grad(kernel, stride, rng):
    pad = (kernel[0] // 2, kernel[1] // 2)
    conv = Conv2d(2, 3, kernel, stride, pad, rng=rng)
    x = rng.normal(size=(2, 2, 6, 12))
    assert check_layer_input_grad(conv, x) < TOL


@pytest.mark.parametrize("kernel", [(3, 3), (3, 5)])
@pytest.mark.parametrize("stride", [(1, 2), (2, 2)])
def test_conv_grid_param_grads(kernel, stride, rng):
    pad = (kernel[0] // 2, kernel[1] // 2)
    conv = Conv2d(1, 2, kernel, stride, pad, rng=rng)
    x = rng.normal(size=(2, 1, 6, 12))
    assert max(check_layer_param_grads(conv, x).values()) < TOL


@pytest.mark.parametrize("padding", [(0, 0), (0, 1), (2, 0)])
def test_conv_asymmetric_padding(padding, rng):
    conv = Conv2d(1, 2, (3, 3), (1, 1), padding, rng=rng)
    x = rng.normal(size=(1, 1, 7, 9))
    assert check_layer_input_grad(conv, x) < TOL


@pytest.mark.parametrize("channels", [1, 4])
@pytest.mark.parametrize("batch", [1, 5])
def test_batchnorm_grid(channels, batch, rng):
    bn = BatchNorm2d(channels)
    x = rng.normal(size=(batch, channels, 3, 4)) * 2.0 + 1.0
    assert check_layer_input_grad(bn, x) < 1e-5


@pytest.mark.parametrize("in_features,out_features", [(1, 1), (7, 3), (16, 16)])
def test_linear_grid(in_features, out_features, rng):
    lin = Linear(in_features, out_features, rng=rng)
    x = rng.normal(size=(3, in_features))
    assert check_layer_input_grad(lin, x) < TOL
    assert max(check_layer_param_grads(lin, x).values()) < TOL


def test_numerical_gradient_of_quadratic(rng):
    """The checker itself is validated against a known analytic gradient."""
    a = rng.normal(size=(4, 4))
    sym = a + a.T

    def quad(x):
        return float(x @ sym @ x)

    x0 = rng.normal(size=4)
    numeric = numerical_gradient(quad, x0.copy())
    np.testing.assert_allclose(numeric, 2.0 * sym @ x0, atol=1e-5)


def test_deep_stack_end_to_end(rng):
    """Three stacked convs + bn (the extractor's branch depth)."""
    from repro.nn import Flatten, ReLU

    net = Sequential(
        Conv2d(1, 2, (3, 3), (1, 2), (1, 1), rng=rng),
        BatchNorm2d(2),
        ReLU(),
        Conv2d(2, 3, (3, 3), (1, 2), (1, 1), rng=rng),
        BatchNorm2d(3),
        ReLU(),
        Conv2d(3, 4, (3, 3), (1, 2), (1, 1), rng=rng),
        BatchNorm2d(4),
        ReLU(),
        Flatten(),
        Linear(4 * 6 * 4, 5, rng=rng),
    )
    x = rng.normal(size=(2, 1, 6, 31))
    assert check_layer_input_grad(net, x) < 1e-4
