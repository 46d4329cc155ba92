"""Numerical gradient checking.

Central-difference verification of analytic backward passes, used by
the nn tests on every layer.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.nn.layers import Module


def numerical_gradient(
    func: Callable[[np.ndarray], float],
    x: np.ndarray,
    eps: float = 1e-6,
) -> np.ndarray:
    """Central-difference gradient of a scalar function at ``x``."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = func(x)
        flat[i] = orig - eps
        f_minus = func(x)
        flat[i] = orig
        grad_flat[i] = (f_plus - f_minus) / (2.0 * eps)
    return grad


def check_layer_input_grad(
    layer: Module,
    x: np.ndarray,
    eps: float = 1e-6,
) -> float:
    """Max abs error between analytic and numerical input gradients.

    Uses ``loss = sum(forward(x) * seed)`` with a fixed random seed
    tensor, so every output element contributes a distinct weight.
    """
    rng = np.random.default_rng(1234)
    out = layer.forward(np.array(x, copy=True))
    seed = rng.normal(size=out.shape)

    analytic = layer.backward(seed)

    def loss(inp: np.ndarray) -> float:
        return float(np.sum(layer.forward(inp) * seed))

    numeric = numerical_gradient(loss, np.array(x, copy=True), eps)
    return float(np.max(np.abs(analytic - numeric)))


def check_layer_param_grads(
    layer: Module,
    x: np.ndarray,
    eps: float = 1e-6,
) -> dict[str, float]:
    """Max abs error per parameter between analytic and numerical grads."""
    rng = np.random.default_rng(1234)
    out = layer.forward(np.array(x, copy=True))
    seed = rng.normal(size=out.shape)
    layer.zero_grad()
    layer.backward(seed)
    analytic = {id(p): p.grad.copy() for p in layer.parameters()}

    errors: dict[str, float] = {}
    for idx, param in enumerate(layer.parameters()):
        def loss(values: np.ndarray, _param=param) -> float:
            _param.data = values
            return float(np.sum(layer.forward(np.array(x, copy=True)) * seed))

        numeric = numerical_gradient(loss, param.data.copy(), eps)
        name = param.name or f"param{idx}"
        errors[f"{name}#{idx}"] = float(
            np.max(np.abs(analytic[id(param)] - numeric))
        )
    return errors
