"""Optimiser: Adam.

The paper trains the biometric extractor with Adam (Section V-C).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.nn.tensor import Parameter


class Optimizer:
    """Base class holding the parameter list."""

    def __init__(self, parameters: list[Parameter]) -> None:
        if not parameters:
            raise ConfigError("optimizer needs at least one parameter")
        self.parameters = list(parameters)

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class Adam(Optimizer):
    """Adam (Kingma & Ba) with bias correction."""

    def __init__(
        self,
        parameters: list[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters)
        if lr <= 0:
            raise ConfigError("lr must be positive")
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ConfigError("betas must lie in [0, 1)")
        if eps <= 0:
            raise ConfigError("eps must be positive")
        if weight_decay < 0:
            raise ConfigError("weight_decay must be non-negative")
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        beta1, beta2 = self.betas
        self._step_count += 1
        t = self._step_count
        bias1 = 1.0 - beta1**t
        bias2 = 1.0 - beta2**t
        for param, m, v in zip(self.parameters, self._m, self._v):
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m *= beta1
            m += (1.0 - beta1) * grad
            v *= beta2
            v += (1.0 - beta2) * grad**2
            m_hat = m / bias1
            v_hat = v / bias2
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
