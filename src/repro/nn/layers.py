"""Layered modules with explicit forward/backward.

The module protocol is deliberately small: ``forward`` caches whatever
backward needs, ``backward`` consumes the upstream gradient and both
accumulates parameter gradients and returns the input gradient.  Layers
are stateful between a forward and its matching backward, exactly like
a define-by-run framework in training mode.

In eval mode, forward skips the activation caching entirely — the
inference engine runs eval-mode forwards only, and retaining im2col
buffers and masks for a backward that never comes costs both time and
memory.  A ``backward`` after an eval-mode forward therefore raises
:class:`repro.errors.ModelError`, the same as a backward with no
forward at all.

Eval mode additionally follows the *input dtype* (the inference
compute-dtype policy, DESIGN.md §4d): a float32 batch runs the whole
forward in float32 against per-dtype cached casts of the float64 master
parameters, and BatchNorm folds its running statistics into one cached
scale/shift so the eval forward is a single multiply-add per layer.
Those derived caches are invalidated whenever parameters may have
changed: on the train→eval transition (optimisers step in train mode)
and on ``load_state``.

Eval-mode forwards are safe to run concurrently (the serving layer's
worker threads share one extractor): the only state an eval forward
touches is the per-module eval cache, whose first-touch population is
guarded by a per-module lock — two workers racing the same (key, dtype)
entry can neither double-build it nor observe a half-built value.
Training-mode forwards remain single-threaded by contract (they mutate
activation caches and BatchNorm running statistics).
"""

from __future__ import annotations

import threading

import numpy as np

from repro.errors import ModelError, ShapeError
from repro.nn import functional as F
from repro.nn.tensor import Parameter, kaiming_uniform
from repro.obs import runtime as obs


class Module:
    """Base class: parameter traversal, train/eval mode, state dicts."""

    def __init__(self) -> None:
        self.training = True
        self._eval_cache: dict = {}
        self._eval_cache_lock = threading.Lock()

    def _eval_cached(self, key: str, dtype: np.dtype, builder):
        """Memoise ``builder()`` per (key, dtype) for eval-mode forwards.

        Double-checked under a per-module lock: concurrent eval
        forwards (serving workers) hit the fast path with no lock once
        the entry exists, and a first-touch race builds exactly once —
        never twice, and never exposes a half-built entry (the dict
        publication happens after ``builder()`` returns).
        """
        cache_key = (key, np.dtype(dtype))
        entry = self._eval_cache.get(cache_key)
        if entry is not None:
            obs.inc("eval_cache_total", result="hit")
            return entry
        with self._eval_cache_lock:
            entry = self._eval_cache.get(cache_key)
            if entry is None:
                entry = builder()
                self._eval_cache[cache_key] = entry
                obs.inc("eval_cache_total", result="miss")
            else:
                obs.inc("eval_cache_total", result="hit")
        return entry

    # -- traversal ------------------------------------------------------

    def children(self) -> list["Module"]:
        found = []
        for value in self.__dict__.values():
            if isinstance(value, Module):
                found.append(value)
            elif isinstance(value, (list, tuple)):
                found.extend(v for v in value if isinstance(v, Module))
        return found

    def parameters(self) -> list[Parameter]:
        params = [v for v in self.__dict__.values() if isinstance(v, Parameter)]
        for child in self.children():
            params.extend(child.parameters())
        return params

    def named_buffers(self, prefix: str = "") -> dict[str, np.ndarray]:
        """Non-trainable arrays to serialize (override to add buffers)."""
        out: dict[str, np.ndarray] = {}
        for name, value in self.__dict__.items():
            if isinstance(value, np.ndarray) and name.startswith("running_"):
                out[f"{prefix}{name}"] = value
        for idx, child in enumerate(self.children()):
            out.update(child.named_buffers(prefix=f"{prefix}{idx}."))
        return out

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def train(self) -> "Module":
        self.training = True
        for child in self.children():
            child.train()
        return self

    def eval(self) -> "Module":
        # Entering eval after training: parameters (and BatchNorm
        # running statistics) may have moved, so derived eval caches
        # rebuild lazily.  Re-calling eval() on an eval module keeps
        # the caches warm — nothing can have stepped the parameters.
        if self.training:
            self._eval_cache = {}
        self.training = False
        for child in self.children():
            child.eval()
        return self

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # -- compute --------------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    # -- state ----------------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        """Flat mapping of parameter/buffer arrays, index-addressed."""
        state: dict[str, np.ndarray] = {}
        self._collect_state(state, prefix="")
        return state

    def _collect_state(self, state: dict[str, np.ndarray], prefix: str) -> None:
        for name, value in self.__dict__.items():
            if isinstance(value, Parameter):
                state[f"{prefix}{name}"] = value.data
            elif isinstance(value, np.ndarray) and name.startswith("running_"):
                state[f"{prefix}{name}"] = value
        for idx, child in enumerate(self.children()):
            child._collect_state(state, prefix=f"{prefix}c{idx}.")

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Restore arrays saved by :meth:`state_dict` (strict shapes)."""
        self._restore_state(state, prefix="")

    def adopt_state(self, state: dict[str, np.ndarray]) -> None:
        """Reference arrays saved by :meth:`state_dict` without copying.

        The zero-copy sibling of :meth:`load_state`, for serving worker
        processes that map model parameters out of a shared-memory
        segment (:mod:`repro.serve.shm`): the adopted (typically
        read-only) arrays become the parameter/buffer storage directly,
        so N workers share one physical copy.  Eval-mode use only — a
        training step would write through the mapping.  Arrays must
        already be float64 (what :meth:`state_dict` emits), so the
        referenced bytes are bitwise what the source model holds and
        per-dtype eval caches derive identically.
        """
        self._adopt_state(state, prefix="")

    def _adopt_state(self, state: dict[str, np.ndarray], prefix: str) -> None:
        self._eval_cache = {}
        for name, value in self.__dict__.items():
            key = f"{prefix}{name}"
            if isinstance(value, Parameter):
                if key not in state:
                    raise ModelError(f"missing parameter {key!r} in state dict")
                saved = state[key]
                if saved.shape != value.data.shape:
                    raise ModelError(
                        f"shape mismatch for {key!r}: saved {saved.shape}, "
                        f"expected {value.data.shape}"
                    )
                if saved.dtype != np.float64:
                    raise ModelError(
                        f"adopt_state requires float64 arrays, got "
                        f"{saved.dtype} for {key!r}"
                    )
                value.data = saved
            elif isinstance(value, np.ndarray) and name.startswith("running_"):
                if key not in state:
                    raise ModelError(f"missing buffer {key!r} in state dict")
                saved = state[key]
                if saved.shape != value.shape:
                    raise ModelError(f"shape mismatch for buffer {key!r}")
                if saved.dtype != np.float64:
                    raise ModelError(
                        f"adopt_state requires float64 arrays, got "
                        f"{saved.dtype} for buffer {key!r}"
                    )
                setattr(self, name, saved)
        for idx, child in enumerate(self.children()):
            child._adopt_state(state, prefix=f"{prefix}c{idx}.")

    def _restore_state(self, state: dict[str, np.ndarray], prefix: str) -> None:
        self._eval_cache = {}
        for name, value in self.__dict__.items():
            key = f"{prefix}{name}"
            if isinstance(value, Parameter):
                if key not in state:
                    raise ModelError(f"missing parameter {key!r} in state dict")
                saved = np.asarray(state[key])
                if saved.shape != value.data.shape:
                    raise ModelError(
                        f"shape mismatch for {key!r}: saved {saved.shape}, "
                        f"expected {value.data.shape}"
                    )
                value.data = saved.astype(np.float64).copy()
            elif isinstance(value, np.ndarray) and name.startswith("running_"):
                if key not in state:
                    raise ModelError(f"missing buffer {key!r} in state dict")
                saved = np.asarray(state[key])
                if saved.shape != value.shape:
                    raise ModelError(f"shape mismatch for buffer {key!r}")
                setattr(self, name, saved.astype(np.float64).copy())
        for idx, child in enumerate(self.children()):
            child._restore_state(state, prefix=f"{prefix}c{idx}.")


class Conv2d(Module):
    """2-D convolution via im2col.

    Args:
        in_channels / out_channels: channel counts.
        kernel_size: ``(kh, kw)``; the paper uses 3x3.
        stride: ``(sh, sw)``; the paper uses 1x2.
        padding: ``(ph, pw)`` symmetric zero padding.
        rng: initialiser randomness (Kaiming uniform).
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: tuple[int, int] = (3, 3),
        stride: tuple[int, int] = (1, 1),
        padding: tuple[int, int] = (1, 1),
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        kh, kw = kernel_size
        fan_in = in_channels * kh * kw
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(
            kaiming_uniform((out_channels, in_channels, kh, kw), fan_in, rng),
            name="conv.weight",
        )
        self.bias = Parameter(
            kaiming_uniform((out_channels,), fan_in, rng), name="conv.bias"
        )
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ShapeError(
                f"Conv2d expected (B, {self.in_channels}, H, W), got {x.shape}"
            )
        out_h = F.conv_output_size(
            x.shape[2], self.kernel_size[0], self.stride[0], self.padding[0]
        )
        out_w = F.conv_output_size(
            x.shape[3], self.kernel_size[1], self.stride[1], self.padding[1]
        )
        if not self.training:
            # The workspace pool, whose buffers the next same-shape
            # forward overwrites, is inference-only; so are the weight
            # matrix and bias column in the input's dtype, built once.
            w_mat, bias = self._eval_cached("w", x.dtype, lambda: (
                self.weight.data.reshape(self.out_channels, -1).astype(x.dtype),
                self.bias.data.astype(x.dtype)[:, None],
            ))
            cols = F.im2col(x, self.kernel_size, self.stride, self.padding, reuse=True)
            out = w_mat @ cols + bias
            self._cache = None
            return out.reshape(x.shape[0], self.out_channels, out_h, out_w)
        # Training must own its columns: backward re-reads them.
        cols = F.im2col(x, self.kernel_size, self.stride, self.padding)
        w_mat = self.weight.data.reshape(self.out_channels, -1)
        # (F, K) @ (B, K, L) broadcasts to a BLAS gemm per batch item.
        out = w_mat @ cols + self.bias.data[None, :, None]
        self._cache = (x.shape, cols)
        return out.reshape(x.shape[0], self.out_channels, out_h, out_w)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ModelError("backward called before forward")
        input_shape, cols = self._cache
        batch = grad.shape[0]
        grad_mat = grad.reshape(batch, self.out_channels, -1)

        w_mat = self.weight.data.reshape(self.out_channels, -1)
        grad_w = np.einsum("bfl,bkl->fk", grad_mat, cols)
        self.weight.accumulate(grad_w.reshape(self.weight.data.shape))
        self.bias.accumulate(grad_mat.sum(axis=(0, 2)))

        grad_cols = np.einsum("fk,bfl->bkl", w_mat, grad_mat)
        grad_x = F.col2im(
            grad_cols, input_shape, self.kernel_size, self.stride, self.padding
        )
        self._cache = None
        return grad_x


class BatchNorm2d(Module):
    """Per-channel batch normalisation with running statistics."""

    def __init__(self, num_channels: int, momentum: float = 0.1, eps: float = 1e-5):
        super().__init__()
        self.num_channels = num_channels
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(np.ones(num_channels), name="bn.gamma")
        self.beta = Parameter(np.zeros(num_channels), name="bn.beta")
        self.running_mean = np.zeros(num_channels)
        self.running_var = np.ones(num_channels)
        self._cache: tuple | None = None

    def _eval_affine(self, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
        """Running stats + gamma/beta folded to one ``x * scale + shift``.

        Folded in float64, cast to the compute dtype, cached per dtype;
        invalidated by the Module eval-cache rules (train→eval
        transition, load_state).
        """

        def build() -> tuple[np.ndarray, np.ndarray]:
            std = np.sqrt(self.running_var + self.eps)
            scale = self.gamma.data / std
            shift = self.beta.data - self.running_mean * scale
            return (
                scale.astype(dtype)[None, :, None, None],
                shift.astype(dtype)[None, :, None, None],
            )

        return self._eval_cached("affine", dtype, build)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.num_channels:
            raise ShapeError(
                f"BatchNorm2d expected (B, {self.num_channels}, H, W), got {x.shape}"
            )
        if not self.training:
            scale, shift = self._eval_affine(x.dtype)
            self._cache = None
            return x * scale + shift
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        self.running_mean = (
            (1 - self.momentum) * self.running_mean + self.momentum * mean
        )
        self.running_var = (
            (1 - self.momentum) * self.running_var + self.momentum * var
        )
        std = np.sqrt(var + self.eps)
        x_hat = (x - mean[None, :, None, None]) / std[None, :, None, None]
        out = (
            self.gamma.data[None, :, None, None] * x_hat
            + self.beta.data[None, :, None, None]
        )
        self._cache = (x_hat, std)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ModelError("backward called before forward")
        x_hat, std = self._cache
        self.gamma.accumulate((grad * x_hat).sum(axis=(0, 2, 3)))
        self.beta.accumulate(grad.sum(axis=(0, 2, 3)))
        if not self.training:
            self._cache = None
            return grad * self.gamma.data[None, :, None, None] / std[None, :, None, None]

        m = grad.shape[0] * grad.shape[2] * grad.shape[3]
        gamma = self.gamma.data[None, :, None, None]
        grad_xhat = grad * gamma
        sum_g = grad_xhat.sum(axis=(0, 2, 3), keepdims=True)
        sum_gx = (grad_xhat * x_hat).sum(axis=(0, 2, 3), keepdims=True)
        grad_x = (grad_xhat - sum_g / m - x_hat * sum_gx / m) / std[None, :, None, None]
        self._cache = None
        return grad_x


class ReLU(Module):
    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = (x > 0.0) if self.training else None
        return np.maximum(x, 0.0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise ModelError("backward called before forward")
        out = grad * self._mask
        self._mask = None
        return out


class Sigmoid(Module):
    def __init__(self) -> None:
        super().__init__()
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = F.sigmoid(x)
        self._out = out if self.training else None
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise ModelError("backward called before forward")
        out = F.sigmoid_grad(self._out, grad)
        self._out = None
        return out


class Flatten(Module):
    def __init__(self) -> None:
        super().__init__()
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape if self.training else None
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise ModelError("backward called before forward")
        out = grad.reshape(self._shape)
        self._shape = None
        return out


class Linear(Module):
    """Fully connected layer ``y = x W^T + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            kaiming_uniform((out_features, in_features), in_features, rng),
            name="linear.weight",
        )
        self.bias = Parameter(
            kaiming_uniform((out_features,), in_features, rng), name="linear.bias"
        )
        self._input: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeError(
                f"Linear expected (B, {self.in_features}), got {x.shape}"
            )
        self._input = x if self.training else None
        weight_t = self.weight.data.T
        bias = self.bias.data
        if not self.training and x.dtype != weight_t.dtype:
            weight_t, bias = self._eval_cached(
                "wT", x.dtype,
                lambda: (
                    self.weight.data.T.astype(x.dtype),
                    self.bias.data.astype(x.dtype),
                ),
            )
        return x @ weight_t + bias

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise ModelError("backward called before forward")
        self.weight.accumulate(grad.T @ self._input)
        self.bias.accumulate(grad.sum(axis=0))
        out = grad @ self.weight.data
        self._input = None
        return out


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, p: float = 0.5, rng: np.random.Generator | None = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ShapeError("dropout probability must lie in [0, 1)")
        self.p = p
        self.rng = rng or np.random.default_rng(0)
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.p == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.p
        self._mask = (self.rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad
        out = grad * self._mask
        self._mask = None
        return out


class Sequential(Module):
    """Runs layers in order; backward in reverse order."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers = list(layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer(x)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, idx: int) -> Module:
        return self.layers[idx]
