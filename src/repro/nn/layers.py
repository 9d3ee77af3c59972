"""Core neural-network layers: Linear, Dropout, normalisation, activations.

Every stochastic layer owns an explicit ``numpy.random.Generator`` seeded at
construction, so whole models are reproducible from a single seed while
remaining genuinely stochastic across forward passes — the property TimeDRL
exploits to build two contrastive views from dropout alone.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from . import init
from .module import Module, Parameter
from .tensor import Tensor

__all__ = [
    "Linear",
    "Dropout",
    "LayerNorm",
    "BatchNorm1d",
    "ReLU",
    "GELU",
    "Tanh",
    "Sigmoid",
    "Identity",
    "Flatten",
]


class Linear(Module):
    """Affine map ``y = x @ W + b`` over the last axis of ``x``; ``W`` is
    the C-contiguous ``(in, out)`` transpose of an ``(out, in)`` Kaiming
    draw (docs/autograd.md "GEMM shapes")."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), rng).T.copy())
        if bias:
            bound = 1.0 / np.sqrt(in_features)
            self.bias = Parameter(rng.uniform(-bound, bound, size=out_features).astype(np.float32))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features}, bias={self.bias is not None})"


class Dropout(Module):
    """Inverted dropout; active only in training mode."""

    def __init__(self, p: float = 0.1, rng: np.random.Generator | None = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.rng = rng or np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self.rng, training=self.training)

    def __repr__(self) -> str:
        return f"Dropout(p={self.p})"


class LayerNorm(Module):
    """Layer normalisation over the last axis."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5):
        super().__init__()
        self.eps = eps
        self.weight = Parameter(init.ones((normalized_shape,)))
        self.bias = Parameter(init.zeros((normalized_shape,)))

    def forward(self, x: Tensor) -> Tensor:
        return F.layer_norm(x, self.weight, self.bias, eps=self.eps)


class BatchNorm1d(Module):
    """Batch normalisation for ``(N, C)`` or ``(N, C, L)`` inputs.

    Running statistics are tracked with exponential moving averages and used
    in eval mode, matching standard deep-learning practice.
    """

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(init.ones((num_features,)))
        self.bias = Parameter(init.zeros((num_features,)))
        self.register_buffer("running_mean", np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_var", np.ones(num_features, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim == 2:
            axes, shape = (0,), (1, self.num_features)
        elif x.ndim == 3:
            axes, shape = (0, 2), (1, self.num_features, 1)
        else:
            raise ValueError(f"BatchNorm1d expects 2-D or 3-D input, got {x.ndim}-D")

        if self.training:
            mean = x.mean(axis=axes, keepdims=True)
            var = x.var(axis=axes, keepdims=True)
            m = self.momentum
            self.running_mean[...] = (1 - m) * self.running_mean + m * mean.data.reshape(-1)
            self.running_var[...] = (1 - m) * self.running_var + m * var.data.reshape(-1)
        else:
            mean = Tensor(self.running_mean.reshape(shape))
            var = Tensor(self.running_var.reshape(shape))
        normed = (x - mean) / (var + self.eps).sqrt()
        return normed * self.weight.reshape(shape) + self.bias.reshape(shape)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class GELU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.gelu(x)


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x


class Flatten(Module):
    """Flatten all axes except the first (batch) axis."""

    def forward(self, x: Tensor) -> Tensor:
        return x.reshape(x.shape[0], -1)
