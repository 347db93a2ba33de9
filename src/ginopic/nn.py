"""Parameterized layers built on the tensor ops.

Thin containers: they own Tensors (and batchnorm's running buffers) and
compose primitives from `tensor`.  Initialization draws from named streams so
layer construction order never changes any layer's weights.
"""
from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ConfigError


def _uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Linear:
    """y = x @ W + b, with W (fan_in, fan_out); init uniform(+-1/sqrt(fan_in))."""

    def __init__(self, fan_in: int, fan_out: int, rng: np.random.Generator, name: str = "linear"):
        if fan_in < 1 or fan_out < 1:
            raise ConfigError(f"Linear dims must be positive, got ({fan_in}, {fan_out})")
        self.name = name
        dtype = T.get_default_dtype()
        self.weight = T.Tensor(_uniform_init(rng, (fan_in, fan_out), fan_in),
                               requires_grad=True, dtype=dtype)
        self.bias = T.Tensor(_uniform_init(rng, (fan_out,), fan_in),
                             requires_grad=True, dtype=dtype)

    def __call__(self, x: T.Tensor) -> T.Tensor:
        return T.linear(x, self.weight, self.bias)

    def parameters(self):
        return [(f"{self.name}.weight", self.weight), (f"{self.name}.bias", self.bias)]


class BatchNorm1d:
    """Batch normalization over axis 0; scale/shift learnable, stats buffered."""

    def __init__(self, dim: int, momentum: float = 0.1, eps: float = 1e-5, name: str = "bn"):
        self.name = name
        self.momentum = momentum
        self.eps = eps
        dtype = T.get_default_dtype()
        self.gamma = T.Tensor(np.ones(dim), requires_grad=True, dtype=dtype)
        self.beta = T.Tensor(np.zeros(dim), requires_grad=True, dtype=dtype)
        self.running_mean = np.zeros(dim, dtype=dtype)
        self.running_var = np.ones(dim, dtype=dtype)

    def __call__(self, x: T.Tensor, training: bool) -> T.Tensor:
        return T.batchnorm_1d(
            x, self.gamma, self.beta,
            self.running_mean, self.running_var,
            self.momentum, self.eps, training,
        )

    def parameters(self):
        return [(f"{self.name}.gamma", self.gamma), (f"{self.name}.beta", self.beta)]

    def buffers(self):
        return [(f"{self.name}.running_mean", self.running_mean),
                (f"{self.name}.running_var", self.running_var)]


class Mlp:
    """Linear -> ReLU per hidden layer, then a final Linear with no activation."""

    def __init__(self, dims, rng: np.random.Generator, name: str = "mlp"):
        dims = list(dims)
        if len(dims) < 2:
            raise ConfigError("Mlp needs at least an input and an output dimension")
        self.name = name
        self.layers = [
            Linear(dims[i], dims[i + 1], rng, name=f"{name}.{i}")
            for i in range(len(dims) - 1)
        ]

    def __call__(self, x: T.Tensor) -> T.Tensor:
        for layer in self.layers[:-1]:
            x = T.relu(layer(x))
        return self.layers[-1](x)

    def parameters(self):
        out = []
        for layer in self.layers:
            out.extend(layer.parameters())
        return out
