"""Adam with bias correction.

Parameters are (name, Tensor) pairs; moment buffers live here, keyed by
position, so the optimizer can be rebuilt deterministically from a config
plus the parameter list order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError
from .tensor import Tensor


@dataclass
class AdamConfig:
    lr: float = 2e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def validate(self) -> None:
        if not 0 < self.lr < np.inf:
            raise ConfigError(f"Adam lr must be positive and finite, got {self.lr}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError("Adam betas must lie in [0, 1)")


class Adam:
    """First/second-moment SGD; update is lr * m_hat / (sqrt(v_hat) + eps).

    With a constant gradient g the bias-corrected update magnitude approaches
    lr * |g| / (|g| + eps), i.e. lr * sign(g) for |g| >> eps.  A zero gradient
    leaves parameters bit-identical.
    """

    def __init__(self, params, config: AdamConfig | None = None):
        self.config = config or AdamConfig()
        self.config.validate()
        self.params: list[tuple[str, Tensor]] = [
            p if isinstance(p, tuple) else (f"param{i}", p) for i, p in enumerate(params)
        ]
        self.m = [np.zeros_like(t.data) for _, t in self.params]
        self.v = [np.zeros_like(t.data) for _, t in self.params]
        self.t = 0
        # two scratch buffers sized by the largest parameter, viewed per parameter
        nbytes = max((t.data.nbytes for _, t in self.params), default=0)
        scratch = [np.empty(nbytes, dtype=np.uint8) for _ in range(2)]
        self._scratch = [tuple(b[:t.data.nbytes].view(t.dtype).reshape(t.shape) for b in scratch)
                         for _, t in self.params]

    def step(self) -> None:
        """One update, in place, in the operation order of
        m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g;
        p -= lr*(m/b1t) / (sqrt(v/b2t) + eps), so the bits match that formula."""
        c = self.config
        self.t += 1
        b1t = 1.0 - c.beta1 ** self.t
        b2t = 1.0 - c.beta2 ** self.t
        for i, (name, p) in enumerate(self.params):
            if p.grad is None:
                raise ContractError(f"Adam.step: parameter '{name}' has no gradient")
            g, m, v = p.grad, self.m[i], self.v[i]
            step, denom = self._scratch[i]
            m *= c.beta1
            m += np.multiply(g, 1.0 - c.beta1, out=step)
            v *= c.beta2
            np.multiply(g, 1.0 - c.beta2, out=step)
            v += np.multiply(step, g, out=step)
            np.divide(m, b1t, out=step)
            step *= c.lr
            np.divide(v, b2t, out=denom)
            np.sqrt(denom, out=denom)
            denom += c.eps
            step /= denom
            p.data -= step

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.grad = None
