"""AdamW: adaptive moments with decoupled weight decay."""

from __future__ import annotations

import numpy as np

from .registry import ParamRegistry, check_state, name_list

__all__ = ["AdamW"]


class AdamW:
    """Decoupled-weight-decay Adam over a ParamRegistry.

    Update per parameter p with gradient g:

        m <- beta1*m + (1-beta1)*g
        v <- beta2*v + (1-beta2)*g^2
        p <- p - lr * m_hat / (sqrt(v_hat) + eps) - lr * weight_decay * p

    with bias-corrected m_hat, v_hat. Gradients are zeroed after each step.
    """

    def __init__(self, registry: ParamRegistry, lr: float = 0.005,
                 weight_decay: float = 0.01, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.registry = registry
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = {name: np.zeros_like(t.data) for name, t in registry.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in registry.items()}

    def step(self) -> None:
        missing = [name for name, t in self.registry.items() if t.grad is None]
        if missing:
            raise ValueError(f"missing gradients for parameters: {name_list(missing)}")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for name, p in self.registry.items():
            g = p.grad
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            m_hat = m / bc1
            v_hat = v / bc2
            p.data -= self.lr * (m_hat / (np.sqrt(v_hat) + self.eps)
                                 + self.weight_decay * p.data)
        self.registry.zero_grads()

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {f"m/{k}": a.copy() for k, a in self.m.items()}
        out.update({f"v/{k}": a.copy() for k, a in self.v.items()})
        out["step"] = np.array(self.step_count, dtype=np.int64)
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        check_state(arrays, self.state_arrays(), "optimizer state")
        for k in self.m:
            self.m[k][...] = arrays[f"m/{k}"]
            self.v[k][...] = arrays[f"v/{k}"]
        self.step_count = int(arrays["step"])
