"""Gradient checking against central finite differences."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .registry import ParamRegistry
from .tensor import Tensor, backward, no_grad

__all__ = ["grad_check"]


def grad_check(loss_fn: Callable[[ParamRegistry], Tensor],
               registry: ParamRegistry,
               epsilon: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    loss_fn must be a deterministic scalar function of the registry's
    parameters; relative error per entry is
    |analytic - numeric| / max(1, |analytic|, |numeric|). The
    finite-difference passes run under no_grad: they build no graph.
    """
    if not (0.0 < epsilon <= 1e-2):
        raise ValueError(f"epsilon must lie in (0, 1e-2], got {epsilon}")

    base_a = loss_fn(registry).item()
    base_b = loss_fn(registry).item()
    if base_a != base_b:
        raise ValueError(
            f"loss_fn is not deterministic: {base_a!r} != {base_b!r}"
        )

    registry.zero_grads()
    loss = loss_fn(registry)
    backward(loss)
    analytic = {
        name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
        for name, t in registry.items()
    }
    registry.zero_grads()

    worst = 0.0
    with no_grad():
        for name, t in registry.items():
            flat = t.data.reshape(-1)
            ana = analytic[name].reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + epsilon
                up = loss_fn(registry).item()
                flat[i] = orig - epsilon
                down = loss_fn(registry).item()
                flat[i] = orig
                numeric = (up - down) / (2.0 * epsilon)
                denom = max(1.0, abs(ana[i]), abs(numeric))
                worst = max(worst, abs(ana[i] - numeric) / denom)
    return worst
