"""Named parameter registry: the single differentiable-state container, and
the one place parameters are initialized (weights uniform in
[-INIT_SCALE, INIT_SCALE], biases zero)."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .tensor import Tensor, linear, parameter

__all__ = ["INIT_SCALE", "ParamRegistry", "Linear"]

INIT_SCALE = 0.1


class ParamRegistry:
    """Ordered map name -> parameter Tensor. Insertion order is iteration order."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def register(self, name: str, data) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name '{name}'")
        t = parameter(np.asarray(data, dtype=np.float64))
        self._params[name] = t
        return t

    def weight(self, name: str, rng: np.random.Generator, shape) -> Tensor:
        """Register a weight drawn uniformly from [-INIT_SCALE, INIT_SCALE]."""
        return self.register(name, rng.uniform(-INIT_SCALE, INIT_SCALE, shape))

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._params.items())

    def zero_grads(self) -> None:
        for t in self._params.values():
            t.grad = None

    def n_entries(self) -> int:
        return sum(t.data.size for t in self._params.values())

    def global_grad_norm(self) -> float:
        total = 0.0
        for t in self._params.values():
            if t.grad is not None:
                total += float(np.sum(t.grad * t.grad))
        return float(np.sqrt(total))

    def clip_grad_norm(self, max_norm: float) -> float:
        """Scale all grads so the global L2 norm is at most max_norm."""
        norm = self.global_grad_norm()
        if norm > max_norm > 0.0:
            scale = max_norm / norm
            for t in self._params.values():
                if t.grad is not None:
                    t.grad *= scale
        return norm

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self._params.items()}

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        check_state(arrays, {n: t.data for n, t in self._params.items()},
                    "parameter")
        for name, t in self._params.items():
            t.data[...] = arrays[name]


def name_list(names: list[str]) -> str:
    """The first five names, then how many more there are."""
    more = f" and {len(names) - 5} more" if len(names) > 5 else ""
    return f"{names[:5]}{more}"


def check_state(arrays: dict[str, np.ndarray],
                expected: dict[str, np.ndarray], what: str) -> None:
    """ValueError unless arrays has exactly the expected names and shapes."""
    missing = [n for n in expected if n not in arrays]
    unexpected = [n for n in arrays if n not in expected]
    if missing or unexpected:
        raise ValueError(f"{what} names differ from the model's: missing "
                         f"{name_list(missing)}, unexpected {name_list(unexpected)}")
    for name, want in expected.items():
        if arrays[name].shape != want.shape:
            raise ValueError(f"shape mismatch for '{name}': "
                             f"{arrays[name].shape} vs {want.shape}")


class Linear:
    """Dense projection x @ w + b, one fused graph node: registers {name}.w,
    then a zero {name}.b."""

    def __init__(self, registry: ParamRegistry, rng: np.random.Generator,
                 name: str, d_in: int, d_out: int):
        self.w = registry.weight(f"{name}.w", rng, (d_in, d_out))
        self.b = registry.register(f"{name}.b", np.zeros(d_out))

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.w, self.b)
