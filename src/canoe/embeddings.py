"""Embedding layers: Gaussian-smoothed cyclic time slots, user and location tables.

The daily cycle is discretized into H slots; a slot's representation is a
convex combination of all base slot vectors, weighted by a Gaussian kernel
over the periodic slot distance. The kernel matrix is an analytic constant
(never learned); gradients flow into the base table through it.
"""

from __future__ import annotations

import numpy as np

from . import dcg
from .dcg import ParamRegistry, Tensor

__all__ = ["smoothing_weights", "SmoothedTimeEmbedding", "EmbeddingTable"]


def smoothing_weights(n_slots: int, sigma: float) -> np.ndarray:
    """Row-stochastic [n_slots, n_slots] Gaussian kernel over periodic distance."""
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    idx = np.arange(n_slots)
    diff = np.abs(idx[:, None] - idx[None, :])
    delta = np.minimum(diff, n_slots - diff)
    w = np.exp(-(delta.astype(np.float64) ** 2) / (2.0 * sigma * sigma))
    return w / w.sum(axis=1, keepdims=True)


class SmoothedTimeEmbedding:
    """Learnable slot table behind a fixed cyclic Gaussian smoother."""

    def __init__(self, registry: ParamRegistry, rng: np.random.Generator,
                 n_slots: int, dim: int, sigma: float):
        self.n_slots = n_slots
        self.dim = dim
        self.sigma = sigma
        self.weights = smoothing_weights(n_slots, sigma)
        self._weights_t = dcg.constant(self.weights)
        self.table = registry.weight("time_table", rng, (n_slots, dim))

    def smoothed_table(self) -> Tensor:
        """All smoothed slot vectors, shape [n_slots, dim]."""
        return dcg.matmul(self._weights_t, self.table)

    def lookup(self, slots) -> Tensor:
        """Smoothed vectors for integer slot indices; output [..., dim]."""
        slots = np.asarray(slots)
        if slots.size and (slots.min() < 0 or slots.max() >= self.n_slots):
            raise ValueError(f"slot index out of range [0, {self.n_slots})")
        return dcg.gather_rows(self.smoothed_table(), slots)


class EmbeddingTable:
    """Plain learnable lookup table [count, dim]."""

    def __init__(self, registry: ParamRegistry, rng: np.random.Generator,
                 count: int, dim: int, name: str):
        self.count = count
        self.dim = dim
        self.table = registry.weight(name, rng, (count, dim))

    def lookup(self, idx) -> Tensor:
        idx = np.asarray(idx)
        if idx.size and (idx.min() < 0 or idx.max() >= self.count):
            raise IndexError(f"embedding index out of range [0, {self.count})")
        return dcg.gather_rows(self.table, idx)
