"""User-location topic model: CVB0 LDA plus the preference head.

Users act as documents and visited locations as words. The fitted per-user
topic distribution is a frozen (non-differentiable) feature; only the
two-layer interaction head on top of it is learned.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import dcg
from .dcg import Linear, ParamRegistry, Tensor

__all__ = ["TopicModel", "build_cooccurrence", "fit_lda", "UserLocationHead"]


@dataclass
class TopicModel:
    """Fitted LDA posterior estimates; immutable after fitting."""

    n_topics: int
    theta: np.ndarray          # [n_users, n_topics], row-stochastic
    phi: np.ndarray            # [n_topics, n_locations], row-stochastic
    alpha: float
    beta: float
    gibbs_iters: int           # CVB0 sweeps (name kept for configs and checkpoints)
    seed: int


def build_cooccurrence(location_lists: list[list[int]], n_locations: int) -> np.ndarray:
    """Visit-count matrix [n_users, n_locations] from per-user location lists;
    IndexError for a location id outside [0, n_locations)."""
    lengths = [len(locs) for locs in location_lists]
    locs = np.fromiter(itertools.chain.from_iterable(location_lists),
                       dtype=np.int64, count=sum(lengths))
    if locs.size and (locs.min() < 0 or locs.max() >= n_locations):
        bad = locs[(locs < 0) | (locs >= n_locations)][0]
        raise IndexError(f"location id {bad} out of range [0, {n_locations})")
    users = np.repeat(np.arange(len(location_lists)), lengths)
    shape = (len(location_lists), n_locations)
    return np.bincount(users * n_locations + locs,
                       minlength=math.prod(shape)).reshape(shape)


def fit_lda(counts: np.ndarray, n_topics: int, alpha: float | None = None,
            beta: float = 0.01, iters: int = 500, seed: int = 0) -> TopicModel:
    """Batch CVB0 on a user-location count matrix.

    CVB0 is the zero-order collapsed variational update of Asuncion, Welling,
    Smyth & Teh, "On Smoothing and Inference for Topic Models" (UAI 2009).
    Every nonzero entry (u, l) with count c holds a topic responsibility
    gamma shared by its c tokens; the expected counts are n = sum c*gamma.
    Each of the ``iters`` synchronous sweeps sets, for all entries at once,

        gamma ~ (n_uk[u] - gamma + alpha) * (n_lk[l] - gamma + beta)
                / (n_k - gamma + n_locations*beta),

    removing one token's share from the counts (the per-token rule). The
    init is a seeded uniform draw, row-normalized. alpha defaults to the
    symmetric 50/n_topics; theta and phi are the final expected counts with
    prior smoothing. Deterministic given (counts, n_topics, priors, iters,
    seed).
    """
    counts = np.asarray(counts, dtype=np.int64)
    if n_topics < 2:
        raise ValueError(f"n_topics must be >= 2, got {n_topics}")
    if counts.sum() == 0:
        raise ValueError("empty corpus: co-occurrence matrix has no visits")
    if alpha is None:
        alpha = 50.0 / n_topics
    if alpha <= 0.0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    if beta <= 0.0:
        raise ValueError(f"beta must be > 0, got {beta}")
    n_users, n_locations = counts.shape

    users, locs = np.nonzero(counts)
    c = counts[users, locs].astype(np.float64)[:, None]
    user_cells = dcg.row_cells(users, n_topics)
    loc_cells = dcg.row_cells(locs, n_topics)
    rng = np.random.default_rng(seed)
    gamma = rng.random((users.shape[0], n_topics))
    gamma /= gamma.sum(axis=1, keepdims=True)

    def expected_counts(gamma):
        weighted = c * gamma
        return (dcg.scatter_rows(user_cells, weighted, (n_users, n_topics)),
                dcg.scatter_rows(loc_cells, weighted, (n_locations, n_topics)),
                weighted.sum(axis=0))

    for _ in range(iters):
        n_uk, n_lk, n_k = expected_counts(gamma)
        # the docstring's update in place, its operations in the same order
        update = n_uk[users]
        update -= gamma
        update += alpha
        loc_term = n_lk[locs]
        loc_term -= gamma
        loc_term += beta
        update *= loc_term
        np.subtract(n_k, gamma, out=loc_term)
        loc_term += n_locations * beta
        update /= loc_term
        gamma = update
        gamma /= gamma.sum(axis=1, keepdims=True)

    n_uk, n_lk, n_k = expected_counts(gamma)
    theta = (n_uk + alpha) / (n_uk.sum(axis=1, keepdims=True) + n_topics * alpha)
    phi = (n_lk.T + beta) / (n_k[:, None] + n_locations * beta)
    return TopicModel(n_topics=n_topics, theta=theta, phi=phi, alpha=alpha,
                      beta=beta, gibbs_iters=iters, seed=seed)


class UserLocationHead:
    """Two-layer ReLU MLP mapping a topic distribution to a d-vector."""

    def __init__(self, registry: ParamRegistry, rng: np.random.Generator,
                 n_topics: int, dim: int):
        self.l1 = Linear(registry, rng, "ul_head.l1", n_topics, dim)
        self.l2 = Linear(registry, rng, "ul_head.l2", dim, dim)

    def __call__(self, c_u: Tensor) -> Tensor:
        """c_u: [batch, n_topics] constant input -> [batch, dim]."""
        return self.l2(dcg.relu(self.l1(c_u)))
