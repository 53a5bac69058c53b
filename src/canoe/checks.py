"""End-to-end gradient verification of the assembled model.

Builds a deliberately tiny model plus a synthetic batch and compares every
parameter's analytic gradient against central finite differences. The
fixture seeds are fixed: finite differences are untrustworthy within
epsilon of a ReLU kink, so the seeds were chosen to keep pre-activations
away from kinks (an FD artifact, not a property of the gradients).
"""

from __future__ import annotations

import numpy as np

from .config import RunConfig
from .dcg import grad_check
from .data import N_SLOTS
from .model import Batch, CanoeModel

__all__ = ["tiny_gradcheck_config", "tiny_gradcheck_batch", "full_model_gradcheck"]

TINY_USERS = 3
TINY_LOCATIONS = 12
TINY_WINDOW = 5
_TINY_SEED = 7


def tiny_gradcheck_config() -> RunConfig:
    """Small-everything configuration sized for exhaustive FD sweeps."""
    return RunConfig.from_dict({
        "seed": _TINY_SEED,
        "data": {"window_len": TINY_WINDOW, "num_users": TINY_USERS,
                 "num_locations": TINY_LOCATIONS},
        "topics": {"n_topics": 4, "gibbs_iters": 50},
        "model": {"dim": 8, "attn_heads": 2, "osc_iters": 1,
                  "enc_layers": 1, "enc_heads": 2, "enc_dropout": 0.0},
        "train": {"lambda_loc": 1.0, "lambda_time": 0.5, "lambda_aux": 0.5},
    })


def tiny_gradcheck_batch(cfg: RunConfig, rng: np.random.Generator) -> Batch:
    ctx = cfg.data.window_len - 1
    n = TINY_USERS
    return Batch(
        users=np.arange(n, dtype=np.int64),
        ctx_locs=rng.integers(0, TINY_LOCATIONS, size=(n, ctx)),
        ctx_slots=rng.integers(0, N_SLOTS, size=(n, ctx)),
        target_locs=rng.integers(0, TINY_LOCATIONS, size=n),
        target_slots=rng.integers(0, N_SLOTS, size=n),
    )


def full_model_gradcheck(cfg: RunConfig | None = None, epsilon: float = 1e-5) -> float:
    """Max relative FD error over every parameter entry of the full loss."""
    cfg = cfg or tiny_gradcheck_config()
    rng = np.random.default_rng([cfg.seed, 77])
    theta_raw = rng.random((TINY_USERS, cfg.topics.n_topics))
    theta = theta_raw / theta_raw.sum(axis=1, keepdims=True)
    model = CanoeModel(cfg.model, n_users=TINY_USERS,
                       n_locations=TINY_LOCATIONS, topic_theta=theta,
                       seed=cfg.seed)
    batch = tiny_gradcheck_batch(cfg, rng)
    weights = cfg.loss_weights()

    def loss_fn(_registry):
        model.reset_states()
        loss, _ = model.loss_batch(batch, weights)
        return loss

    return grad_check(loss_fn, model.registry, epsilon)
