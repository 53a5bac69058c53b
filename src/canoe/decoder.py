"""Cross-context attentive decoder and the prediction heads.

The user-location output queries a short token sequence built from the
user embedding, the time-user output, and the location-time rows, all
projected to a common width. The fused representation feeds the location
head; the time head reads the time-user output directly; an auxiliary
location head reads the raw pre-fusion concatenation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dcg
from .cnoa import CnoaAttention, OscillatorParams
from .dcg import ParamRegistry, Tensor
from .encoder import EncoderOutput

__all__ = ["LossWeights", "CrossContextDecoder", "cross_entropy"]


@dataclass
class LossWeights:
    loc: float = 1.0
    time: float = 0.5
    aux: float = 0.5

    def __post_init__(self):
        if min(self.loc, self.time, self.aux) < 0.0:
            raise ValueError("loss weights must be non-negative")
        if self.loc == self.time == self.aux == 0.0:
            raise ValueError("at least one loss weight must be positive")


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-probability of the target class per batch row."""
    targets = np.asarray(targets)
    n_classes = logits.shape[-1]
    if targets.size and (targets.min() < 0 or targets.max() >= n_classes):
        raise IndexError(f"target index out of range [0, {n_classes})")
    picked = dcg.take_along_last(dcg.log_softmax(logits, axis=-1), targets)
    return dcg.neg(dcg.tensor_mean(picked))


class CrossContextDecoder:
    """Fuses the three pair outputs into the prediction representation."""

    def __init__(self, registry: ParamRegistry, rng: np.random.Generator,
                 dim: int, n_locations: int, n_slots: int, n_heads: int,
                 osc: OscillatorParams, variant: str = "cnoa",
                 query_source: str = "user_location", init_scale: float = 0.1):
        if query_source not in ("user_location", "time_user"):
            raise ValueError(f"unknown query source '{query_source}'")
        self.dim = dim
        self.query_source = query_source

        def weight(name, shape):
            return registry.register(f"decoder.{name}",
                                     rng.uniform(-init_scale, init_scale, shape))

        def bias(name, size):
            return registry.register(f"decoder.{name}", np.zeros(size))

        self.w_q = weight("w_q", (dim, dim))
        self.p_user_w, self.p_user_b = weight("p_user_w", (dim, dim)), bias("p_user_b", dim)
        self.p_ut_w, self.p_ut_b = weight("p_ut_w", (dim, dim)), bias("p_ut_b", dim)
        self.p_st_w, self.p_st_b = weight("p_st_w", (2 * dim, dim)), bias("p_st_b", dim)
        self.attn = CnoaAttention(registry, rng, "decoder.attn", dim_q=dim,
                                  dim_kv=dim, dim_out=dim, n_heads=n_heads,
                                  osc=osc, variant=variant)
        hidden = 4 * dim
        self.fuse_w1, self.fuse_b1 = weight("fuse_w1", (6 * dim, hidden)), bias("fuse_b1", hidden)
        self.fuse_w2, self.fuse_b2 = weight("fuse_w2", (hidden, dim)), bias("fuse_b2", dim)
        self.loc_w, self.loc_b = weight("loc_w", (dim, n_locations)), bias("loc_b", n_locations)
        self.time_w, self.time_b = weight("time_w", (dim, n_slots)), bias("time_b", n_slots)
        self.aux_w, self.aux_b = weight("aux_w", (6 * dim, n_locations)), bias("aux_b", n_locations)

    def __call__(self, enc: EncoderOutput, e_u: Tensor,
                 update_state: bool = True) -> tuple[Tensor, Tensor]:
        """Returns (y_hat [batch, d], pre-fusion concat [batch, 6d])."""
        batch = enc.o_st.shape[0]
        query_src = enc.o_us if self.query_source == "user_location" else enc.o_ut
        query = dcg.reshape(dcg.matmul(query_src, self.w_q), (batch, 1, self.dim))
        t_user = dcg.reshape(dcg.matmul(e_u, self.p_user_w) + self.p_user_b,
                             (batch, 1, self.dim))
        t_ut = dcg.reshape(dcg.matmul(enc.o_ut, self.p_ut_w) + self.p_ut_b,
                           (batch, 1, self.dim))
        t_st = dcg.matmul(enc.o_st, self.p_st_w) + self.p_st_b
        tokens = dcg.concat([t_user, t_ut, t_st], axis=1)
        attended = self.attn(query, tokens, tokens, update_state=update_state)
        attended = dcg.reshape(attended, (batch, self.dim))
        fused_in = dcg.concat([enc.o_us, enc.o_st[:, -1], enc.o_ut, e_u, attended], axis=-1)
        hidden = dcg.relu(dcg.matmul(fused_in, self.fuse_w1) + self.fuse_b1)
        y_hat = dcg.matmul(hidden, self.fuse_w2) + self.fuse_b2
        return y_hat, fused_in

    def location_logits(self, y_hat: Tensor) -> Tensor:
        return dcg.matmul(y_hat, self.loc_w) + self.loc_b

    def time_logits(self, o_ut: Tensor) -> Tensor:
        return dcg.matmul(o_ut, self.time_w) + self.time_b

    def aux_logits(self, fused_in: Tensor) -> Tensor:
        return dcg.matmul(fused_in, self.aux_w) + self.aux_b
