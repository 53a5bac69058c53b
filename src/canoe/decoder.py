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
from .dcg import Linear, ParamRegistry, Tensor

__all__ = ["LossWeights", "CrossContextDecoder"]


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


class CrossContextDecoder:
    """Fuses the three pair outputs into the prediction representation."""

    def __init__(self, registry: ParamRegistry, rng: np.random.Generator,
                 dim: int, n_locations: int, n_slots: int, n_heads: int,
                 osc: OscillatorParams | None, query_source: str):
        if query_source not in ("user_location", "time_user"):
            raise ValueError(f"unknown query source '{query_source}'")
        self.dim = dim
        self.query_source = query_source

        self.w_q = registry.weight("decoder.w_q", rng, (dim, dim))
        self.p_user = Linear(registry, rng, "decoder.p_user", dim, dim)
        self.p_ut = Linear(registry, rng, "decoder.p_ut", dim, dim)
        self.p_st = Linear(registry, rng, "decoder.p_st", 2 * dim, dim)
        self.attn = CnoaAttention(registry, rng, "decoder.attn", dim_q=dim,
                                  dim_kv=dim, dim_out=dim, n_heads=n_heads,
                                  osc=osc)
        hidden = 4 * dim
        self.fuse1 = Linear(registry, rng, "decoder.fuse1", 6 * dim, hidden)
        self.fuse2 = Linear(registry, rng, "decoder.fuse2", hidden, dim)
        self.loc = Linear(registry, rng, "decoder.loc", dim, n_locations)
        self.time = Linear(registry, rng, "decoder.time", dim, n_slots)
        self.aux = Linear(registry, rng, "decoder.aux", 6 * dim, n_locations)

    def __call__(self, o_us: Tensor, o_ut: Tensor, o_st: Tensor, e_u: Tensor,
                 update_state: bool = True) -> tuple[Tensor, Tensor]:
        """Fuses the user-location [batch, d], time-user [batch, d] and
        location-time [batch, T, 2d] outputs with the user embedding.
        Returns (y_hat [batch, d], pre-fusion concat [batch, 6d])."""
        batch = o_st.shape[0]
        query_src = o_us if self.query_source == "user_location" else o_ut
        query = dcg.reshape(dcg.matmul(query_src, self.w_q), (batch, 1, self.dim))
        t_user = dcg.reshape(self.p_user(e_u), (batch, 1, self.dim))
        t_ut = dcg.reshape(self.p_ut(o_ut), (batch, 1, self.dim))
        tokens = dcg.concat([t_user, t_ut, self.p_st(o_st)], axis=1)
        attended = self.attn(query, tokens, tokens, update_state=update_state)
        attended = dcg.reshape(attended, (batch, self.dim))
        fused_in = dcg.concat([o_us, o_st[:, -1], o_ut, e_u, attended], axis=-1)
        return self.fuse2(dcg.relu(self.fuse1(fused_in))), fused_in

    def location_logits(self, y_hat: Tensor) -> Tensor:
        return self.loc(y_hat)

    def time_logits(self, o_ut: Tensor) -> Tensor:
        return self.time(o_ut)

    def aux_logits(self, fused_in: Tensor) -> Tensor:
        return self.aux(fused_in)
