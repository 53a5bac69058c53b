"""Tri-pair interaction encoder branches.

Of the three pairwise context branches, two live here: time-user alignment
through oscillatory attention over the smoothed slot table, and
location-time dynamics through a causal transformer over the context
window. The third, user-location preferences, is the topic head
(topics.UserLocationHead); CanoeModel calls all three.
"""

from __future__ import annotations

import numpy as np

from . import dcg
from .cnoa import CnoaAttention, OscillatorParams
from .dcg import Linear, ParamRegistry, Tensor
from .embeddings import EmbeddingTable, SmoothedTimeEmbedding

__all__ = [
    "positional_encoding", "causal_mask", "TransformerLayer",
    "TimeUserPair", "LocationTimePair",
]

_MASK_NEG = -1e30  # additive mask; exp underflows to exactly 0 after softmax


def positional_encoding(length: int, dim: int) -> np.ndarray:
    """Fixed sinusoidal position table [length, dim]."""
    pos = np.arange(length, dtype=np.float64)[:, None]
    idx = np.arange(dim, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * np.floor(idx / 2.0) / dim)
    pe = np.zeros((length, dim))
    pe[:, 0::2] = np.sin(angle[:, 0::2])
    pe[:, 1::2] = np.cos(angle[:, 1::2])
    return pe


def causal_mask(length: int) -> np.ndarray:
    """Additive [length, length] mask blocking attention to future positions."""
    return np.triu(np.full((length, length), _MASK_NEG), k=1)


class TransformerLayer:
    """Post-LN encoder layer: masked self-attention then position-wise FF,
    one dcg.transformer_layer node. A call given a dropout generator is a
    training forward and drops at the layer's rate."""

    def __init__(self, registry: ParamRegistry, rng: np.random.Generator,
                 prefix: str, dim: int, heads: int, ff_width: int, dropout: float):
        if dim % heads != 0:
            raise ValueError(f"dim {dim} not divisible by heads {heads}")
        self.heads = heads
        self.dropout = dropout
        self._scale = 1.0 / np.sqrt(dim // heads)
        q, k, v, o = (Linear(registry, rng, f"{prefix}.{name}", dim, dim)
                      for name in "qkvo")
        ln1 = (registry.register(f"{prefix}.ln1_g", np.ones(dim)),
               registry.register(f"{prefix}.ln1_b", np.zeros(dim)))
        ff1 = Linear(registry, rng, f"{prefix}.ff1", dim, ff_width)
        ff2 = Linear(registry, rng, f"{prefix}.ff2", ff_width, dim)
        ln2 = (registry.register(f"{prefix}.ln2_g", np.ones(dim)),
               registry.register(f"{prefix}.ln2_b", np.zeros(dim)))
        # in registration order, the order transformer_layer takes them in
        self.params = (q.w, q.b, k.w, k.b, v.w, v.b, o.w, o.b, *ln1,
                       ff1.w, ff1.b, ff2.w, ff2.b, *ln2)

    def __call__(self, x: Tensor, mask: np.ndarray,
                 rng: np.random.Generator | None) -> Tensor:
        drop = None
        if rng is not None and self.dropout > 0.0:
            # inverted dropout: the attention output's keep-mask, then the
            # feed-forward output's
            drop = (self.dropout, *(rng.random(x.shape) >= self.dropout
                                    for _ in range(2)))
        return dcg.transformer_layer(x, self.params, self.heads, mask,
                                     self._scale, drop)


class TimeUserPair:
    """Query [user ; current slot] against the full smoothed slot table."""

    def __init__(self, registry: ParamRegistry, rng: np.random.Generator,
                 user_table: EmbeddingTable, time_emb: SmoothedTimeEmbedding,
                 dim: int, n_heads: int, osc: OscillatorParams | None):
        self.user_table = user_table
        self.time_emb = time_emb
        self.dim = dim
        self.attn = CnoaAttention(registry, rng, "time_user.attn",
                                  dim_q=2 * dim, dim_kv=dim, dim_out=dim,
                                  n_heads=n_heads, osc=osc)

    def __call__(self, users: np.ndarray, current_slots: np.ndarray,
                 update_state: bool = True) -> Tensor:
        batch = len(users)
        e_u = self.user_table.lookup(users)
        e_h = self.time_emb.lookup(current_slots)
        query = dcg.reshape(dcg.concat([e_u, e_h], axis=-1), (batch, 1, 2 * self.dim))
        table = self.time_emb.smoothed_table()
        out = self.attn(query, table, table, update_state=update_state)
        return dcg.reshape(out, (batch, self.dim))


class LocationTimePair:
    """Causal transformer over [location ; slot] context embeddings.

    The 2d inputs are linearly projected to d before positional encoding;
    the output keeps both the contextualized rows and the projected inputs:
    O_st = [H ; X_proj] per row.
    """

    def __init__(self, registry: ParamRegistry, rng: np.random.Generator,
                 loc_table: EmbeddingTable, time_emb: SmoothedTimeEmbedding,
                 dim: int, n_layers: int, heads: int, dropout: float,
                 ff_width: int):
        self.loc_table = loc_table
        self.time_emb = time_emb
        self.dim = dim
        self.in_proj = Linear(registry, rng, "loc_time.in_proj", 2 * dim, dim)
        self.layers = [
            TransformerLayer(registry, rng, f"loc_time.layer{i}", dim, heads,
                             ff_width, dropout)
            for i in range(n_layers)
        ]

    def __call__(self, ctx_locs: np.ndarray, ctx_slots: np.ndarray,
                 rng: np.random.Generator | None = None) -> Tensor:
        ctx_locs = np.asarray(ctx_locs)
        if ctx_locs.ndim != 2 or ctx_locs.shape[1] == 0:
            raise ValueError("context must be a non-empty [batch, length] array")
        length = ctx_locs.shape[1]
        e_l = self.loc_table.lookup(ctx_locs)
        e_t = self.time_emb.lookup(ctx_slots)
        x = dcg.concat([e_l, e_t], axis=-1)
        x_proj = self.in_proj(x)
        h = x_proj * np.sqrt(self.dim) + dcg.constant(positional_encoding(length, self.dim))
        mask = causal_mask(length)
        for layer in self.layers:
            h = layer(h, mask, rng)
        return dcg.concat([h, x_proj], axis=-1)

