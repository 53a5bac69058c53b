"""Full next-location model: embeddings, the three tri-pair branches,
decoder, losses.

All forward paths are batched (leading batch axis); parameters live in one
registry so the optimizer and gradient checker see everything. The topic
matrix is a frozen input fitted upstream, never gradient-trained.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from . import dcg
from .config import ModelSection
from .data import N_SLOTS, WindowSample
from .decoder import CrossContextDecoder, LossWeights
from .dcg import ParamRegistry, Tensor
from .dcg.tensor import _softmax
from .embeddings import EmbeddingTable, SmoothedTimeEmbedding
from .encoder import LocationTimePair, TimeUserPair
from .topics import UserLocationHead

__all__ = ["N_SLOTS", "Batch", "CanoeModel", "batch_from_samples",
           "target_ranks"]


@dataclass
class Batch:
    users: np.ndarray          # [B]
    ctx_locs: np.ndarray       # [B, T]
    ctx_slots: np.ndarray      # [B, T]
    target_locs: np.ndarray    # [B]
    target_slots: np.ndarray   # [B]


def batch_from_samples(samples: list[WindowSample]) -> Batch:
    return Batch(
        users=np.array([s.user for s in samples], dtype=np.int64),
        ctx_locs=np.array([s.context_locations for s in samples], dtype=np.int64),
        ctx_slots=np.array([s.context_slots for s in samples], dtype=np.int64),
        target_locs=np.array([s.target_location for s in samples], dtype=np.int64),
        target_slots=np.array([s.target_slot for s in samples], dtype=np.int64),
    )


class CanoeModel:
    """Assembles the model from the config's model section. The topic count
    is the column count of the frozen topic matrix."""

    def __init__(self, cfg: ModelSection, n_users: int, n_locations: int,
                 topic_theta: np.ndarray, seed: int = 0):
        if topic_theta.ndim != 2 or topic_theta.shape[0] != n_users:
            raise ValueError(
                f"topic matrix shape {topic_theta.shape} does not have "
                f"{n_users} user rows")
        self.n_users = n_users
        self.n_locations = n_locations
        self.topic_theta = np.asarray(topic_theta, dtype=np.float64)
        self.registry = ParamRegistry()
        rng = np.random.default_rng([seed, 202])
        d = cfg.dim
        osc = cfg.oscillator_params() if cfg.attention == "cnoa" else None  # None: cross

        self.time_emb = SmoothedTimeEmbedding(
            self.registry, rng, n_slots=N_SLOTS, dim=d, sigma=cfg.sigma)
        self.user_table = EmbeddingTable(self.registry, rng, n_users, d,
                                         "user_table")
        self.loc_table = EmbeddingTable(self.registry, rng, n_locations, d,
                                        "loc_table")
        self.ul_head = UserLocationHead(self.registry, rng,
                                        topic_theta.shape[1], d)
        self.time_user = TimeUserPair(self.registry, rng, self.user_table,
                                      self.time_emb, d, cfg.attn_heads, osc)
        self.loc_time = LocationTimePair(
            self.registry, rng, self.loc_table, self.time_emb, d,
            cfg.enc_layers, cfg.enc_heads, cfg.enc_dropout, cfg.ff_width())
        self.decoder = CrossContextDecoder(
            self.registry, rng, d, n_locations, N_SLOTS, cfg.attn_heads,
            osc, query_source=cfg.decoder_query)

    def reset_states(self) -> None:
        self.time_user.attn.reset_state()
        self.decoder.attn.reset_state()

    def forward_batch(self, batch: Batch,
                      rng: np.random.Generator | None = None,
                      location_grad: bool = True) -> tuple[Tensor, Tensor, Tensor]:
        """Returns (location logits, time logits, auxiliary logits). Given
        the dropout generator rng, it is a training forward: it drops and
        updates both attention states. With location_grad False only the
        time logits carry a graph: the location path (user-location head,
        location-time transformer, decoder fusion, location and auxiliary
        heads) runs without one."""
        update_state = rng is not None
        # The decoding step's "current hour" is the most recent known slot.
        o_ut = self.time_user(batch.users, batch.ctx_slots[:, -1],
                              update_state=update_state)
        with contextlib.nullcontext() if location_grad else dcg.no_grad():
            o_us = self.ul_head(dcg.constant(self.topic_theta[batch.users]))
            o_st = self.loc_time(batch.ctx_locs, batch.ctx_slots, rng=rng)
            e_u = self.user_table.lookup(batch.users)
            y_hat, fused_in = self.decoder(o_us, o_ut, o_st, e_u,
                                           update_state=update_state)
            loc_logits = self.decoder.location_logits(y_hat)
            aux_logits = self.decoder.aux_logits(fused_in)
        return loc_logits, self.decoder.time_logits(o_ut), aux_logits

    def loss_batch(self, batch: Batch, weights: LossWeights,
                   rng: np.random.Generator | None = None) -> tuple[Tensor, dict[str, float]]:
        """Weighted three-term objective plus unweighted component values.

        With zero location and auxiliary weights (the warmup phase) the
        graph holds the time branch only. The location path runs without
        one, so the two zero-weighted terms still have their values, and
        every parameter outside the time branch gets an exact-zero gradient,
        which is what the full graph gives it."""
        time_only = weights.loc == 0.0 and weights.aux == 0.0
        loc_logits, time_logits, aux_logits = self.forward_batch(
            batch, rng=rng, location_grad=not time_only)
        loss_loc = dcg.cross_entropy(loc_logits, batch.target_locs)
        loss_time = dcg.cross_entropy(time_logits, batch.target_slots)
        loss_aux = dcg.cross_entropy(aux_logits, batch.target_locs)
        total = (loss_loc * weights.loc + loss_time * weights.time
                 + loss_aux * weights.aux)
        parts = {"loc": loss_loc.item(), "time": loss_time.item(),
                 "aux": loss_aux.item(), "total": total.item()}
        if time_only:
            total = dcg.zero_fill(total, (p for _, p in self.registry.items()))
        return total, parts

    def location_probs(self, batch: Batch) -> np.ndarray:
        with dcg.no_grad():
            loc_logits, _, _ = self.forward_batch(batch)
        return _softmax(loc_logits.data, -1)

    def rank_targets(self, batch: Batch) -> np.ndarray:
        """1-indexed rank of each target by location probability."""
        return target_ranks(self.location_probs(batch), batch.target_locs)


def target_ranks(scores: np.ndarray, targets) -> np.ndarray:
    """The rank rule of every scorer: the 1-indexed rank of each target
    location in its row of scores (last axis indexed by location id), higher
    scores first and equal scores by ascending location id. One row and a
    scalar target give a 0-d array."""
    targets = np.asarray(targets)[..., None]
    target_s = np.take_along_axis(scores, targets, -1)
    ids = np.arange(scores.shape[-1])
    better = (scores > target_s).sum(axis=-1)
    tied_smaller = ((scores == target_s) & (ids < targets)).sum(axis=-1)
    return (better + tied_smaller + 1).astype(np.int64)
