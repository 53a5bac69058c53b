"""Synthetic returner/explorer trajectory generator.

Each user gets a small set of anchor locations and a daily schedule of
active hour slots (circular spacing >= 2 so visits never collide). The
j-th scheduled slot always maps to anchor j mod A, so with p_explore = 0
the day is a deterministic anchor cycle; with probability p_explore a
visit is redirected to a uniformly random non-anchor location. Every visit
emits two check-ins spanning the dwell threshold so it survives extraction.
Generation is sharded per user with RNG substreams derived from
(seed, user id).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import N_SLOTS, SECONDS_PER_DAY, SECONDS_PER_HOUR, VALUE_BOUND

__all__ = ["SyntheticConfig", "generate_synthetic"]

_MIN_GAP = 2  # least circular spacing of a user's daily slots


@dataclass
class SyntheticConfig:
    seed: int
    num_users: int = 200
    num_locations: int = 50
    days: int = 30
    p_explore: float = 0.0
    returner_anchor_count: int = 3
    activities_per_day: int = 6
    dwell_seconds: int = 3600

    def __post_init__(self):
        if not (0.0 <= self.p_explore <= 1.0):
            raise ValueError(f"p_explore must lie in [0, 1], got {self.p_explore}")
        if self.num_locations < self.returner_anchor_count + 1:
            raise ValueError(
                "num_locations must exceed returner_anchor_count "
                f"({self.num_locations} <= {self.returner_anchor_count})")
        if not (1 <= self.activities_per_day <= 12):
            raise ValueError(
                f"activities_per_day must lie in [1, 12], got {self.activities_per_day}")
        for name in ("num_users", "num_locations", "days",
                     "returner_anchor_count", "dwell_seconds"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if (end := self.days * SECONDS_PER_DAY + self.dwell_seconds) > VALUE_BOUND:
            raise ValueError(f"days * {SECONDS_PER_DAY} + dwell_seconds must be "
                             f"<= {VALUE_BOUND}, got {end}")


def _spaced_slots(rng: np.random.Generator, count: int) -> np.ndarray:
    """count sorted slots with circular pairwise spacing >= _MIN_GAP."""
    extra = N_SLOTS - _MIN_GAP * count
    gaps = np.full(count, _MIN_GAP, dtype=np.int64)
    if extra > 0:
        gaps += np.bincount(rng.integers(0, count, size=extra), minlength=count)
    start = int(rng.integers(0, N_SLOTS))
    positions = (start + np.concatenate(([0], np.cumsum(gaps[:-1])))) % N_SLOTS
    return np.sort(positions)


def generate_synthetic(cfg: SyntheticConfig) -> np.ndarray:
    """The check-ins as an [N, 3] int64 array of (user, loc, t) rows: user
    by user, day by day, each visit's arrival and then its departure."""
    locs = np.empty((cfg.num_users, cfg.days, cfg.activities_per_day), dtype=np.int64)
    slots = np.empty((cfg.num_users, cfg.activities_per_day), dtype=np.int64)
    for user in range(cfg.num_users):
        rng = np.random.default_rng([cfg.seed, user])
        anchors = rng.choice(cfg.num_locations, size=cfg.returner_anchor_count,
                             replace=False)
        non_anchors = np.setdiff1d(np.arange(cfg.num_locations), anchors)
        slots[user] = _spaced_slots(rng, cfg.activities_per_day)
        locs[user] = anchors[np.arange(cfg.activities_per_day) % cfg.returner_anchor_count]
        for day, j in np.ndindex(locs.shape[1:]):
            if rng.random() < cfg.p_explore:
                locs[user, day, j] = non_anchors[rng.integers(0, len(non_anchors))]
    t = (np.arange(cfg.days)[:, None, None] * SECONDS_PER_DAY
         + slots[:, None, :, None] * SECONDS_PER_HOUR + (0, cfg.dwell_seconds))
    user = np.arange(cfg.num_users)[:, None, None, None]
    return np.stack(np.broadcast_arrays(user, locs[..., None], t), axis=-1).reshape(-1, 3)
