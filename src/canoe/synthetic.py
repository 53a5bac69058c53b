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

from .data import N_SLOTS, SECONDS_PER_DAY, SECONDS_PER_HOUR, CheckIn

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
                raise ValueError(f"{name} must be >= 1")


def _spaced_slots(rng: np.random.Generator, count: int) -> np.ndarray:
    """count sorted slots with circular pairwise spacing >= _MIN_GAP."""
    extra = N_SLOTS - _MIN_GAP * count
    gaps = np.full(count, _MIN_GAP, dtype=np.int64)
    if extra > 0:
        gaps += np.bincount(rng.integers(0, count, size=extra), minlength=count)
    start = int(rng.integers(0, N_SLOTS))
    positions = (start + np.concatenate(([0], np.cumsum(gaps[:-1])))) % N_SLOTS
    return np.sort(positions)


def generate_synthetic(cfg: SyntheticConfig) -> list[CheckIn]:
    checkins: list[CheckIn] = []
    all_locations = np.arange(cfg.num_locations)
    for user in range(cfg.num_users):
        rng = np.random.default_rng([cfg.seed, user])
        anchors = rng.choice(cfg.num_locations, size=cfg.returner_anchor_count,
                             replace=False)
        non_anchors = np.setdiff1d(all_locations, anchors)
        slots = _spaced_slots(rng, cfg.activities_per_day)
        for day in range(cfg.days):
            for j, slot in enumerate(slots):
                loc = int(anchors[j % cfg.returner_anchor_count])
                if rng.random() < cfg.p_explore:
                    loc = int(non_anchors[rng.integers(0, len(non_anchors))])
                t0 = day * SECONDS_PER_DAY + int(slot) * SECONDS_PER_HOUR
                checkins.append(CheckIn(user=user, loc=loc, t=t0))
                checkins.append(CheckIn(user=user, loc=loc,
                                        t=t0 + cfg.dwell_seconds))
    return checkins
