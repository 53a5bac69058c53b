"""First-order mobility Markov chain baseline.

Per-user transition counts over consecutive activity locations, with a
global transition table and global popularity as cold-start fallbacks.
Ranking is a total order: per-user count desc, then global count desc,
then ascending location id; states unseen everywhere rank by popularity.
Both orders are one score row, ranked by model.target_ranks like CANOE's
probabilities.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .model import target_ranks

__all__ = ["TransitionModel", "fit_mmc", "rank_of_target"]


@dataclass
class TransitionModel:
    n_locations: int
    per_user: dict[tuple[int, int], Counter] = field(default_factory=dict)
    global_counts: dict[int, Counter] = field(default_factory=dict)
    popularity: Counter = field(default_factory=Counter)


def fit_mmc(train_regions: dict[int, list[int]], n_locations: int) -> TransitionModel:
    """Count consecutive pairs inside each user's training subsequence."""
    if not any(train_regions.values()):
        raise ValueError("empty training set for the Markov baseline")
    model = TransitionModel(n_locations=n_locations)
    for user, locs in train_regions.items():
        for src, dst in zip(locs[:-1], locs[1:]):
            model.per_user.setdefault((user, src), Counter())[dst] += 1
            model.global_counts.setdefault(src, Counter())[dst] += 1
        model.popularity.update(locs)
    return model


def _dense(counts: Counter | None, n_locations: int) -> np.ndarray:
    row = np.zeros(n_locations, dtype=np.int64)
    for loc, c in (counts or {}).items():
        row[loc] = c
    return row


def _scores(model: TransitionModel, user: int, current_loc: int) -> np.ndarray:
    """One int64 score per location, the best highest. For per-user and
    global transition counts u and g out of the current state it is
    u * (max(g) + 1) + g, which orders locations as the pair (u, g) does
    since 0 <= g <= max(g); for a state never observed anywhere it is the
    popularity counts."""
    u_row = model.per_user.get((user, current_loc))
    g_row = model.global_counts.get(current_loc)
    if not u_row and not g_row:
        return _dense(model.popularity, model.n_locations)
    u = _dense(u_row, model.n_locations)
    g = _dense(g_row, model.n_locations)
    return u * (g.max() + 1) + g


def rank_of_target(model: TransitionModel, user: int, current_loc: int,
                   target: int) -> int:
    """1-indexed rank of the target under the rule every scorer ranks by
    (model.target_ranks)."""
    return int(target_ranks(_scores(model, user, current_loc), target))
