"""First-order mobility Markov chain baseline.

Per-user transition counts over consecutive activity locations, with a
global transition table and global popularity as cold-start fallbacks.
Ranking is a total order: per-user count desc, then global count desc,
then ascending location id; states unseen everywhere rank by popularity.
That is the order of the score row u * (max(g) + 1) + g (popularity for an
unseen state) under the rule every scorer ranks by (model.target_ranks),
and rank_of_target computes the target's place in it from the state's
nonzero counts alone, so no row of the id space is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["TransitionModel", "fit_mmc", "rank_of_target"]


@dataclass
class TransitionModel:
    """Positive counts only: a location absent from a row counts 0."""

    n_locations: int
    per_user: dict[tuple[int, int], dict[int, int]] = field(default_factory=dict)
    global_counts: dict[int, dict[int, int]] = field(default_factory=dict)
    popularity: dict[int, int] = field(default_factory=dict)


def _rows(new: np.ndarray, key_of, dst: np.ndarray) -> dict:
    """{key: {dst: count}} of sorted columns whose runs of equal rows start
    where `new` is set; key_of(starts) gives each run's key."""
    starts = np.flatnonzero(new)
    counts = np.diff(np.append(starts, len(new))).tolist()
    rows: dict = {}
    for key, d, c in zip(key_of(starts), dst[starts].tolist(), counts):
        row = rows.get(key)
        if row is None:
            rows[key] = row = {}
        row[d] = c
    return rows


def fit_mmc(train_regions: dict[int, list[int]], n_locations: int) -> TransitionModel:
    """Count consecutive pairs inside each user's training subsequence:
    one sort of the (src, dst, user) triples gives both tables' runs, with
    no combined key (a product of ids could overflow int64)."""
    if not any(len(locs) for locs in train_regions.values()):
        raise ValueError("empty training set for the Markov baseline")
    lengths = np.array([len(locs) for locs in train_regions.values()], dtype=np.int64)
    locs = np.concatenate([np.asarray(v, dtype=np.int64) for v in train_regions.values()])
    users = np.repeat(np.fromiter(train_regions, dtype=np.int64, count=len(lengths)),
                      lengths)
    pair = users[1:] == users[:-1]  # two consecutive entries of one list
    user, src, dst = users[:-1][pair], locs[:-1][pair], locs[1:][pair]
    order = np.lexsort((user, dst, src))
    user, src, dst = user[order], src[order], dst[order]
    new_pair = np.ones(len(src), dtype=bool)
    new_pair[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
    new_state = new_pair.copy()
    new_state[1:] |= user[1:] != user[:-1]
    per_user = _rows(new_state, lambda i: zip(user[i].tolist(), src[i].tolist()), dst)
    global_counts = _rows(new_pair, lambda i: src[i].tolist(), dst)
    loc, count = np.unique(locs, return_counts=True)
    return TransitionModel(n_locations, per_user, global_counts,
                           dict(zip(loc.tolist(), count.tolist())))


def rank_of_target(model: TransitionModel, user: int, current_loc: int,
                   target: int) -> int:
    """1-indexed rank of the target under the rule every scorer ranks by
    (model.target_ranks): the locations ahead of it by (user count, global
    count) desc, then id asc, or by popularity for an unseen state. The
    zero-score locations ahead are those of smaller id outside the support."""
    u_row = model.per_user.get((user, current_loc)) or {}
    g_row = model.global_counts.get(current_loc) or {}
    if not u_row and not g_row:
        g_row = model.popularity
    u_t, g_t = u_row.get(target, 0), g_row.get(target, 0)
    if u_t:
        return 1 + sum(1 for loc, u in u_row.items()
                       if (u, g_row.get(loc, 0), target) > (u_t, g_t, loc))
    rank = 1 + len(u_row) + sum(1 for loc, g in g_row.items()
                                if (g, target) > (g_t, loc) and loc not in u_row)
    if not g_t:
        rank += target - sum(1 for loc in u_row.keys() | g_row.keys() if loc < target)
    return rank
