"""Helpers shared between test modules."""

import json
import math
from collections import Counter

import numpy as np

from canoe.data import (ActivitySequence, Dataset, Split, WindowSample, Windows,
                        hour_slot)
from canoe.mmc import TransitionModel


def two_cluster_counts() -> np.ndarray:
    """Separable corpus: users 0-3 visit locations 0-1, users 4-7 visit 2-3."""
    counts = np.zeros((8, 4), dtype=np.int64)
    rng = np.random.default_rng(99)
    for u in range(4):
        counts[u, 0] = rng.integers(20, 40)
        counts[u, 1] = rng.integers(20, 40)
    for u in range(4, 8):
        counts[u, 2] = rng.integers(20, 40)
        counts[u, 3] = rng.integers(20, 40)
    return counts


# ---------------------------------------------------------------------------
# the Counter and dense-row forms, oracles of mmc.fit_mmc and
# mmc.rank_of_target

def fit_mmc_counters(train_regions, n_locations) -> TransitionModel:
    """fit_mmc's counts, one consecutive pair at a time into Counters."""
    model = TransitionModel(n_locations=n_locations, popularity=Counter())
    for user, locs in train_regions.items():
        for src, dst in zip(locs[:-1], locs[1:]):
            model.per_user.setdefault((user, src), Counter())[dst] += 1
            model.global_counts.setdefault(src, Counter())[dst] += 1
        model.popularity.update(locs)
    return model


def _dense(counts, n_locations: int) -> np.ndarray:
    row = np.zeros(n_locations, dtype=np.int64)
    for loc, c in (counts or {}).items():
        row[loc] = c
    return row


def dense_scores(model: TransitionModel, user: int, current_loc: int) -> np.ndarray:
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


def rank_locations(model: TransitionModel, user: int, current_loc: int) -> list[int]:
    """All candidate locations, best first: a sort of dense_scores, the
    oracle mmc.rank_of_target is tested against."""
    scores = dense_scores(model, user, current_loc)
    return np.lexsort((np.arange(scores.size), -scores)).tolist()


# ---------------------------------------------------------------------------
# the per-user counting loop, the oracle of training.sample_entropies

def entropy_of_counts(counts, n: int) -> float:
    """prefix_entropy of a prefix of n items with these per-location counts,
    summed in the given order."""
    m = len(counts)
    if m == 1:
        return 0.0
    h = 0.0
    for c in counts:
        p = c / n
        h -= p * math.log(p)
    return min(h / math.log(m), 1.0)


def sample_entropies_loop(dataset, samples) -> np.ndarray:
    """sample_entropies with one pass over each user's locations, counts in
    a dict in first-seen order, as Counter keeps them."""
    out = np.empty(len(samples))
    by_user = {}
    for i, user in enumerate(samples.users.tolist()):
        by_user.setdefault(user, []).append(i)
    seq_pos = samples.seq_pos.tolist()
    for user, rows in by_user.items():
        locations = dataset.sequences[user].locations.tolist()
        counts = {}
        n = 0
        for i in sorted(rows, key=seq_pos.__getitem__):
            pos = seq_pos[i]
            for loc in locations[n:pos]:
                counts[loc] = counts.get(loc, 0) + 1
            n = pos
            out[i] = entropy_of_counts(counts.values(), n)
    return out


# ---------------------------------------------------------------------------
# the np.add.at and per-visit forms, oracles of topics.fit_lda and
# topics.build_cooccurrence

def fit_lda_add_at(counts, n_topics, alpha, beta, iters, seed):
    """fit_lda's (theta, phi) with its expected counts summed by np.add.at
    and its gamma update built from temporaries."""
    n_users, n_locations = counts.shape
    users, locs = np.nonzero(counts)
    c = counts[users, locs].astype(np.float64)[:, None]
    gamma = np.random.default_rng(seed).random((users.shape[0], n_topics))
    gamma /= gamma.sum(axis=1, keepdims=True)

    def expected_counts(gamma):
        weighted = c * gamma
        n_uk = np.zeros((n_users, n_topics))
        n_lk = np.zeros((n_locations, n_topics))
        np.add.at(n_uk, users, weighted)
        np.add.at(n_lk, locs, weighted)
        return n_uk, n_lk, weighted.sum(axis=0)

    for _ in range(iters):
        n_uk, n_lk, n_k = expected_counts(gamma)
        gamma = ((n_uk[users] - gamma + alpha) * (n_lk[locs] - gamma + beta)
                 / (n_k - gamma + n_locations * beta))
        gamma /= gamma.sum(axis=1, keepdims=True)

    n_uk, n_lk, n_k = expected_counts(gamma)
    theta = (n_uk + alpha) / (n_uk.sum(axis=1, keepdims=True) + n_topics * alpha)
    phi = (n_lk.T + beta) / (n_k[:, None] + n_locations * beta)
    return theta, phi


def build_cooccurrence_loop(location_lists, n_locations):
    """The visit-count matrix, one visit at a time."""
    counts = np.zeros((len(location_lists), n_locations), dtype=np.int64)
    for u, locs in enumerate(location_lists):
        for l in locs:
            counts[u, l] += 1
    return counts


def graph_nodes(root):
    """The operation nodes (not parameters) backward visits from root."""
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if node.requires_grad and id(node) not in seen:
            seen.add(id(node))
            if node._op != "leaf":
                yield node
            stack.extend(node._parents)


# ---------------------------------------------------------------------------
# the record-by-record preprocessing, the oracle of data.prepare_dataset

def extract_activity_sequence(checkins, theta=3600):
    """Collapse consecutive same-location runs; keep runs dwelling >= theta.

    A kept run is represented by its location and the hour slot of its first
    timestamp. Input must be one user's check-ins sorted by time. Returns an
    ActivitySequence of lists.
    """
    if not checkins:
        raise ValueError("cannot extract an activity sequence from no check-ins")
    user, run_loc, run_start = checkins[0]
    run_end = prev_t = run_start
    locations, slots = [], []

    def close_run():
        if run_end - run_start >= theta:
            locations.append(run_loc)
            slots.append(hour_slot(run_start))

    # the first check-in extends its own run by nothing
    for c_user, loc, t in checkins:
        if c_user != user:
            raise ValueError("check-ins from multiple users passed to extraction")
        if t < prev_t:
            raise ValueError("check-ins must be sorted by timestamp")
        prev_t = t
        if loc == run_loc:
            run_end = t
        else:
            close_run()
            run_loc, run_start, run_end = loc, t, t
    close_run()
    return ActivitySequence(user=user, locations=locations, slots=slots)


def make_windows(seq, window_len=20, stride=1):
    """Fixed-length windows as WindowSample rows: first window_len-1 records
    are context, the last is the target. Sequences shorter than window_len
    yield nothing."""
    if window_len < 2:
        raise ValueError(f"window_len must be >= 2, got {window_len}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    locations, slots, user = tuple(seq.locations), tuple(seq.slots), seq.user
    return [WindowSample(user, locations[end + 1 - window_len:end],
                         slots[end + 1 - window_len:end],
                         locations[end], slots[end], end)
            for end in range(window_len - 1, len(locations), stride)]


def split_samples(samples_by_user):
    """Chronological 7:1:2 per-user split of lists of WindowSample; train/val
    sizes floor, remainder to test."""
    split = Split([], [], [])
    for user in sorted(samples_by_user):
        samples = samples_by_user[user]
        n = len(samples)
        n_train, n_val = n * 7 // 10, n // 10
        split.train.extend(samples[:n_train])
        split.val.extend(samples[n_train:n_train + n_val])
        split.test.extend(samples[n_train + n_val:])
    return split


def oracle_dataset(checkins, theta=3600, window_len=20, stride=1,
                   min_records=100):
    """prepare_dataset record by record over (user, loc, t) rows: sequences
    of lists and a Split of WindowSample lists."""
    rows, by_user = np.asarray(checkins).tolist(), {}
    for c in rows:
        by_user.setdefault(c[0], []).append(c)
    sequences, samples_by_user = {}, {}
    for user in sorted(by_user):
        seq = extract_activity_sequence(sorted(by_user[user], key=lambda c: c[2]),
                                        theta=theta)
        if len(seq) >= min_records:
            sequences[user] = seq
            samples_by_user[user] = make_windows(seq, window_len, stride)
    return Dataset(sequences, split_samples(samples_by_user),
                   n_users=max(0, max(by_user)) + 1,
                   n_locations=max(0, max(c[1] for c in rows)) + 1)


def as_windows(samples):
    """A Windows of WindowSample rows with equal context lengths, each row
    cut from its own copy of its records."""
    context_len = len(samples[0].context_locations) if samples else 0
    locations = [x for s in samples for x in s.context_locations + (s.target_location,)]
    slots = [x for s in samples for x in s.context_slots + (s.target_slot,)]
    return Windows(np.array([s.user for s in samples], dtype=np.int64),
                   np.array([s.seq_pos for s in samples], dtype=np.int64),
                   np.arange(len(samples), dtype=np.int64) * (context_len + 1)
                   + context_len,
                   np.array(locations, dtype=np.int64),
                   np.array(slots, dtype=np.int64), context_len)


# ---------------------------------------------------------------------------
# the sorted() and json.dumps writer, the oracle of data.write_checkins

def write_checkins_sorted(path, checkins) -> None:
    """write_checkins' file record by record: the (user, loc, t) rows sorted
    by sorted() on a (user, t) key, each written by json.dumps."""
    ordered = sorted(np.asarray(checkins).tolist(), key=lambda c: (c[0], c[2]))
    path.write_text("".join(
        json.dumps({"user": u, "loc": l, "t": t}, separators=(",", ":")) + "\n"
        for u, l, t in ordered), encoding="utf-8")
