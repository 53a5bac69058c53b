"""Markov baseline: counting oracle, ranking total order, fallbacks."""

from collections import Counter

import numpy as np
import pytest

from canoe.mmc import TransitionModel, _scores, fit_mmc, rank_of_target
from tests_common import rank_locations


def brute_force_pair_counts(locs):
    """Independent pair-counting oracle."""
    counts = Counter()
    for a, b in zip(locs[:-1], locs[1:]):
        counts[(a, b)] += 1
    return counts


class TestFitMmc:
    def test_alternating_sequence(self):
        model = fit_mmc({0: [0, 1, 0, 1]}, n_locations=2)
        row_a = model.per_user[(0, 0)]
        row_b = model.per_user[(0, 1)]
        assert row_a == {1: 2} and row_b == {0: 1}
        # normalized: P(1|0) = 1 and P(0|1) = 1
        assert row_a[1] / sum(row_a.values()) == 1.0

    def test_self_loop_counts(self):
        model = fit_mmc({0: [0, 0, 1]}, n_locations=2)
        row = model.per_user[(0, 0)]
        assert row == {0: 1, 1: 1}  # P(0|0) = P(1|0) = 1/2

    def test_matches_brute_force_on_random_sequences(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            locs = list(rng.integers(0, 6, size=rng.integers(2, 40)))
            model = fit_mmc({0: locs}, n_locations=6)
            oracle = brute_force_pair_counts(locs)
            got = Counter()
            for (u, src), row in model.per_user.items():
                for dst, c in row.items():
                    got[(src, dst)] += c
            assert got == oracle

    def test_global_counts_aggregate_users(self):
        model = fit_mmc({0: [0, 1], 1: [0, 1, 0, 1]}, n_locations=2)
        assert model.global_counts[0] == {1: 3}

    def test_empty_training_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fit_mmc({0: []}, n_locations=3)


class TestRanking:
    def test_user_counts_dominate(self):
        model = fit_mmc({0: [5, 1, 5, 1, 5, 2]}, n_locations=6)
        ranking = rank_locations(model, 0, 5)
        assert ranking[:2] == [1, 2]

    def test_global_fallback_for_unseen_user_state(self):
        model = fit_mmc({0: [0, 3, 0, 3], 1: [2, 0]}, n_locations=5)
        # user 1 never left location 3; global row for 3 says 3 -> 0
        ranking = rank_locations(model, 1, 3)
        assert ranking[0] == 0

    def test_popularity_fallback_for_fully_unseen_state(self):
        model = fit_mmc({0: [1, 2, 1, 2, 1]}, n_locations=5)
        ranking = rank_locations(model, 0, 4)  # state 4 never observed
        assert ranking[0] == 1  # most popular overall

    def test_tie_break_total_order_insertion_invariant(self):
        a = fit_mmc({0: [0, 1, 0, 2], 1: [3, 4]}, n_locations=6)
        b = fit_mmc({1: [3, 4], 0: [0, 2, 0, 1]}, n_locations=6)
        # same pair multiset from location 0 (1 and 2 once each): id tie-break
        assert rank_locations(a, 0, 0) == rank_locations(b, 0, 0)

    def test_ranking_is_total_order(self):
        rng = np.random.default_rng(5)
        model = fit_mmc(
            {u: list(rng.integers(0, 8, 30)) for u in range(3)},
            n_locations=8)
        for u in range(3):
            for cur in range(8):
                ranking = rank_locations(model, u, cur)
                assert sorted(ranking) == list(range(8))

    @staticmethod
    def assert_scores_order_as_counts(model, users):
        """Sorting by the score row, ties by id, gives the baseline's order:
        (-user count, -global count, id), or by popularity for a state never
        observed. Returns the number of such popularity states."""
        n_locs = model.n_locations
        fallbacks = 0
        for u in users:
            for cur in range(n_locs):
                u_row = model.per_user.get((u, cur), Counter())
                g_row = model.global_counts.get(cur, Counter())
                if u_row or g_row:
                    key = lambda i: (-u_row[i], -g_row[i], i)
                else:
                    key = lambda i: (-model.popularity[i], i)
                    fallbacks += 1
                scores = _scores(model, u, cur)
                by_score = sorted(range(n_locs), key=lambda i: (-scores[i], i))
                assert by_score == sorted(range(n_locs), key=key)
        return fallbacks

    def test_scores_order_as_counts_on_fits(self):
        rng = np.random.default_rng(8)
        fallbacks = 0
        for _ in range(60):
            n_locs = int(rng.integers(2, 9))
            # the last location is never visited, so its state falls back
            model = fit_mmc({u: list(rng.integers(0, n_locs - 1,
                                                  rng.integers(2, 20)))
                             for u in range(3)}, n_locations=n_locs)
            fallbacks += self.assert_scores_order_as_counts(model, range(3))
        assert fallbacks > 0

    def test_scores_order_as_counts_for_any_counts(self):
        """A fit's global counts include the user's, so a user count never
        exceeds its global count there; the order holds without that."""
        rng = np.random.default_rng(9)
        for _ in range(60):
            n_locs = int(rng.integers(2, 7))

            def counts():
                return Counter({i: int(c) for i, c in
                                enumerate(rng.integers(0, 4, n_locs)) if c})

            model = TransitionModel(n_locations=n_locs, popularity=counts())
            for cur in range(n_locs):
                model.per_user[(0, cur)] = counts()
                model.global_counts[cur] = counts()
            self.assert_scores_order_as_counts(model, [0])

    def test_rank_of_target_consistent_with_rank_locations(self):
        rng = np.random.default_rng(6)
        model = fit_mmc(
            {u: list(rng.integers(0, 7, 25)) for u in range(3)},
            n_locations=7)
        for u in range(3):
            for cur in range(7):
                ranking = rank_locations(model, u, cur)
                for target in range(7):
                    assert (rank_of_target(model, u, cur, target)
                            == ranking.index(target) + 1)


def test_perfect_accuracy_on_deterministic_cycles():
    # Each anchor has a unique successor: the chain predicts perfectly.
    from canoe.data import prepare_dataset, train_location_region
    from canoe.synthetic import SyntheticConfig, generate_synthetic

    cfg = SyntheticConfig(seed=13, num_users=8, num_locations=20, days=10,
                          activities_per_day=6, returner_anchor_count=3)
    ds = prepare_dataset(generate_synthetic(cfg), window_len=10, min_records=1)
    region = train_location_region(ds.sequences, ds.split)
    model = fit_mmc(region, ds.n_locations)
    ranks = [rank_of_target(model, s.user, s.context_locations[-1],
                            s.target_location)
             for s in ds.split.test]
    assert all(r == 1 for r in ranks)
