"""Markov baseline: counting oracle, ranking total order, fallbacks."""

import os
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import canoe
from canoe.mmc import TransitionModel, fit_mmc, rank_of_target
from canoe.model import target_ranks
from tests_common import dense_scores, fit_mmc_counters, rank_locations


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
        observed, and rank_of_target is each target's place in it. Returns
        the number of such popularity states."""
        n_locs = model.n_locations
        fallbacks = 0
        for u in users:
            for cur in range(n_locs):
                u_row = Counter(model.per_user.get((u, cur), {}))
                g_row = Counter(model.global_counts.get(cur, {}))
                if u_row or g_row:
                    key = lambda i: (-u_row[i], -g_row[i], i)
                else:
                    key = lambda i: (-model.popularity.get(i, 0), i)
                    fallbacks += 1
                scores = dense_scores(model, u, cur)
                by_score = sorted(range(n_locs), key=lambda i: (-scores[i], i))
                assert by_score == sorted(range(n_locs), key=key)
                assert [rank_of_target(model, u, cur, t) for t in by_score] \
                    == list(range(1, n_locs + 1))
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
        exceeds its global count there, and a user row's locations are in
        the global row; the order and the ranks hold without either."""
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


def random_regions(rng, n_users, n_locs, ids=None):
    """Per-user location lists over n_locs locations (ids[i] for location
    i when given), some empty or of one entry, users in any key order."""
    regions = {}
    for u in rng.permutation(n_users).tolist():
        locs = rng.integers(0, n_locs, rng.choice([0, 1, rng.integers(2, 40)]))
        regions[u] = [ids[i] for i in locs] if ids is not None else locs.tolist()
    return regions


class TestMatchesCounterForms:
    """fit_mmc and rank_of_target against the Counter fit and the dense
    score row they replaced (tests_common)."""

    def test_fit_counts_equal_the_counter_fit(self):
        rng = np.random.default_rng(21)
        sparse = [0, 7, 10 ** 11, 2 ** 62 - 1]
        for trial in range(80):
            ids = sparse if trial % 4 == 0 else None
            regions = random_regions(rng, int(rng.integers(1, 6)),
                                     len(sparse) if ids else int(rng.integers(1, 9)), ids)
            if not any(regions.values()):
                continue
            got = fit_mmc(regions, n_locations=2 ** 62)
            want = fit_mmc_counters(regions, n_locations=2 ** 62)
            assert got.per_user == want.per_user
            assert got.global_counts == want.global_counts
            assert got.popularity == want.popularity

    def test_ranks_equal_the_dense_score_rows(self):
        rng = np.random.default_rng(22)
        seen = Counter()
        for _ in range(60):
            n_locs = int(rng.integers(2, 10))
            n_users = int(rng.integers(1, 5))
            # the last location is never visited: its state is unseen
            # everywhere and ranks by popularity
            regions = random_regions(rng, n_users, n_locs - 1)
            if not any(regions.values()):
                continue
            model = fit_mmc(regions, n_locs)
            for u in range(n_users + 1):  # the last user has no region
                for cur in range(n_locs):
                    scores = dense_scores(model, u, cur)
                    want = [int(target_ranks(scores, t)) for t in range(n_locs)]
                    got = [rank_of_target(model, u, cur, t) for t in range(n_locs)]
                    assert got == want
                    if (u, cur) in model.per_user:
                        seen["user row"] += 1
                    elif cur in model.global_counts:
                        seen["global fallback"] += 1
                    else:
                        seen["popularity"] += 1
                    seen["score 0"] += int((scores == 0).sum())
                    seen["tie"] += len(scores) - len(np.unique(scores))
        assert min(seen.values()) > 0, seen


def test_sparse_id_space_runs_in_bounded_memory(tmp_path):
    """A location id near 1e11 sizes no array: fitting, ranking every test
    window, the prefix entropies and `canoe mmc` run under a 2 GiB address
    space, in a child process so that the cap binds nothing else."""
    script = textwrap.dedent(f"""
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
        import numpy as np
        from canoe.cli import main
        from canoe.data import prepare_dataset, train_location_region, write_checkins
        from canoe.mmc import fit_mmc, rank_of_target
        from canoe.synthetic import SyntheticConfig, generate_synthetic
        from canoe.training import sample_entropies

        big = 99_999_999_999
        checkins = generate_synthetic(SyntheticConfig(
            seed=4, num_users=6, num_locations=12, days=12, p_explore=0.3))
        # one stray check-in as in the reported file, and visits of user 0
        # to the big id that windows see as context and target
        t_end = int(checkins[:, 2].max())
        extra = [(0, big, 5)] + [(0, loc, t_end + 7200 * k) for k, loc in
                                 enumerate([big, 3, big, big, 5, big] * 4, 1)]
        checkins = np.concatenate([checkins, np.array(extra, dtype=np.int64)])
        ds = prepare_dataset(checkins, window_len=6, min_records=20)
        assert ds.n_locations == big + 1
        model = fit_mmc(train_location_region(ds.sequences, ds.split), ds.n_locations)
        test = ds.split.test
        context, _, targets, _ = test.gather()
        assert big in targets.tolist()
        ranks = [rank_of_target(model, u, c, t) for u, c, t in
                 zip(test.users.tolist(), context[:, -1].tolist(), targets.tolist())]
        assert min(ranks) >= 1 and max(ranks) <= ds.n_locations
        assert np.isfinite(sample_entropies(ds, test)).all()
        path = {str(tmp_path / "data.jsonl")!r}
        write_checkins(path, checkins)
        assert main(["mmc", "--data", path, "--set", "data.window_len=6",
                     "--set", "data.min_records=20",
                     "--report", {str(tmp_path / "mmc")!r}]) == 0
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(canoe.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, env=env)
    assert done.returncode == 0, done.stderr
