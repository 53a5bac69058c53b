"""CVB0 LDA: separability, normalization, determinism, one-sweep oracle;
preference head."""

import numpy as np
import pytest

from canoe import dcg
from canoe.dcg import ParamRegistry, grad_check
from canoe.topics import UserLocationHead, build_cooccurrence, fit_lda


def two_cluster_corpus() -> np.ndarray:
    """Users 0-3 visit only locations 0-1; users 4-7 only locations 2-3."""
    counts = np.zeros((8, 4), dtype=np.int64)
    rng = np.random.default_rng(99)
    for u in range(4):
        counts[u, 0] = rng.integers(20, 40)
        counts[u, 1] = rng.integers(20, 40)
    for u in range(4, 8):
        counts[u, 2] = rng.integers(20, 40)
        counts[u, 3] = rng.integers(20, 40)
    return counts


class TestFitLda:
    def test_two_cluster_separation_across_seeds(self):
        counts = two_cluster_corpus()
        for seed in (1, 2, 3):
            model = fit_lda(counts, n_topics=2, iters=200, seed=seed)
            groups = model.theta.argmax(axis=1)
            assert len(set(groups[:4])) == 1
            assert len(set(groups[4:])) == 1
            assert groups[0] != groups[4]

    def test_theta_phi_row_stochastic(self):
        model = fit_lda(two_cluster_corpus(), n_topics=3, iters=50, seed=0)
        np.testing.assert_allclose(model.theta.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(model.phi.sum(axis=1), 1.0, atol=1e-9)
        assert (model.theta >= 0).all() and (model.phi >= 0).all()

    def test_single_user_single_location_normalizes(self):
        counts = np.array([[5]], dtype=np.int64)
        model = fit_lda(counts, n_topics=3, iters=20, seed=0)
        np.testing.assert_allclose(model.theta.sum(axis=1), 1.0, atol=1e-12)

    def test_zero_visit_user_gets_uniform_prior_posterior(self):
        counts = two_cluster_corpus()
        counts = np.vstack([counts, np.zeros((1, 4), dtype=np.int64)])
        model = fit_lda(counts, n_topics=4, iters=30, seed=0)
        np.testing.assert_allclose(model.user_topics(8), 0.25, rtol=1e-12)

    def test_bitwise_reproducibility(self):
        counts = two_cluster_corpus()
        a = fit_lda(counts, n_topics=3, iters=100, seed=42)
        b = fit_lda(counts, n_topics=3, iters=100, seed=42)
        np.testing.assert_array_equal(a.theta, b.theta)
        np.testing.assert_array_equal(a.phi, b.phi)

    def test_seed_changes_assignments(self):
        counts = two_cluster_corpus()
        a = fit_lda(counts, n_topics=3, iters=50, seed=1)
        b = fit_lda(counts, n_topics=3, iters=50, seed=2)
        assert not np.array_equal(a.theta, b.theta)

    def test_one_sweep_matches_hand_written_cvb0(self):
        counts = np.array([[3, 1], [0, 2]], dtype=np.int64)
        k, alpha, beta, seed = 3, 0.4, 0.05, 7
        model = fit_lda(counts, n_topics=k, alpha=alpha, beta=beta,
                        iters=1, seed=seed)
        entries = [(0, 0), (0, 1), (1, 1)]  # nonzeros in row-major order
        init = np.random.default_rng(seed).random((len(entries), k))
        init /= init.sum(axis=1, keepdims=True)

        def expected(gamma):
            n_uk, n_lk = np.zeros((2, k)), np.zeros((2, k))
            for (u, l), g in zip(entries, gamma):
                n_uk[u] += counts[u, l] * g
                n_lk[l] += counts[u, l] * g
            return n_uk, n_lk, n_lk.sum(axis=0)

        n_uk, n_lk, n_k = expected(init)
        gamma = np.empty_like(init)
        for j, (u, l) in enumerate(entries):
            g = init[j]  # one token's share leaves the counts, not c * g
            p = ((n_uk[u] - g + alpha) * (n_lk[l] - g + beta)
                 / (n_k - g + 2 * beta))
            gamma[j] = p / p.sum()
        n_uk, n_lk, n_k = expected(gamma)
        theta = (n_uk + alpha) / (n_uk.sum(axis=1, keepdims=True) + k * alpha)
        phi = (n_lk.T + beta) / (n_k[:, None] + 2 * beta)
        np.testing.assert_allclose(model.theta, theta, rtol=0, atol=1e-12)
        np.testing.assert_allclose(model.phi, phi, rtol=0, atol=1e-12)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fit_lda(np.zeros((3, 3), dtype=np.int64), n_topics=2)

    def test_n_topics_floor(self):
        with pytest.raises(ValueError, match="n_topics"):
            fit_lda(two_cluster_corpus(), n_topics=1)

    def test_unknown_user_rejected(self):
        model = fit_lda(two_cluster_corpus(), n_topics=2, iters=10, seed=0)
        with pytest.raises(IndexError):
            model.user_topics(100)

    def test_default_alpha_is_symmetric_50_over_t(self):
        model = fit_lda(two_cluster_corpus(), n_topics=5, iters=10, seed=0)
        assert model.alpha == pytest.approx(50.0 / 5)


class TestBuildCooccurrence:
    def test_counts_match_visit_lists(self):
        counts = build_cooccurrence([[0, 0, 2], [1], []], 3)
        np.testing.assert_array_equal(counts, [[2, 0, 1], [0, 1, 0], [0, 0, 0]])

    def test_row_sums_equal_record_counts(self, rng):
        lists = [list(rng.integers(0, 7, size=rng.integers(0, 30)))
                 for _ in range(5)]
        counts = build_cooccurrence(lists, 7)
        for u, locs in enumerate(lists):
            assert counts[u].sum() == len(locs)


class TestUserLocationHead:
    def test_zero_weights_give_zero_output(self, rng):
        reg = ParamRegistry()
        head = UserLocationHead(reg, rng, n_topics=5, dim=4)
        for name in ("ul_head.w1", "ul_head.b1", "ul_head.w2", "ul_head.b2"):
            reg[name].data[...] = 0.0
        out = head(dcg.constant(np.full((2, 5), 0.2)))
        np.testing.assert_array_equal(out.data, np.zeros((2, 4)))

    def test_identity_like_composition(self, rng):
        reg = ParamRegistry()
        head = UserLocationHead(reg, rng, n_topics=4, dim=4)
        reg["ul_head.w1"].data[...] = np.eye(4)
        reg["ul_head.b1"].data[...] = 0.0
        reg["ul_head.w2"].data[...] = np.eye(4)
        reg["ul_head.b2"].data[...] = 0.0
        c = np.array([[0.5, -0.1, 0.0, 0.6]])
        out = head(dcg.constant(c))
        np.testing.assert_allclose(out.data, np.maximum(c, 0.0), rtol=1e-12)

    def test_gradcheck_through_head(self, rng):
        reg = ParamRegistry()
        head = UserLocationHead(reg, rng, n_topics=6, dim=4)
        c_u = dcg.constant(np.random.default_rng(3).random((2, 6)))

        def loss_fn(r):
            return dcg.tensor_sum(head(c_u))

        assert grad_check(loss_fn, reg, 1e-6) < 1e-6
