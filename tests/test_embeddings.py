"""Smoothed time embedding: kernel weights, lookups, gradient routing."""

import math

import numpy as np
import pytest

from canoe import dcg
from canoe.dcg import ParamRegistry
from canoe.embeddings import (EmbeddingTable, SmoothedTimeEmbedding,
                              smoothing_weights)


def kernel_weights_oracle(tau: int, n_slots: int, sigma: float) -> np.ndarray:
    """Independent direct evaluation: sum the kernel terms one by one."""
    terms = []
    for h in range(n_slots):
        delta = min(abs(tau - h), n_slots - abs(tau - h))
        terms.append(math.exp(-(delta ** 2) / (2 * sigma ** 2)))
    z = sum(terms)
    return np.array([t / z for t in terms])


class TestSmoothingWeights:
    def test_row_zero_matches_direct_kernel_sum(self):
        w = smoothing_weights(24, 1.0)
        oracle = kernel_weights_oracle(0, 24, 1.0)
        np.testing.assert_allclose(w[0], oracle, rtol=1e-12)
        assert abs(w[0, 0] - 0.3990) < 5e-4  # 1/Z with Z ~= 2.5063

    def test_rows_stochastic_for_many_shapes(self):
        for n_slots in (2, 3, 5, 24, 48):
            for sigma in (0.05, 0.5, 1.0, 3.0, 10.0):
                w = smoothing_weights(n_slots, sigma)
                assert (w >= 0).all()
                np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-9)

    def test_sharp_kernel_collapses_to_one_hot(self):
        w = smoothing_weights(24, 0.01)
        assert (np.diag(w) > 0.999).all()

    def test_cyclic_shift_equivariance(self):
        w = smoothing_weights(24, 1.0)
        for shift in range(24):
            np.testing.assert_allclose(w[shift], np.roll(w[0], shift),
                                       rtol=1e-12)

    def test_monotone_locality(self):
        w = smoothing_weights(24, 1.3)
        row = w[0]
        deltas = np.minimum(np.arange(24), 24 - np.arange(24))
        order = np.argsort(deltas, kind="stable")
        sorted_by_distance = row[order]
        assert (np.diff(sorted_by_distance) <= 1e-15).all()

    def test_invalid_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            smoothing_weights(24, 0.0)


class TestSmoothedTimeEmbedding:
    def _build(self, rng, sigma=1.0, dim=4):
        reg = ParamRegistry()
        emb = SmoothedTimeEmbedding(reg, rng, dim=dim, sigma=sigma)
        return reg, emb

    def test_lookup_matches_manual_combination(self, rng):
        reg, emb = self._build(rng)
        vec = emb.lookup(np.array([3])).data[0]
        oracle = kernel_weights_oracle(3, 24, 1.0) @ emb.table.data
        np.testing.assert_allclose(vec, oracle, rtol=1e-12)

    def test_identical_base_rows_give_identical_output(self, rng):
        reg, emb = self._build(rng)
        v = np.array([1.0, -2.0, 0.5, 3.0])
        emb.table.data[...] = v
        for tau in range(24):
            np.testing.assert_allclose(emb.lookup([tau]).data[0], v, rtol=1e-12)

    def test_gradients_spread_over_base_rows(self, rng):
        reg, emb = self._build(rng)
        out = dcg.tensor_sum(emb.lookup(np.array([0])))
        dcg.backward(out)
        grad_row_norms = np.abs(emb.table.grad).sum(axis=1)
        assert (grad_row_norms > 0).all()  # every row has nonzero weight

    def test_slot_range_checked(self, rng):
        _, emb = self._build(rng)
        with pytest.raises(ValueError):
            emb.lookup([24])


class TestEmbeddingTable:
    def test_identity_initialized_lookup(self, rng):
        reg = ParamRegistry()
        table = EmbeddingTable(reg, rng, 3, 3, "t")
        table.table.data[...] = np.eye(3)
        np.testing.assert_array_equal(table.lookup([1]).data, [[0, 1, 0]])

    def test_indicator_gradient(self, rng):
        reg = ParamRegistry()
        table = EmbeddingTable(reg, rng, 4, 2, "t")
        dcg.backward(dcg.tensor_sum(table.lookup(np.array([2]))))
        expected = np.zeros((4, 2))
        expected[2] = 1.0
        np.testing.assert_array_equal(table.table.grad, expected)

    def test_double_lookup_equals_two_single_lookups(self, rng):
        # Oracle: gradient of 2 * sum(lookup(i)) on a fresh table.
        reg = ParamRegistry()
        table = EmbeddingTable(reg, rng, 4, 2, "t")
        dcg.backward(dcg.tensor_sum(table.lookup([1]) + table.lookup([1])))
        grad_two_paths = table.table.grad.copy()

        reg2 = ParamRegistry()
        table2 = EmbeddingTable(reg2, np.random.default_rng(12345), 4, 2, "t")
        dcg.backward(dcg.tensor_sum(table2.lookup([1]) * 2.0))
        np.testing.assert_allclose(grad_two_paths, table2.table.grad, rtol=1e-12)

    def test_out_of_range_rejected(self, rng):
        reg = ParamRegistry()
        table = EmbeddingTable(reg, rng, 4, 2, "t")
        with pytest.raises(IndexError):
            table.lookup([4])

    def test_init_bounds(self, rng):
        reg = ParamRegistry()
        table = EmbeddingTable(reg, rng, 100, 8, "t")
        assert np.abs(table.table.data).max() <= 0.1
