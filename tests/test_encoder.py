"""Tri-pair encoder: causal masking, transformer layer oracle, shapes."""

import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from canoe import dcg
from canoe.cnoa import OscillatorParams
from canoe.dcg import ParamRegistry
from canoe.dcg.tensor import _layer_norm
from canoe.embeddings import EmbeddingTable, SmoothedTimeEmbedding
from canoe.encoder import (LocationTimePair, TimeUserPair, causal_mask,
                           positional_encoding, TransformerLayer)
from canoe.topics import UserLocationHead


def build_encoder(rng, dim=8, n_users=5, n_locs=10, layers=2, osc=None,
                  dropout=0.0):
    reg = ParamRegistry()
    time_emb = SmoothedTimeEmbedding(reg, rng, dim=dim, sigma=1.0)
    user_table = EmbeddingTable(reg, rng, n_users, dim, "user_table")
    loc_table = EmbeddingTable(reg, rng, n_locs, dim, "loc_table")
    ul_head = UserLocationHead(reg, rng, n_topics=4, dim=dim)
    osc = osc or OscillatorParams()
    tu = TimeUserPair(reg, rng, user_table, time_emb, dim, 2, osc)
    lt = LocationTimePair(reg, rng, loc_table, time_emb, dim, layers, 2,
                          dropout, 4 * dim)
    return reg, SimpleNamespace(ul_head=ul_head, time_user=tu, loc_time=lt)


def encode(enc, users, locs, slots, theta, rng=None, update_state=True):
    """(O_us, O_ut, O_st) of the three branches, called as CanoeModel does."""
    return (enc.ul_head(dcg.constant(theta)),
            enc.time_user(users, slots[:, -1], update_state=update_state),
            enc.loc_time(locs, slots, rng=rng))


class TestPositionalEncoding:
    def test_shape_and_range(self):
        pe = positional_encoding(19, 8)
        assert pe.shape == (19, 8)
        assert (np.abs(pe) <= 1.0).all()

    def test_first_row_alternates_zero_one(self):
        pe = positional_encoding(4, 6)
        np.testing.assert_allclose(pe[0], [0, 1, 0, 1, 0, 1], atol=1e-12)


class TestCausalMask:
    def test_upper_triangle_blocked(self):
        m = causal_mask(4)
        assert (m[np.triu_indices(4, 1)] < -1e29).all()
        assert (m[np.tril_indices(4)] == 0).all()


class TestLayerNorm:
    def test_normalizes_last_axis(self, rng):
        x = rng.normal(size=(3, 5)) * 4 + 2
        out, centered, _ = _layer_norm(x.copy(), np.ones(5), np.zeros(5))
        np.testing.assert_allclose(centered, x - x.mean(-1, keepdims=True))
        np.testing.assert_allclose(out.mean(-1), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(-1), 1.0, atol=1e-4)


class TestTransformerLayerOracle:
    def test_zeroed_weights_reduce_to_layernormed_input(self, rng):
        """With attention output and FF weights zeroed, residual + post-LN
        collapses to LN(LN(x)); hand-step that on a 2-token example."""
        reg = ParamRegistry()
        layer = TransformerLayer(reg, rng, "l0", dim=4, heads=2, ff_width=8,
                                 dropout=0.0)
        for name in ("l0.o.w", "l0.o.b", "l0.ff1.w", "l0.ff1.b", "l0.ff2.w",
                     "l0.ff2.b"):
            reg[name].data[...] = 0.0
        x_raw = rng.normal(size=(1, 2, 4))
        out = layer(dcg.constant(x_raw), causal_mask(2), None).data

        def ln(v, eps=1e-5):
            mu = v.mean(-1, keepdims=True)
            var = ((v - mu) ** 2).mean(-1, keepdims=True)
            return (v - mu) / np.sqrt(var + eps)

        np.testing.assert_allclose(out, ln(ln(x_raw)), rtol=1e-12)


class TestLocationTimePair:
    def test_output_shape_and_fine_grained_half(self, rng):
        reg, enc = build_encoder(rng, dim=8)
        locs = rng.integers(0, 10, size=(3, 6))
        slots = rng.integers(0, 24, size=(3, 6))
        o_st = enc.loc_time(locs, slots)
        assert o_st.shape == (3, 6, 16)
        # second half is exactly the projected input
        e_l = enc.loc_time.loc_table.lookup(locs)
        e_t = enc.loc_time.time_emb.lookup(slots)
        x = dcg.concat([e_l, e_t], axis=-1)
        x_proj = dcg.matmul(x, enc.loc_time.in_proj.w) + enc.loc_time.in_proj.b
        np.testing.assert_array_equal(o_st.data[..., 8:], x_proj.data)

    def test_single_element_window(self, rng):
        reg, enc = build_encoder(rng)
        o_st = enc.loc_time(rng.integers(0, 10, (2, 1)),
                            rng.integers(0, 24, (2, 1)))
        assert o_st.shape == (2, 1, 16)

    def test_causality_future_perturbation_invariance(self, rng):
        reg, enc = build_encoder(rng, layers=3)
        locs = rng.integers(0, 10, size=(1, 6))
        slots = rng.integers(0, 24, size=(1, 6))
        base = enc.loc_time(locs, slots).data[:, :, :8]  # contextual half
        locs2 = locs.copy()
        locs2[0, -1] = (locs2[0, -1] + 3) % 10
        pert = enc.loc_time(locs2, slots).data[:, :, :8]
        np.testing.assert_array_equal(base[0, :-1], pert[0, :-1])
        assert not np.array_equal(base[0, -1], pert[0, -1])

    def test_causality_at_every_position(self, rng):
        reg, enc = build_encoder(rng, layers=2)
        locs = rng.integers(0, 10, size=(1, 5))
        slots = rng.integers(0, 24, size=(1, 5))
        base = enc.loc_time(locs, slots).data
        for j in range(5):
            locs2 = locs.copy()
            locs2[0, j] = (locs2[0, j] + 1) % 10
            pert = enc.loc_time(locs2, slots).data
            np.testing.assert_array_equal(base[0, :j], pert[0, :j])

    def test_empty_context_rejected(self, rng):
        reg, enc = build_encoder(rng)
        with pytest.raises(ValueError, match="non-empty"):
            enc.loc_time(np.zeros((2, 0), dtype=int), np.zeros((2, 0), dtype=int))


class TestTimeUserPair:
    def test_uniform_scores_average_values(self, rng):
        # Zeroed query projections -> all scores equal -> uniform attention;
        # with gamma=0 the head output is the mean value row.
        osc = OscillatorParams(gamma=0.0)
        reg, enc = build_encoder(rng, osc=osc)
        enc.time_user.attn.wq.data[...] = 0.0
        out = enc.time_user(np.array([0, 1]), np.array([3, 7]))
        table = enc.time_user.time_emb.smoothed_table().data
        heads = []
        for r in range(2):
            vr = table @ enc.time_user.attn.wv[r].data
            heads.append(vr.mean(axis=0))
        oracle = np.concatenate(heads) @ enc.time_user.attn.w_out.data
        np.testing.assert_allclose(out.data, np.broadcast_to(oracle, (2, 8)),
                                   atol=1e-12)

    def test_output_shape(self, rng):
        reg, enc = build_encoder(rng)
        out = enc.time_user(np.array([0, 1, 2]), np.array([0, 12, 23]))
        assert out.shape == (3, 8)


class TestEncodeBatch:
    def test_shapes_contract(self, rng):
        reg, enc = build_encoder(rng, dim=8)
        users = np.array([0, 1])
        locs = rng.integers(0, 10, (2, 4))
        slots = rng.integers(0, 24, (2, 4))
        theta = rng.random((2, 4))
        o_us, o_ut, o_st = encode(enc, users, locs, slots, theta)
        assert o_us.shape == (2, 8)
        assert o_ut.shape == (2, 8)
        assert o_st.shape == (2, 4, 16)

    def test_evaluation_determinism(self, rng):
        reg, enc = build_encoder(rng, dropout=0.1)
        users = np.array([0, 1])
        locs = rng.integers(0, 10, (2, 4))
        slots = rng.integers(0, 24, (2, 4))
        theta = rng.random((2, 4))
        enc.time_user.attn.reset_state()
        _, a_ut, a_st = encode(enc, users, locs, slots, theta,
                               update_state=False)
        _, b_ut, b_st = encode(enc, users, locs, slots, theta,
                               update_state=False)
        assert a_ut.data.tobytes() == b_ut.data.tobytes()
        assert a_st.data.tobytes() == b_st.data.tobytes()

    def test_dropout_active_only_in_training(self, rng):
        # a forward trains (and drops) exactly when it is given the
        # dropout generator
        reg, enc = build_encoder(rng, dropout=0.5)
        users = np.array([0])
        locs = rng.integers(0, 10, (1, 4))
        slots = rng.integers(0, 24, (1, 4))
        theta = rng.random((1, 4))
        d_rng = np.random.default_rng(0)
        *_, tr_st = encode(enc, users, locs, slots, theta, rng=d_rng)
        *_, ev_st = encode(enc, users, locs, slots, theta, update_state=False)
        assert not np.array_equal(tr_st.data, ev_st.data)

    def test_zero_dropout_draws_nothing_from_the_generator(self, rng):
        reg, enc = build_encoder(rng, dropout=0.0)
        locs = rng.integers(0, 10, (2, 4))
        slots = rng.integers(0, 24, (2, 4))
        d_rng = np.random.default_rng(0)
        state = d_rng.bit_generator.state
        tr_st = enc.loc_time(locs, slots, rng=d_rng)
        assert d_rng.bit_generator.state == state
        ev_st = enc.loc_time(locs, slots)
        assert tr_st.data.tobytes() == ev_st.data.tobytes()

    def test_all_outputs_finite(self, rng):
        reg, enc = build_encoder(rng)
        users = np.array([0, 1, 2])
        locs = rng.integers(0, 10, (3, 5))
        slots = rng.integers(0, 24, (3, 5))
        theta = rng.random((3, 4))
        for t in encode(enc, users, locs, slots, theta):
            assert np.all(np.isfinite(t.data))


class TestLengthCache:
    def test_threads_meeting_a_new_length_at_once(self, rng):
        """Forwards on several threads at once, over one context length
        after another, each give the single-thread forward's bytes."""
        _, enc = build_encoder(rng, dim=4, layers=1)
        lengths = range(2, 102)
        errors = []

        def forwards():
            with dcg.no_grad():
                return [enc.loc_time(ids, ids).data.tobytes() for ids in
                        (np.zeros((1, n), dtype=np.int64) for n in lengths)]

        want = forwards()
        got = []

        def run():
            try:
                got.append(forwards())
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert got == [want] * 8
