"""Cross-context decoder, prediction heads, and the three-term loss."""

import math

import numpy as np
import pytest

from canoe import dcg
from canoe.cnoa import OscillatorParams
from canoe.decoder import CrossContextDecoder, LossWeights
from canoe.dcg import ParamRegistry, grad_check


def make_decoder(rng, dim=8, n_locs=10, query_source="user_location",
                 osc=None):
    reg = ParamRegistry()
    dec = CrossContextDecoder(reg, rng, dim, n_locs, 2,
                              osc or OscillatorParams(),
                              query_source=query_source)
    return reg, dec


def make_enc_output(rng, batch=2, dim=8, length=4):
    """(O_us, O_ut, O_st), the decoder's three branch inputs."""
    return (dcg.constant(rng.normal(size=(batch, dim))),
            dcg.constant(rng.normal(size=(batch, dim))),
            dcg.constant(rng.normal(size=(batch, length, 2 * dim))))


class TestDecode:
    def test_output_shapes_for_various_context_lengths(self, rng):
        reg, dec = make_decoder(rng)
        for length in (1, 3, 7):
            enc = make_enc_output(rng, batch=3, length=length)
            e_u = dcg.constant(rng.normal(size=(3, 8)))
            y_hat, fused = dec(*enc, e_u)
            assert y_hat.shape == (3, 8)
            assert fused.shape == (3, 48)

    def test_fused_input_layout(self, rng):
        reg, dec = make_decoder(rng)
        enc = make_enc_output(rng, batch=1, length=3)
        e_u = dcg.constant(rng.normal(size=(1, 8)))
        _, fused = dec(*enc, e_u)
        o_us, o_ut, o_st = enc
        np.testing.assert_array_equal(fused.data[0, :8], o_us.data[0])
        np.testing.assert_array_equal(fused.data[0, 8:24], o_st.data[0, -1])
        np.testing.assert_array_equal(fused.data[0, 24:32], o_ut.data[0])
        np.testing.assert_array_equal(fused.data[0, 32:40], e_u.data[0])

    def test_query_source_flag_changes_attention(self, rng):
        reg_a, dec_a = make_decoder(rng, query_source="user_location")
        reg_b, dec_b = make_decoder(np.random.default_rng(12345),
                                    query_source="time_user")
        for name, t in reg_a.items():
            reg_b[name].data[...] = t.data
        enc = make_enc_output(rng, batch=2)
        e_u = dcg.constant(rng.normal(size=(2, 8)))
        ya, _ = dec_a(*enc, e_u)
        yb, _ = dec_b(*enc, e_u)
        assert not np.array_equal(ya.data, yb.data)

    def test_unknown_query_source_rejected(self, rng):
        with pytest.raises(ValueError, match="query source"):
            make_decoder(rng, query_source="wrong")

    def test_gradcheck_scalar_readout(self):
        rng = np.random.default_rng(5)
        reg, dec = make_decoder(rng)
        enc = make_enc_output(rng, batch=2, length=3)
        e_u = dcg.constant(rng.normal(size=(2, 8)))

        def loss_fn(r):
            dec.attn.reset_state()
            y_hat, _ = dec(*enc, e_u, update_state=False)
            return dcg.tensor_sum(y_hat * y_hat * 0.05)

        assert grad_check(loss_fn, reg, 1e-5) < 1e-4


class TestHeads:
    def test_zero_location_head_gives_uniform_probs(self, rng):
        reg, dec = make_decoder(rng, n_locs=7)
        reg["decoder.loc.w"].data[...] = 0.0
        reg["decoder.loc.b"].data[...] = 0.0
        y_hat = dcg.constant(rng.normal(size=(3, 8)))
        probs = dcg.softmax(dec.location_logits(y_hat), axis=-1).data
        np.testing.assert_allclose(probs, 1.0 / 7, rtol=1e-12)

    def test_softmax_shift_invariance(self, rng):
        logits = rng.normal(size=(2, 5))
        a = dcg.softmax(dcg.constant(logits), axis=-1).data
        b = dcg.softmax(dcg.constant(logits + 7.3), axis=-1).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_three_logit_softmax_oracle(self):
        probs = dcg.softmax(dcg.constant([[1.0, 2.0, 3.0]]), axis=-1).data[0]
        np.testing.assert_allclose(probs, [0.09003057, 0.24472847, 0.66524096],
                                   atol=5e-9)

    def test_zero_time_head_gives_uniform_24(self, rng):
        reg, dec = make_decoder(rng)
        reg["decoder.time.w"].data[...] = 0.0
        reg["decoder.time.b"].data[...] = 0.0
        o_ut = dcg.constant(rng.normal(size=(2, 8)))
        probs = dcg.softmax(dec.time_logits(o_ut), axis=-1).data
        np.testing.assert_allclose(probs, 1.0 / 24, rtol=1e-12)

    def test_time_probs_sum_to_one(self, rng):
        reg, dec = make_decoder(rng)
        o_ut = dcg.constant(rng.normal(size=(5, 8)) * 3)
        probs = dcg.softmax(dec.time_logits(o_ut), axis=-1).data
        np.testing.assert_allclose(probs.sum(-1), 1.0, atol=1e-9)
        assert (probs >= 0).all()

    def test_time_probs_deterministic(self, rng):
        reg, dec = make_decoder(rng)
        o_ut = dcg.constant(rng.normal(size=(2, 8)))
        a = dcg.softmax(dec.time_logits(o_ut), axis=-1).data
        b = dcg.softmax(dec.time_logits(o_ut), axis=-1).data
        assert a.tobytes() == b.tobytes()


class TestCrossEntropy:
    def test_uniform_prediction_equals_log_cardinality(self):
        logits = dcg.constant(np.zeros((4, 2418)))
        loss = dcg.cross_entropy(logits, np.array([0, 5, 100, 2417]))
        assert abs(loss.item() - math.log(2418)) < 1e-9
        assert abs(loss.item() - 7.791) < 5e-4

    def test_perfect_one_hot_prediction_loss_zero(self):
        logits = np.full((3, 6), -1e9)
        targets = np.array([1, 4, 2])
        logits[np.arange(3), targets] = 0.0
        loss = dcg.cross_entropy(dcg.constant(logits), targets)
        assert loss.item() == 0.0

    def test_out_of_range_target_rejected(self):
        with pytest.raises(IndexError, match="target"):
            dcg.cross_entropy(dcg.constant(np.zeros((2, 4))), np.array([0, 4]))

    def test_weighted_combination_symmetry(self, rng):
        # lambda (1,0,0) on head A equals lambda (0,0,1) on identical head C.
        logits = dcg.constant(rng.normal(size=(4, 9)))
        targets = rng.integers(0, 9, 4)
        ce = dcg.cross_entropy(logits, targets)
        total_a = ce * 1.0 + ce * 0.0 + ce * 0.0
        total_b = ce * 0.0 + ce * 0.0 + ce * 1.0
        assert total_a.item() == total_b.item()

    def test_loss_weights_validation(self):
        with pytest.raises(ValueError):
            LossWeights(loc=-0.1)
        with pytest.raises(ValueError):
            LossWeights(loc=0.0, time=0.0, aux=0.0)


class TestDescentSanity:
    def test_single_sample_loss_decreases_under_small_steps(self, rng):
        from canoe.dcg import AdamW

        reg, dec = make_decoder(rng, n_locs=6)
        enc = make_enc_output(rng, batch=1, length=3)
        o_ut = enc[1]
        e_u = dcg.constant(rng.normal(size=(1, 8)))
        target = np.array([2])
        opt = AdamW(reg, lr=1e-3, weight_decay=0.0)

        def compute_loss():
            dec.attn.reset_state()
            y_hat, fused = dec(*enc, e_u, update_state=False)
            return (dcg.cross_entropy(dec.location_logits(y_hat), target)
                    + dcg.cross_entropy(dec.time_logits(o_ut), np.array([5])) * 0.5
                    + dcg.cross_entropy(dec.aux_logits(fused), target) * 0.5)

        first = compute_loss().item()
        for _ in range(25):
            loss = compute_loss()
            reg.zero_grads()
            dcg.backward(loss)
            opt.step()
        assert compute_loss().item() < first
