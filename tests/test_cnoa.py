"""Oscillator recurrence, decay regimes, and oscillatory attention."""

import numpy as np
import pytest

from canoe import dcg
from canoe.cnoa import (EXP_CLAMP_HI, CnoaAttention, OscillatorParams,
                        osc_transform, oscillator_iterate, oscillator_output)
from canoe.dcg import ParamRegistry, grad_check


def relu_score_attention_oracle(q, wq, k_in, wk, v_in, wv, w_out):
    """Independently coded ReLU-scored multi-head attention (plain loops)."""
    n_heads = len(wq)
    head_outs = []
    for r in range(n_heads):
        qr = q @ wq[r]
        kr = k_in @ wk[r]
        vr = v_in @ wv[r]
        scores = np.maximum(qr @ kr.T, 0.0) / np.sqrt(qr.shape[-1])
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        alpha = e / e.sum(axis=-1, keepdims=True)
        head_outs.append(alpha @ vr)
    return np.concatenate(head_outs, axis=-1) @ w_out


def plain_cross_attention_oracle(q, wq, k_in, wk, v_in, wv, w_out):
    n_heads = len(wq)
    head_outs = []
    for r in range(n_heads):
        qr = q @ wq[r]
        kr = k_in @ wk[r]
        vr = v_in @ wv[r]
        scores = (qr @ kr.T) / np.sqrt(qr.shape[-1])
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        alpha = e / e.sum(axis=-1, keepdims=True)
        head_outs.append(alpha @ vr)
    return np.concatenate(head_outs, axis=-1) @ w_out


def forcing_params(**kw) -> OscillatorParams:
    """Thresholds pin E = I = 0 so Osc(S) reduces to ReLU(S) exactly."""
    defaults = dict(e1=1.0, e2=-1.0, i1=1.0, i2=1.0, tau_e=1e6, tau_i=1e6,
                    k=-500.0, n_steps=1, gamma=0.0)
    defaults.update(kw)
    return OscillatorParams(**defaults)


class TestOscillatorIterate:
    def test_zero_input_zero_thresholds_fixed_point(self):
        p = OscillatorParams(e1=2.0, e2=0.5, i1=-1.0, i2=3.0,
                             tau_e=0.0, tau_i=0.0, k=1.0, n_steps=7)
        e, i = oscillator_iterate(np.zeros((3, 3)), p)
        np.testing.assert_array_equal(e, np.zeros((3, 3)))
        np.testing.assert_array_equal(i, np.zeros((3, 3)))

    def test_one_step_hand_evaluated(self):
        p = OscillatorParams(e1=1, e2=-1, i1=1, i2=1, tau_e=0, tau_i=0,
                             k=1.0, n_steps=1)
        e, i = oscillator_iterate(np.array(1.0), p)
        assert abs(e - 1.0) < 1e-12 and abs(i - 0.0) < 1e-12

    def test_two_steps_hand_evaluated(self):
        p = OscillatorParams(e1=1, e2=-1, i1=1, i2=1, tau_e=0, tau_i=0,
                             k=1.0, n_steps=2)
        e, i = oscillator_iterate(np.array(1.0), p)
        assert abs(e - 2.0) < 1e-12  # ReLU(1*1 + (-1)*0 + 1 - 0)
        assert abs(i - 1.0) < 1e-12  # ReLU(1*1 + 1*0 - 0)

    def test_matches_scalar_recurrence(self, rng):
        s = rng.random((3, 4)) * 2
        p = OscillatorParams(e1=1.0, e2=-1.0, i1=1.0, i2=1.0, tau_e=0.1,
                             tau_i=0.2, n_steps=4)
        e, i = oscillator_iterate(s, p)
        # reference scalar loop
        e_ref = np.zeros_like(s)
        i_ref = np.zeros_like(s)
        for _ in range(4):
            pe = 1.0 * e_ref - 1.0 * i_ref + s - 0.1
            pi = 1.0 * e_ref + 1.0 * i_ref - 0.2
            e_ref, i_ref = np.maximum(pe, 0), np.maximum(pi, 0)
        np.testing.assert_array_equal(e, e_ref)
        np.testing.assert_array_equal(i, i_ref)

    def test_non_finite_input_faults(self):
        p = OscillatorParams()
        with pytest.raises(dcg.NumericFault):
            oscillator_iterate(np.array([np.nan]), p)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            OscillatorParams(n_steps=0)
        with pytest.raises(ValueError):
            OscillatorParams(gamma=-1.0)


class TestOscillatorOutput:
    def test_direct_evaluation(self):
        p = OscillatorParams(k=1.0)
        out = oscillator_output(np.array(1.0), np.array(0.0), np.array(1.0), p)
        assert abs(out - (np.exp(-1.0) + 1.0)) < 1e-12

    def test_high_affinity_limit(self):
        # k=1, S=10: the decay term is e^{-100}, far below any clamp effect.
        p = OscillatorParams(k=1.0)
        e, i = np.array(3.0), np.array(0.5)
        out = oscillator_output(e, i, np.array(10.0), p)
        assert abs(out - 10.0) < 1e-40 * abs(e - i)

    def test_low_affinity_limit(self):
        p = OscillatorParams(k=1.0)
        e, i = np.array(2.5), np.array(0.75)
        out = oscillator_output(e, i, np.array(0.0), p)
        assert out == e - i  # decay term exactly 1, ReLU(0) = 0

    def test_upper_clamp_guards_negative_k(self):
        p = OscillatorParams(k=-500.0)
        out = oscillator_output(np.array(1.0), np.array(0.0), np.array(10.0), p)
        assert np.isfinite(out)
        assert out == np.exp(EXP_CLAMP_HI) + 10.0

    def test_high_affinity_bound_property(self, rng):
        # |Osc - ReLU(S)| <= max|E-I| * exp(-k c^2) for all scores >= c.
        p = OscillatorParams(e1=0.5, e2=-0.3, i1=0.4, i2=0.2, tau_e=0.0,
                             tau_i=0.0, k=2.0, n_steps=3)
        c = 1.5
        s = c + rng.random((50,)) * 4
        e, i = oscillator_iterate(s, p)
        gap = np.abs(oscillator_output(e, i, s, p) - np.maximum(s, 0.0))
        assert (gap <= np.abs(e - i).max() * np.exp(-p.k * c * c) + 1e-30).all()


class TestOscTransform:
    def test_matches_iterate_plus_output(self, rng):
        p = OscillatorParams(e1=1, e2=-1, i1=0.8, i2=0.9, tau_e=0.05,
                             tau_i=0.1, k=2.0, n_steps=3)
        s = rng.random((4, 6)) * 2
        e, i = oscillator_iterate(s, p)
        expected = oscillator_output(e, i, s, p)
        got = osc_transform(dcg.constant(s), p)
        np.testing.assert_array_equal(got.data, expected)

    @pytest.mark.parametrize("k,n_steps", [(1.0, 1), (2.5, 3), (-500.0, 1),
                                           (-500.0, 2)])
    def test_gradient_vs_finite_differences(self, k, n_steps):
        # Inputs kept below the k=-500 blow-up region so the FD oracle stays
        # well conditioned (mixed e^50-scale losses swamp float64 differences).
        rng = np.random.default_rng(8)
        p = OscillatorParams(e1=1, e2=-1, i1=1, i2=1, tau_e=0.02, tau_i=0.01,
                             k=k, n_steps=n_steps)
        reg = ParamRegistry()
        reg.register("w", rng.random((3, 4)) * 0.08 + 0.01)

        def loss_fn(r):
            z = osc_transform(dcg.relu(r["w"] * 1.0), p)
            return dcg.tensor_sum(z * z * 0.1)

        assert grad_check(loss_fn, reg, 1e-6) < 1e-6

    def test_gradient_in_saturated_negative_k_regime(self):
        # One scalar at a time: FD is exact per entry even at e^50 scale.
        p = OscillatorParams(e1=1, e2=-1, i1=1, i2=1, tau_e=0.02, tau_i=0.01,
                             k=-500.0, n_steps=1)
        eps = 1e-6
        for s0 in (0.2, 0.33, 0.5):
            w = dcg.parameter(np.array([[s0]]))
            z = osc_transform(dcg.relu(w * 1.0), p)
            dcg.backward(dcg.tensor_sum(z * z * 0.1))

            def f(v):
                zz = osc_transform(dcg.relu(dcg.constant(np.array([[v]]))), p)
                return dcg.tensor_sum(zz * zz * 0.1).item()

            numeric = (f(s0 + eps) - f(s0 - eps)) / (2 * eps)
            assert abs(w.grad[0, 0] - numeric) / max(1.0, abs(numeric)) < 1e-6


class TestCnoaAttention:
    def _build(self, rng, osc, dim_q=6, dim_kv=4, dim_out=4, n_heads=2,
               variant="cnoa"):
        reg = ParamRegistry()
        attn = CnoaAttention(reg, rng, "attn", dim_q, dim_kv, dim_out,
                             n_heads, osc, variant=variant)
        return reg, attn

    def test_equal_scores_give_uniform_alpha(self, rng):
        # All-equal query-key scores: softmax of a constant row is uniform
        # for any oscillator parameters.
        reg, attn = self._build(rng, OscillatorParams())
        q = dcg.constant(np.zeros((2, 1, 6)))  # zero query -> all scores 0
        k = dcg.constant(rng.random((5, 4)))
        out = attn(q, k, k)
        for alpha in attn._alpha_prev:
            np.testing.assert_allclose(alpha, 1.0 / 5, atol=1e-12)

    def test_alpha_rows_stochastic_any_params(self, rng):
        for k_coef in (-500.0, -1.0, 0.0, 1.0):
            for n_steps in (1, 3):
                osc = OscillatorParams(e1=1, e2=-1, i1=1, i2=1, k=k_coef,
                                       n_steps=n_steps, gamma=1.0)
                reg, attn = self._build(rng, osc)
                q = dcg.constant(rng.normal(size=(3, 2, 6)))
                kv = dcg.constant(rng.normal(size=(3, 5, 4)))
                attn(q, kv, kv)
                for alpha in attn._alpha_prev:
                    assert (alpha >= 0).all()
                    np.testing.assert_allclose(alpha.sum(-1), 1.0, atol=1e-9)

    def test_gamma_zero_output_independent_of_state(self, rng):
        osc = OscillatorParams(gamma=0.0)
        reg, attn = self._build(rng, osc)
        q = dcg.constant(rng.normal(size=(2, 1, 6)))
        kv = dcg.constant(rng.normal(size=(7, 4)))
        first = attn(q, kv, kv).data.copy()
        second = attn(q, kv, kv).data.copy()  # state now non-uniform
        np.testing.assert_array_equal(first, second)

    def test_stabilizer_in_unit_interval_and_one_iff_no_deviation(self, rng):
        osc = OscillatorParams(gamma=2.0)
        reg, attn = self._build(rng, osc)
        q = dcg.constant(rng.normal(size=(2, 1, 6)))
        kv = dcg.constant(rng.normal(size=(7, 4)))
        out_first = attn(q, kv, kv).data.copy()
        # Same inputs again: alpha equals stored alpha, deviation 0, s_r = 1,
        # so the output must match a gamma=0 module with identical weights.
        out_second = attn(q, kv, kv).data.copy()
        osc0 = OscillatorParams(gamma=0.0)
        reg0, attn0 = self._build(np.random.default_rng(12345), osc0)
        for name, t in reg.items():
            reg0[name].data[...] = t.data
        out_nostab = attn0(q, kv, kv).data
        np.testing.assert_allclose(out_second, out_nostab, rtol=1e-12)
        # First call used the uniform sentinel: deviation > 0 shrinks output.
        assert not np.allclose(out_first, out_nostab)

    def test_reduction_to_relu_scored_attention(self, rng):
        # E == I forcing (huge thresholds pin both at zero) and gamma = 0.
        for trial in range(50):
            trng = np.random.default_rng(1000 + trial)
            reg, attn = self._build(trng, forcing_params())
            q_raw = trng.normal(size=(2, 3, 6))
            kv_raw = trng.normal(size=(5, 4))
            out = attn(dcg.constant(q_raw), dcg.constant(kv_raw),
                       dcg.constant(kv_raw))
            oracle = np.stack([
                relu_score_attention_oracle(
                    q_raw[b], [w.data for w in attn.wq],
                    kv_raw, [w.data for w in attn.wk],
                    kv_raw, [w.data for w in attn.wv], attn.w_out.data)
                for b in range(2)
            ])
            np.testing.assert_allclose(out.data, oracle, atol=1e-12)

    def test_cross_variant_matches_brute_force(self, rng):
        for trial in range(20):
            trng = np.random.default_rng(2000 + trial)
            reg, attn = self._build(trng, OscillatorParams(), variant="cross")
            q_raw = trng.normal(size=(1, 2, 6))
            kv_raw = trng.normal(size=(3, 4))
            out = attn(dcg.constant(q_raw), dcg.constant(kv_raw),
                       dcg.constant(kv_raw))
            oracle = plain_cross_attention_oracle(
                q_raw[0], [w.data for w in attn.wq],
                kv_raw, [w.data for w in attn.wk],
                kv_raw, [w.data for w in attn.wv], attn.w_out.data)
            np.testing.assert_allclose(out.data[0], oracle, atol=1e-12)

    def test_cross_single_key_gets_full_weight(self, rng):
        reg, attn = self._build(rng, OscillatorParams(), variant="cross")
        q = dcg.constant(rng.normal(size=(2, 1, 6)))
        kv_raw = rng.normal(size=(1, 4))
        out = attn(q, dcg.constant(kv_raw), dcg.constant(kv_raw))
        oracle = np.concatenate([kv_raw @ w.data for w in attn.wv],
                                axis=-1) @ attn.w_out.data
        np.testing.assert_allclose(out.data[:, 0, :],
                                   np.broadcast_to(oracle, (2, 4)), rtol=1e-12)

    def test_identical_value_rows_give_that_row(self, rng):
        reg, attn = self._build(rng, OscillatorParams(), variant="cross")
        q = dcg.constant(rng.normal(size=(1, 1, 6)))
        k_raw = rng.normal(size=(6, 4))
        v_row = rng.normal(size=(1, 4))
        v_raw = np.repeat(v_row, 6, axis=0)
        out = attn(q, dcg.constant(k_raw), dcg.constant(v_raw))
        oracle = np.concatenate([v_row @ w.data for w in attn.wv],
                                axis=-1) @ attn.w_out.data
        np.testing.assert_allclose(out.data[0], oracle, rtol=1e-12)

    def test_sequence_length_mismatch_rejected(self, rng):
        reg, attn = self._build(rng, OscillatorParams())
        q = dcg.constant(rng.normal(size=(1, 1, 6)))
        with pytest.raises(ValueError, match="lengths differ"):
            attn(q, dcg.constant(rng.normal(size=(4, 4))),
                 dcg.constant(rng.normal(size=(5, 4))))

    def test_state_reset_and_shape_mismatch_fallback(self, rng):
        reg, attn = self._build(rng, OscillatorParams(gamma=1.0))
        q = dcg.constant(rng.normal(size=(2, 1, 6)))
        kv = dcg.constant(rng.normal(size=(5, 4)))
        out1 = attn(q, kv, kv).data.copy()
        attn.reset_state()
        out2 = attn(q, kv, kv).data.copy()
        np.testing.assert_array_equal(out1, out2)
        # a batch of a different size ignores the stored state for that call:
        # first rows match a fresh-state run on the larger batch exactly
        q3 = dcg.constant(np.concatenate([q.data, q.data[:1]], axis=0))
        mismatched = attn(q3, kv, kv).data.copy()
        attn.reset_state()
        fresh = attn(q3, kv, kv).data
        np.testing.assert_array_equal(mismatched, fresh)

    def test_stabilizer_state_semantics(self, rng):
        # The state is the last training call's alpha, [H, batch, Lq, Lk].
        reg, attn = self._build(rng, OscillatorParams(gamma=1.0))
        kv_raw = rng.normal(size=(5, 4))
        kv = dcg.constant(kv_raw)

        def oracle(alpha, prev):
            heads = []
            for r in range(attn.n_heads):
                dev = ((alpha[r] - prev[r]) ** 2).sum(axis=(-2, -1), keepdims=True)
                heads.append(alpha[r] @ (kv_raw @ attn.wv.data[r])
                             * np.exp(-attn.osc.gamma * dev))
            return np.concatenate(heads, axis=-1) @ attn.w_out.data

        def uniform(batch):
            return np.full((2, batch, 1, 5), 1.0 / 5)

        # first batch after a reset: uniform sentinel, then stored as state
        q_a = dcg.constant(rng.normal(size=(3, 1, 6)))
        out_a = attn(q_a, kv, kv).data
        alpha_a = attn._alpha_prev
        assert alpha_a.shape == (2, 3, 1, 5)
        np.testing.assert_allclose(out_a, oracle(alpha_a, uniform(3)), atol=1e-12)
        # next training batch (other samples): stabilized against the previous
        q_b = dcg.constant(rng.normal(size=(3, 1, 6)))
        out_b = attn(q_b, kv, kv).data
        alpha_b = attn._alpha_prev
        np.testing.assert_allclose(out_b, oracle(alpha_b, alpha_a), atol=1e-12)
        # a short last batch: shape differs -> uniform sentinel, state replaced
        q_c = dcg.constant(rng.normal(size=(2, 1, 6)))
        out_c = attn(q_c, kv, kv).data
        alpha_c = attn._alpha_prev
        assert alpha_c.shape == (2, 2, 1, 5)
        np.testing.assert_allclose(out_c, oracle(alpha_c, uniform(2)), atol=1e-12)
        # a frozen call leaves the stored state untouched
        attn(q_b, kv, kv, update_state=False)
        assert attn._alpha_prev is alpha_c
        # evaluation resets first and freezes: always the uniform sentinel
        attn.reset_state()
        out_eval = attn(q_b, kv, kv, update_state=False).data
        assert attn._alpha_prev is None
        np.testing.assert_allclose(out_eval, oracle(alpha_b, uniform(3)), atol=1e-12)

    def test_frozen_state_at_evaluation(self, rng):
        reg, attn = self._build(rng, OscillatorParams(gamma=1.0))
        q = dcg.constant(rng.normal(size=(2, 1, 6)))
        kv = dcg.constant(rng.normal(size=(5, 4)))
        attn.reset_state()
        a = attn(q, kv, kv, update_state=False).data.copy()
        b = attn(q, kv, kv, update_state=False).data.copy()
        np.testing.assert_array_equal(a, b)
        assert attn._alpha_prev is None

    def test_determinism_bitwise(self, rng):
        osc = OscillatorParams()
        reg, attn = self._build(rng, osc)
        q = dcg.constant(rng.normal(size=(2, 1, 6)))
        kv = dcg.constant(rng.normal(size=(5, 4)))
        attn.reset_state()
        a = attn(q, kv, kv).data.copy()
        attn.reset_state()
        b = attn(q, kv, kv).data.copy()
        assert a.tobytes() == b.tobytes()

    def test_gradcheck_with_state_as_constant(self):
        rng = np.random.default_rng(21)
        osc = OscillatorParams(k=-500.0, gamma=1.0)
        reg, attn = self._build(rng, osc)
        q_raw = rng.normal(size=(2, 1, 6)) * 0.5
        kv_raw = rng.normal(size=(5, 4)) * 0.5

        def loss_fn(r):
            attn.reset_state()
            out = attn(dcg.constant(q_raw), dcg.constant(kv_raw),
                       dcg.constant(kv_raw), update_state=False)
            return dcg.tensor_sum(out * out)

        assert grad_check(loss_fn, reg, 1e-5) < 1e-4

    def test_gradcheck_against_stored_state(self):
        # The stabilizer against a stored, non-uniform alpha: the full-model
        # gradcheck resets the state, so it only sees the uniform sentinel.
        # Scores stay off the decay clamp, so the stabilizer's share of the
        # gradient is large enough to show.
        rng = np.random.default_rng(21)
        reg, attn = self._build(rng, OscillatorParams(k=-2.0, n_steps=2,
                                                      gamma=1.0))
        q_raw = rng.normal(size=(2, 1, 6)) * 3.0
        kv_raw = rng.normal(size=(5, 4)) * 3.0
        attn(dcg.constant(rng.normal(size=(2, 1, 6)) * 10.0),
             dcg.constant(kv_raw * 10.0 / 3.0), dcg.constant(kv_raw))
        stored = attn._alpha_prev
        assert np.abs(stored - 1.0 / 5).max() > 0.5

        def loss_fn(r):
            out = attn(dcg.constant(q_raw), dcg.constant(kv_raw),
                       dcg.constant(kv_raw), update_state=False)
            return dcg.tensor_sum(out * out)

        assert grad_check(loss_fn, reg, 1e-5) < 1e-6
        assert attn._alpha_prev is stored

    @pytest.mark.parametrize("variant", ["cnoa", "cross"])
    def test_one_graph_node_per_call(self, rng, variant):
        reg, attn = self._build(rng, OscillatorParams(), variant=variant)
        q = dcg.constant(rng.normal(size=(2, 1, 6)))
        kv = dcg.constant(rng.normal(size=(5, 4)))
        out = attn(q, kv, kv)
        ops, stack = [], [out]
        while stack:
            node = stack.pop()
            ops.append(node._op)
            stack.extend(node._parents)
        assert ops.count("cnoa_attention") == 1
        assert out._parents[0]._op == "cnoa_attention"

    def test_invalid_head_split_rejected(self, rng):
        reg = ParamRegistry()
        with pytest.raises(ValueError, match="divisible"):
            CnoaAttention(reg, rng, "attn", 6, 4, 5, 2, OscillatorParams())
