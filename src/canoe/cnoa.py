"""Chaotic neural oscillatory attention.

Attention scores pass through an excitatory/inhibitory oscillator before
the softmax: S = ReLU(QK^T) drives the recurrence

    E(t+1) = ReLU(e1*E + e2*I + S - tau_e)
    I(t+1) = ReLU(i1*E + i2*I - tau_i)       E(1) = I(1) = 0

and the transformed score is

    Osc(S) = (E - I) * exp(min(-k*S^2, 50)) + ReLU(S).

The factor exp(-k*S^2) sets the blend. For k > 0 it decays: near S = 0 the
chaotic difference E - I dominates and for strong affinities the stable
ReLU(S) term takes over. For k < 0 (the default k = -500) it grows with S
up to the e^50 clamp, which amplifies E - I most at strong affinities. The
exponent is clamped from above only (overflow guard for negative k);
heavily negative exponents underflow to 0 harmlessly. A per-head stabilizer
exp(-gamma * ||alpha - alpha_prev||_F^2) damps abrupt shifts of the
attention distribution between consecutive forward passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dcg
from .dcg import ParamRegistry, Tensor
from .dcg.tensor import _accum_owned, _make, _softmax, _softmax_grad, _unbroadcast

__all__ = [
    "EXP_CLAMP_HI", "OscillatorParams",
    "oscillator_iterate", "oscillator_output", "osc_transform",
    "cnoa_attention", "CnoaAttention",
]

EXP_CLAMP_HI = 50.0


@dataclass
class OscillatorParams:
    """Oscillator coefficients; hyperparameters, not gradient-trained."""

    e1: float = 1.0       # excitatory self-feedback
    e2: float = -1.0      # inhibitory-to-excitatory coefficient
    i1: float = 1.0       # excitatory-to-inhibitory weight
    i2: float = 1.0       # inhibitory self-sustain
    tau_e: float = 0.0    # excitatory activation threshold
    tau_i: float = 0.0    # inhibitory activation threshold
    k: float = -500.0     # decay-rate coefficient
    n_steps: int = 1      # internal oscillator iterations
    gamma: float = 1.0    # stabilization strength

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.gamma < 0.0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        vals = [self.e1, self.e2, self.i1, self.i2, self.tau_e, self.tau_i,
                self.k, self.gamma]
        if not all(np.isfinite(v) for v in vals):
            raise ValueError("oscillator coefficients must be finite")


def _recurrence(s: np.ndarray, p: OscillatorParams):
    """The recurrence for p.n_steps from E = I = 0, elementwise over s
    (simultaneous update); returns the final (E, I) and each step's ReLU
    gates, which the backward through the unrolled steps needs."""
    if not np.all(np.isfinite(s)):
        raise dcg.NumericFault("non-finite input to oscillator")
    e = np.zeros_like(s)
    i = np.zeros_like(s)
    gates = []
    for _ in range(p.n_steps):
        pre_e = p.e1 * e + p.e2 * i + s - p.tau_e
        pre_i = p.i1 * e + p.i2 * i - p.tau_i
        gate_e = (pre_e > 0.0).astype(np.float64)
        gate_i = (pre_i > 0.0).astype(np.float64)
        gates.append((gate_e, gate_i))
        e = pre_e * gate_e
        i = pre_i * gate_i
    return e, i, gates


def oscillator_iterate(s: np.ndarray, p: OscillatorParams) -> tuple[np.ndarray, np.ndarray]:
    """Run the recurrence for p.n_steps from E=I=0; returns final (E, I)."""
    e, i, _ = _recurrence(np.asarray(s, dtype=np.float64), p)
    return e, i


def oscillator_output(e: np.ndarray, i: np.ndarray, s: np.ndarray,
                      p: OscillatorParams) -> np.ndarray:
    """Osc = (E - I) * exp(min(-k*S^2, 50)) + ReLU(S), elementwise."""
    s = np.asarray(s, dtype=np.float64)
    expo = np.minimum(-p.k * s * s, EXP_CLAMP_HI)
    return (np.asarray(e) - np.asarray(i)) * np.exp(expo) + np.maximum(s, 0.0)


def _oscillate(s: np.ndarray, p: OscillatorParams):
    """Osc(s), and the map from its output gradient to the gradient in s."""
    e, i, gates = _recurrence(s, p)
    raw = -p.k * s * s
    decay = np.exp(np.minimum(raw, EXP_CLAMP_HI))
    emi = e - i

    def grad(g):
        # back through the unrolled recurrence from dE = g*decay, dI = -dE
        de = g * decay
        di = -de
        ds = np.zeros_like(de)
        for gate_e, gate_i in reversed(gates):
            deg = de * gate_e
            dig = di * gate_i
            ds += deg
            de = p.e1 * deg + p.i1 * dig
            di = p.e2 * deg + p.i2 * dig
        inside = raw <= EXP_CLAMP_HI
        ds = ds + g * emi * decay * (-2.0 * p.k) * s * inside
        return ds + g * (s > 0.0)

    return emi * decay + np.maximum(s, 0.0), grad


def osc_transform(s: Tensor, p: OscillatorParams) -> Tensor:
    """Differentiable Osc(S) as one graph node (validated by grad_check)."""
    data, grad = _oscillate(s.data, p)
    return _make(data, (s,), lambda g: _accum_owned(s, grad(g)), "oscillator")


def cnoa_attention(qh: Tensor, kh: Tensor, vh: Tensor, scale: float,
                   osc: OscillatorParams | None,
                   prev: np.ndarray | None) -> tuple[Tensor, np.ndarray]:
    """softmax(Osc(ReLU(q k^T)) * scale) @ v from heads-first [H, ..., L, d_h]
    projections to merged heads [..., Lq, H * d_h] as one graph node; also
    returns alpha. osc=None drops ReLU and Osc (the cross variant). gamma != 0
    damps each head by exp(-gamma * ||alpha - prev||_F^2), prev None or of
    another shape meaning the uniform sentinel. The float operations are the
    replaced chain's (tests/test_dcg.py keeps it), in its order."""
    k_t = np.swapaxes(kh.data, -1, -2)
    scores = np.matmul(qh.data, k_t)
    act = scores
    if osc is not None:
        act, osc_grad = _oscillate(np.maximum(scores, 0.0), osc)
    alpha = _softmax(act * scale, -1)
    ctx = np.matmul(alpha, vh.data)
    stabilized = osc is not None and osc.gamma != 0.0
    if stabilized:
        if prev is None or prev.shape != alpha.shape:
            prev = np.full(alpha.shape, 1.0 / alpha.shape[-1])
        diff = alpha - prev
        factor = np.exp((diff * diff).sum(axis=(-2, -1), keepdims=True) * -osc.gamma)
    # [H, ..., Lq, d_h] -> [..., Lq, H, d_h] -> [..., Lq, H * d_h]
    axes = (*range(1, ctx.ndim - 1), 0, ctx.ndim - 1)
    merged = np.transpose(ctx * factor if stabilized else ctx, axes)
    data = merged.reshape(merged.shape[:-2] + (-1,))

    def bwd(g):
        g_out = np.transpose(g.reshape(merged.shape), np.argsort(axes))
        g_ctx = g_out * factor if stabilized else g_out
        g_alpha = np.matmul(g_ctx, np.swapaxes(vh.data, -1, -2))
        if stabilized:  # one term per factor of diff * diff
            g_sq = _unbroadcast(g_out * ctx, factor.shape) * factor * -osc.gamma * diff
            g_alpha += g_sq + g_sq
        g_scores = _softmax_grad(g_alpha, alpha, -1) * scale
        if osc is not None:
            g_scores = osc_grad(g_scores) * (scores > 0.0)
        g_v = np.matmul(np.swapaxes(alpha, -1, -2), g_ctx)
        g_k = np.matmul(np.swapaxes(qh.data, -1, -2), g_scores)
        _accum_owned(vh, _unbroadcast(g_v, vh.data.shape))
        _accum_owned(qh, _unbroadcast(np.matmul(g_scores, kh.data), qh.data.shape))
        _accum_owned(kh, np.swapaxes(_unbroadcast(g_k, k_t.shape), -1, -2))

    # backward visits the first parent's branch first, as the chain did
    parents = (vh, qh, kh) if stabilized else (qh, kh, vh)
    return _make(data, parents, bwd, "cnoa_attention"), alpha


class CnoaAttention:
    """Multi-head attention with oscillator-transformed scores and a
    deviation-penalizing stabilizer, or plain scaled dot-product attention
    when osc is None (the cross variant, the ablation comparator).

    The projections are stacked [n_heads, d_in, head_dim] tensors and all
    heads run in one pass, heads-first. The previous attention distribution
    [n_heads, batch, Lq, Lk] is kept gradient-detached. It is reset to the
    uniform sentinel via reset_state() (epoch starts, evaluation starts) and
    the sentinel is used whenever the attention shape differs from the
    stored one. With update_state=False (evaluation) the state is frozen.
    """

    def __init__(self, registry: ParamRegistry, rng: np.random.Generator,
                 prefix: str, dim_q: int, dim_kv: int, dim_out: int,
                 n_heads: int, osc: OscillatorParams | None):
        if dim_out % n_heads != 0:
            raise ValueError(f"dim_out {dim_out} not divisible by n_heads {n_heads}")
        self.n_heads = n_heads
        self.head_dim = dim_out // n_heads
        self.osc = osc
        self._scale = 1.0 / np.sqrt(self.head_dim)

        def stacked(name, dim_in):
            return registry.weight(f"{prefix}.{name}", rng,
                                   (n_heads, dim_in, self.head_dim))

        self.wq = stacked("wq", dim_q)
        self.wk = stacked("wk", dim_kv)
        self.wv = stacked("wv", dim_kv)
        self.w_out = registry.weight(f"{prefix}.w_out", rng, (dim_out, dim_out))
        self._alpha_prev: np.ndarray | None = None

    def reset_state(self) -> None:
        self._alpha_prev = None

    def _heads(self, x: Tensor, w: Tensor, ndim: int) -> Tensor:
        """[..., L, d_in] -> [H, ..., L, head_dim], one gemm per head. Leading
        axes are padded with 1s up to ndim, so keys shared by the whole
        batch broadcast against batched queries."""
        proj = dcg.matmul(dcg.reshape(x, (1, -1, x.shape[-1])), w)
        lead = (1,) * (ndim - x.ndim) + x.shape[:-1]
        return dcg.reshape(proj, (self.n_heads,) + lead + (self.head_dim,))

    def __call__(self, q: Tensor, k: Tensor, v: Tensor,
                 update_state: bool = True) -> Tensor:
        if k.shape[-2] != v.shape[-2]:
            raise ValueError(
                f"key/value sequence lengths differ: {k.shape[-2]} vs {v.shape[-2]}")
        ndim = max(q.ndim, k.ndim, v.ndim)
        out, alpha = cnoa_attention(
            self._heads(q, self.wq, ndim), self._heads(k, self.wk, ndim),
            self._heads(v, self.wv, ndim), self._scale, self.osc, self._alpha_prev)
        if self.osc is not None and update_state:
            self._alpha_prev = alpha
        return dcg.matmul(out, self.w_out)
