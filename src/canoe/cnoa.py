"""Chaotic neural oscillatory attention.

Attention scores pass through an excitatory/inhibitory oscillator before
the softmax: S = ReLU(QK^T) drives the recurrence

    E(t+1) = ReLU(e1*E + e2*I + S - tau_e)
    I(t+1) = ReLU(i1*E + i2*I - tau_i)       E(1) = I(1) = 0

and the transformed score is

    Osc(S) = (E - I) * exp(min(-k*S^2, 50)) + ReLU(S).

The decay factor blends regimes: near S = 0 the chaotic difference E - I
dominates; for strong affinities the stable ReLU(S) term takes over. The
exponent is clamped from above only (overflow guard for negative k);
heavily negative exponents underflow to 0 harmlessly. A per-head stabilizer
exp(-gamma * ||alpha - alpha_prev||_F^2) damps abrupt shifts of the
attention distribution between consecutive forward passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dcg, kernels
from .dcg import ParamRegistry, Tensor
from .dcg.tensor import _accum_owned, _make

__all__ = [
    "EXP_CLAMP_HI", "OscillatorParams",
    "oscillator_iterate", "oscillator_output", "osc_transform",
    "CnoaAttention",
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


def oscillator_iterate(s: np.ndarray, p: OscillatorParams) -> tuple[np.ndarray, np.ndarray]:
    """Run the recurrence for p.n_steps from E=I=0; returns final (E, I)."""
    s = np.asarray(s, dtype=np.float64)
    if not np.all(np.isfinite(s)):
        raise dcg.NumericFault("non-finite input to oscillator_iterate")
    e, i, _, _ = kernels.oscillator_forward(
        s, p.e1, p.e2, p.i1, p.i2, p.tau_e, p.tau_i, p.n_steps)
    return e, i


def oscillator_output(e: np.ndarray, i: np.ndarray, s: np.ndarray,
                      p: OscillatorParams) -> np.ndarray:
    """Osc = (E - I) * exp(min(-k*S^2, 50)) + ReLU(S), elementwise."""
    s = np.asarray(s, dtype=np.float64)
    expo = np.minimum(-p.k * s * s, EXP_CLAMP_HI)
    return (np.asarray(e) - np.asarray(i)) * np.exp(expo) + np.maximum(s, 0.0)


def osc_transform(s: Tensor, p: OscillatorParams) -> Tensor:
    """Differentiable Osc(S) as one fused graph node.

    Forward runs kernels.oscillator_forward; backward unrolls the recurrence
    analytically through the stored ReLU gates (validated by grad_check).
    """
    if not np.all(np.isfinite(s.data)):
        raise dcg.NumericFault("non-finite input to oscillator")
    e, i, gates_e, gates_i = kernels.oscillator_forward(
        s.data, p.e1, p.e2, p.i1, p.i2, p.tau_e, p.tau_i, p.n_steps)
    raw = -p.k * s.data * s.data
    decay = np.exp(np.minimum(raw, EXP_CLAMP_HI))
    emi = e - i
    data = emi * decay + np.maximum(s.data, 0.0)

    def bwd(g):
        d_e = g * decay
        ds = kernels.oscillator_backward(d_e, -d_e, gates_e, gates_i,
                                         p.e1, p.e2, p.i1, p.i2)
        inside = raw <= EXP_CLAMP_HI
        ds = ds + g * emi * decay * (-2.0 * p.k) * s.data * inside
        ds = ds + g * (s.data > 0.0)
        _accum_owned(s, ds)

    return _make(data, (s,), bwd, "oscillator")


class CnoaAttention:
    """Multi-head attention with oscillator-transformed scores and a
    deviation-penalizing stabilizer, or plain scaled dot-product attention
    when variant="cross" (the ablation comparator).

    The projections are stacked [n_heads, d_in, head_dim] tensors and all
    heads run in one pass, heads-first. The previous attention distribution
    [n_heads, batch, Lq, Lk] is kept gradient-detached. It is reset to the
    uniform sentinel via reset_state() (epoch starts, evaluation starts) and
    the sentinel is used whenever the attention shape differs from the
    stored one. With update_state=False (evaluation) the state is frozen.
    """

    def __init__(self, registry: ParamRegistry, rng: np.random.Generator,
                 prefix: str, dim_q: int, dim_kv: int, dim_out: int,
                 n_heads: int, osc: OscillatorParams,
                 variant: str = "cnoa"):
        if dim_out % n_heads != 0:
            raise ValueError(f"dim_out {dim_out} not divisible by n_heads {n_heads}")
        if variant not in ("cnoa", "cross"):
            raise ValueError(f"unknown attention variant '{variant}'")
        self.n_heads = n_heads
        self.head_dim = dim_out // n_heads
        self.osc = osc
        self.variant = variant
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
        kh = self._heads(k, self.wk, ndim)
        k_t = dcg.transpose(kh, (*range(ndim - 1), ndim, ndim - 1))
        scores = dcg.matmul(self._heads(q, self.wq, ndim), k_t)
        if self.variant == "cnoa":
            scores = osc_transform(dcg.relu(scores), self.osc)
        alpha = dcg.softmax(scores * self._scale, axis=-1)
        out = dcg.matmul(alpha, self._heads(v, self.wv, ndim))
        if self.variant == "cnoa":
            if self.osc.gamma != 0.0:
                prev = self._alpha_prev
                if prev is None or prev.shape != alpha.shape:
                    prev = np.full(alpha.shape, 1.0 / alpha.shape[-1])
                diff = alpha - dcg.constant(prev)
                dev = dcg.tensor_sum(diff * diff, axis=(-2, -1), keepdims=True)
                out = out * dcg.exp(dev * (-self.osc.gamma))
            if update_state:
                self._alpha_prev = alpha.data
        # [H, ..., Lq, d_h] -> [..., Lq, H * d_h], heads concatenated
        out = dcg.transpose(out, (*range(1, ndim), 0, ndim))
        out = dcg.reshape(out, out.shape[:-2] + (-1,))
        return dcg.matmul(out, self.w_out)
