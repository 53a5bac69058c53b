"""The excitatory/inhibitory oscillator recurrence, forward and backward.

From E(1) = I(1) = 0, iterate n_steps times, elementwise over the score
array s (simultaneous update):

  E' = ReLU(e1*E + e2*I + s - tau_e)
  I' = ReLU(i1*E + i2*I - tau_i)

Forward returns the final (E, I) plus the per-step ReLU gates needed to
backpropagate through the unrolled recurrence. Each step is vectorized over
the elements, so numpy is the only backend.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BACKEND", "NUMBA_ENABLED", "oscillator_forward", "oscillator_backward"]

# numpy is the only backend. Both names stay because the benchmark harness
# records BACKEND and reads NUMBA_ENABLED to report its backend-equality
# check as skipped.
BACKEND = "numpy"
NUMBA_ENABLED = False


def oscillator_forward(s: np.ndarray, e1: float, e2: float, i1: float,
                       i2: float, tau_e: float, tau_i: float, n_steps: int):
    s = np.asarray(s, dtype=np.float64)
    e = np.zeros_like(s)
    i = np.zeros_like(s)
    gates_e = np.empty((n_steps,) + s.shape, dtype=np.float64)
    gates_i = np.empty((n_steps,) + s.shape, dtype=np.float64)
    for t in range(n_steps):
        pre_e = e1 * e + e2 * i + s - tau_e
        pre_i = i1 * e + i2 * i - tau_i
        ge = (pre_e > 0.0).astype(np.float64)
        gi = (pre_i > 0.0).astype(np.float64)
        gates_e[t] = ge
        gates_i[t] = gi
        e = pre_e * ge
        i = pre_i * gi
    return e, i, gates_e, gates_i


def oscillator_backward(d_e: np.ndarray, d_i: np.ndarray,
                        gates_e: np.ndarray, gates_i: np.ndarray,
                        e1: float, e2: float, i1: float, i2: float) -> np.ndarray:
    """Gradient w.r.t. s given gradients w.r.t. the final (E, I)."""
    de = d_e.copy()
    di = d_i.copy()
    ds = np.zeros_like(de)
    for t in range(gates_e.shape[0] - 1, -1, -1):
        deg = de * gates_e[t]
        dig = di * gates_i[t]
        ds += deg
        de = e1 * deg + i1 * dig
        di = e2 * deg + i2 * dig
    return ds
