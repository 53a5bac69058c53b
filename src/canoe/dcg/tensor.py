"""Reverse-mode differentiable computation graph over float64 numpy arrays.

Small eager autograd: every operation returns a new Tensor holding its
value and, when gradients are enabled, a closure that scatters the output
gradient back to its parents. Graphs are built per forward pass and torn
down with it; tensors are confined to one thread for the duration of a
forward/backward pass.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor", "NumericFault", "no_grad", "set_debug_checks",
    "constant", "parameter", "backward",
    "add", "mul", "matmul",
    "relu",
    "tensor_sum", "softmax",
    "concat", "reshape",
    "gather_rows",
    "linear", "layer_norm", "masked_attention", "cross_entropy", "zero_fill",
]


class NumericFault(RuntimeError):
    """Raised when a non-finite value is produced by a graph operation."""


_state = threading.local()
_DEBUG_CHECKS = False


def _enabled() -> bool:
    return getattr(_state, "grad_enabled", True)


class no_grad:
    """Context manager disabling graph construction (evaluation paths)."""

    def __enter__(self):
        self._prev = _enabled()
        _state.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _state.grad_enabled = self._prev
        return False


def set_debug_checks(flag: bool) -> None:
    """Toggle per-operation finiteness checks (slow, for debugging)."""
    global _DEBUG_CHECKS
    _DEBUG_CHECKS = bool(flag)


class Tensor:
    """A node in the computation graph: float64 data plus optional grad."""

    # __weakref__ lets a caller see when a graph has been freed
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_op",
                 "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._op = "leaf"

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, op={self._op}, grad={self.grad is not None})"

    # Operator sugar; scalars are lifted to constant tensors.
    def __add__(self, other):
        return add(self, _lift(other))

    def __mul__(self, other):
        return mul(self, _lift(other))

    def __getitem__(self, idx) -> "Tensor":
        """Basic indexing only (ints, slices, None, ...): backward scatters
        the gradient into zeros of the input's shape, which would drop
        repeated entries of an index array (use gather_rows for those)."""
        data = self.data[idx].copy()

        def bwd(g):
            full = np.zeros_like(self.data)
            full[idx] = g
            _accum_owned(self, full)

        return _make(data, (self,), bwd, "slice")


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _make(data: np.ndarray, parents: Sequence[Tensor], backward_fn, op: str) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._op = op
    if _DEBUG_CHECKS and not np.all(np.isfinite(data)):
        raise NumericFault(f"non-finite value produced by operator '{op}'")
    if _enabled() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward = None
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    """Accumulate a gradient that something else still reads: copied on first use."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


def _accum_owned(t: Tensor, g: np.ndarray) -> None:
    """Accumulate a gradient nothing else reads or writes; ownership transfers
    on first use. That is a fresh array, or a view of the calling node's own
    gradient handed to exactly one parent: the node's consumers have all
    accumulated into it, and nothing reads it after the node's backward."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def backward(root: Tensor) -> None:
    """Populate .grad on every reachable requires_grad tensor with d root/d t.

    The root must be scalar (a single element). Grads accumulate, so callers
    zero parameter grads between independent passes.
    """
    if root.data.size != 1:
        raise ValueError(f"backward root must be scalar, got shape {root.data.shape}")
    if not np.all(np.isfinite(root.data)):
        raise NumericFault(f"non-finite root produced by operator '{root._op}'")
    if not root.requires_grad:
        return

    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))

    root.grad = np.ones_like(root.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def zero_fill(root: Tensor, params: Iterable[Tensor]) -> Tensor:
    """Identity on root whose backward also gives an exact-zero gradient to
    each of params that root's graph does not reach and that has no
    gradient yet.

    For a loss whose other terms carry zero weight and were computed without
    a graph: their parameters then end backward as the full graph, which
    sends them zeros, would leave them.
    """
    reached: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) not in reached:
            reached.add(id(node))
            stack.extend(node._parents)
    unreached = tuple(p for p in params
                      if p.requires_grad and id(p) not in reached)

    def bwd(g):
        _accum_owned(root, g)
        for p in unreached:
            if p.grad is None:
                p.grad = np.zeros_like(p.data)

    return _make(root.data, (root, *unreached), bwd, "zero_fill")


# ---------------------------------------------------------------------------
# elementwise arithmetic

def _accum_ub(t: Tensor, g: np.ndarray, own: bool = False) -> None:
    """Unbroadcast-then-accumulate a pass-through gradient; g itself is
    handed over only with own=True."""
    if not t.requires_grad:
        return
    gu = _unbroadcast(g, t.data.shape)
    if gu is g and not own:
        _accum(t, gu)
    else:
        _accum_owned(t, gu)


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def bwd(g):
        # The first of two distinct parents may take g; the second reads it
        # after that, so it gets a copy.
        _accum_ub(a, g, own=a is not b)
        _accum_ub(b, g)

    return _make(data, (a, b), bwd, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def bwd(g):
        if a.requires_grad:
            _accum_owned(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accum_owned(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(data, (a, b), bwd, "mul")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """np.matmul semantics for operands with ndim >= 2, leading axes broadcast."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError("matmul operands must have ndim >= 2")

    if b.data.ndim == 2:
        # Collapse leading axes into one gemm; also yields db directly
        # without reduction over broadcast batch dims.
        k, n = b.data.shape
        a2 = a.data.reshape(-1, k)
        data = (a2 @ b.data).reshape(a.data.shape[:-1] + (n,))

        def bwd(g):
            g2 = g.reshape(-1, n)
            if a.requires_grad:
                _accum_owned(a, (g2 @ b.data.T).reshape(a.data.shape))
            if b.requires_grad:
                _accum_owned(b, a2.T @ g2)

        return _make(data, (a, b), bwd, "matmul")

    data = np.matmul(a.data, b.data)

    def bwd(g):
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            _accum_owned(a, _unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            _accum_owned(b, _unbroadcast(gb, b.data.shape))

    return _make(data, (a, b), bwd, "matmul")


# ---------------------------------------------------------------------------
# elementwise nonlinearities

def relu(a: Tensor) -> Tensor:
    # Subgradient at 0 is 0.
    data = np.maximum(a.data, 0.0)

    def bwd(g):
        _accum_owned(a, g * (a.data > 0.0))

    return _make(data, (a,), bwd, "relu")


# ---------------------------------------------------------------------------
# reductions

def _axis_tuple(axis, ndim) -> tuple:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        return (axis % ndim,)
    return tuple(ax % ndim for ax in axis)


def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)
    axes = _axis_tuple(axis, a.data.ndim)

    def bwd(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        _accum(a, np.broadcast_to(g, a.data.shape))

    return _make(data, (a,), bwd, "sum")


def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    e /= e.sum(axis=axis, keepdims=True)
    return e


def _softmax_grad(g: np.ndarray, p: np.ndarray, axis: int) -> np.ndarray:
    """Input gradient of p = softmax(x) for output gradient g (fresh array)."""
    return p * (g - (g * p).sum(axis=axis, keepdims=True))


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    data = _softmax(a.data, axis)

    def bwd(g):
        _accum_owned(a, _softmax_grad(g, data, axis))

    return _make(data, (a,), bwd, "softmax")


# ---------------------------------------------------------------------------
# shape manipulation

def concat(parts: Iterable[Tensor], axis: int = -1) -> Tensor:
    parts = list(parts)
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for p, start, stop in zip(parts, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(start, stop)
            _accum_owned(p, g[tuple(idx)])  # disjoint views of g

    return _make(data, tuple(parts), bwd, "concat")


def reshape(a: Tensor, shape) -> Tensor:
    data = a.data.reshape(shape)

    def bwd(g):
        # g is this node's own gradient: its consumers have all accumulated
        # into it, and nothing reads it after this call, so its view is
        # handed over without a copy.
        _accum_owned(a, g.reshape(a.data.shape))

    return _make(data, (a,), bwd, "reshape")


# ---------------------------------------------------------------------------
# indexing

def gather_rows(table: Tensor, idx) -> Tensor:
    """Row lookup table[idx]; gradients accumulate into the gathered rows."""
    idx = np.asarray(idx)
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise IndexError(
            f"index out of range [0, {table.data.shape[0]}) in gather_rows"
        )
    data = table.data[idx].copy()

    def bwd(g):
        if not table.requires_grad:
            return
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        np.add.at(table.grad, idx, g)

    return _make(data, (table,), bwd, "gather_rows")


# ---------------------------------------------------------------------------
# fused nodes: each replaces a chain of primitive ops (tests/test_dcg.py
# keeps the chains), computes the chain's float operations in the same
# order, and accumulates into shared inputs in the order backward visited
# the chain, so gradients are bitwise the same.

def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b over the last axis of x; w is [d_in, d_out], b is [d_out]."""
    k, n = w.data.shape
    x2 = x.data.reshape(-1, k)
    data = (x2 @ w.data).reshape(x.data.shape[:-1] + (n,))
    data += b.data

    def bwd(g):
        _accum_ub(b, g)
        g2 = g.reshape(-1, n)
        if x.requires_grad:
            _accum_owned(x, (g2 @ w.data.T).reshape(x.data.shape))
        if w.requires_grad:
            _accum_owned(w, x2.T @ g2)

    return _make(data, (x, w, b), bwd, "linear")


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """(x - mean) / sqrt(var + eps) * gamma + beta over the last axis."""
    centered = x.data - x.data.mean(axis=-1, keepdims=True)
    var = (centered * centered).mean(axis=-1, keepdims=True)
    den = np.sqrt(var + eps)
    normed = centered / den
    data = normed * gamma.data
    data += beta.data
    count = x.data.shape[-1]

    def bwd(g):
        _accum_ub(beta, g)
        g_normed = g * gamma.data
        if gamma.requires_grad:
            _accum_owned(gamma, _unbroadcast(g * normed, gamma.data.shape))
        if not x.requires_grad:
            return
        # normed = centered / den, with den = sqrt(mean(centered^2) + eps)
        g_centered = g_normed / den
        g_den = _unbroadcast(-g_normed * centered / (den * den), den.shape)
        g_var = g_den * 0.5 / den
        g_sq = np.broadcast_to(g_var, centered.shape) / count
        # var = mean(centered * centered): one term per factor, added apart
        term = g_sq * centered
        g_centered += term
        g_centered += term
        # centered = x - mean(x)
        g_mean = _unbroadcast(-g_centered, den.shape)
        _accum_owned(x, g_centered)
        _accum_owned(x, np.broadcast_to(g_mean, x.data.shape) / count)

    return _make(data, (x, gamma, beta), bwd, "layer_norm")


def masked_attention(q: Tensor, k: Tensor, v: Tensor, heads: int,
                     mask: np.ndarray, scale: float) -> Tensor:
    """Multi-head softmax(q k^T * scale + mask) v for [B, L, dim] inputs.

    The heads are split from and merged back into the last axis inside the
    node, as views. mask is additive and broadcasts against [B, H, L, L]:
    0 for an open key, and for a blocked key a negative value large enough
    (such as -1e30) that its softmax weight is exactly 0. Every query row
    must keep at least one open key, as causal_mask's rows do; the blocked
    lanes are then set to exactly 0 without passing through exp, whose
    underflow path is slow.
    """
    batch, length, dim = q.data.shape

    def split(t):  # [B, L, dim] -> [B, H, L, dim/H]
        return np.transpose(t.reshape(batch, length, heads, -1), (0, 2, 1, 3))

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    scores = np.matmul(qh, np.transpose(kh, (0, 1, 3, 2)))
    scores *= scale
    scores += mask
    blocked = mask < 0
    scores -= scores.max(axis=-1, keepdims=True)
    np.copyto(scores, 0.0, where=blocked)
    alpha = np.exp(scores, out=scores)
    np.copyto(alpha, 0.0, where=blocked)
    alpha /= alpha.sum(axis=-1, keepdims=True)
    ctx = np.matmul(alpha, vh)
    data = np.transpose(ctx, (0, 2, 1, 3)).reshape(batch, length, dim)

    def merge(gh):  # [B, H, L, dim/H] -> [B, L, dim], a fresh array
        return np.transpose(gh, (0, 2, 1, 3)).reshape(batch, length, dim)

    def bwd(g):
        g_ctx = split(g)
        g_alpha = np.matmul(g_ctx, np.swapaxes(vh, -1, -2))
        g_v = merge(np.matmul(np.swapaxes(alpha, -1, -2), g_ctx))
        g_scores = _softmax_grad(g_alpha, alpha, -1) * scale
        g_q = merge(np.matmul(g_scores, kh))
        g_k = np.matmul(np.swapaxes(qh, -1, -2), g_scores)
        _accum_owned(q, g_q)
        _accum_owned(k, np.transpose(g_k, (0, 3, 1, 2)).reshape(batch, length, dim))
        _accum_owned(v, g_v)

    return _make(data, (q, k, v), bwd, "masked_attention")


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean negative log-probability of the target class, softmax over the
    last axis of logits; targets holds one class index per leading position."""
    targets = np.asarray(targets)
    n_classes = logits.data.shape[-1]
    if targets.size and (targets.min() < 0 or targets.max() >= n_classes):
        raise IndexError(f"target index out of range [0, {n_classes})")
    picks = np.expand_dims(targets, -1)
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    # (shifted - lse) at the targets: the log-probabilities picked from the
    # full log-softmax, without forming it
    picked = (np.take_along_axis(shifted, picks, axis=-1) - lse)[..., 0]
    data = -picked.mean()

    def bwd(g):
        full = np.zeros_like(logits.data)
        g_picked = np.broadcast_to(-g, targets.shape) / targets.size
        np.put_along_axis(full, picks, np.expand_dims(g_picked, -1), axis=-1)
        soft = np.exp(shifted - lse)
        _accum_owned(logits, full - soft * full.sum(axis=-1, keepdims=True))

    return _make(data, (logits,), bwd, "cross_entropy")
