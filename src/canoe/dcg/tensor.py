"""Reverse-mode differentiable computation graph over float64 numpy arrays.

Small eager autograd: every operation returns a new Tensor holding its
value and, when gradients are enabled, a closure that scatters the output
gradient back to its parents. Graphs are built per forward pass and torn
down by the backward pass that walks them; tensors are confined to one
thread for the duration of a forward/backward pass, though a node may hand
row blocks of its arrays to worker threads (blocks.py) and wait for them.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from .blocks import run_row_blocks

__all__ = [
    "Tensor", "NumericFault", "no_grad",
    "constant", "parameter", "backward",
    "add", "mul", "matmul",
    "relu",
    "tensor_sum", "softmax",
    "concat", "reshape",
    "gather_rows", "row_cells", "scatter_rows",
    "linear", "transformer_layer", "cross_entropy", "zero_fill",
]


class NumericFault(RuntimeError):
    """Raised when a non-finite value reaches a check: a backward root, the
    oscillator's input, a training step's loss or updated parameters, or the
    location scores of a ranking forward."""


_state = threading.local()


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

    A graph is walked once. Each node drops its backward closure and its
    parents as soon as its backward has run, so the arrays a node saved for
    backward, and every interior node the caller does not hold, are freed
    during the walk. A held node keeps its .data and .grad, but a second
    backward through it, or through a new graph built on it, raises
    ValueError.
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
        if node._backward is None and node._op != "leaf":
            raise ValueError(
                f"graph through operator '{node._op}' was already walked by backward")
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))

    root.grad = np.ones_like(root.data)
    while topo:
        node = topo.pop()
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
        node._backward = None
        node._parents = ()


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
        if table.grad is not None:
            np.add.at(table.grad, idx, g)
            return
        width = math.prod(table.data.shape[1:])
        table.grad = scatter_rows(row_cells(idx, width), g, table.data.shape)

    return _make(data, (table,), bwd, "gather_rows")


def row_cells(idx, width: int) -> np.ndarray:
    """The flat indices of cells (idx[i], j), j < width, of an array of rows
    `width` wide: row idx[0]'s cells, then idx[1]'s, as np.add.at visits them."""
    return (np.asarray(idx).reshape(-1, 1) * width + np.arange(width)).ravel()


def scatter_rows(cells, values: np.ndarray, shape) -> np.ndarray:
    """np.add.at(np.zeros(shape), idx, values) for cells = row_cells(idx,
    width), bitwise, as one bincount: it too adds each cell's values into
    zero in index order, and is several times faster. (bincount returns
    int64 zeros for no cells, whatever the weights.)"""
    sums = np.bincount(cells, weights=values.ravel(), minlength=math.prod(shape))
    return sums.astype(np.float64, copy=False).reshape(shape)


# ---------------------------------------------------------------------------
# fused nodes: each replaces a chain of primitive ops (tests/test_dcg.py
# keeps the chains), computes the chain's float operations in the same
# order, and accumulates into shared inputs in the order backward visited
# the chain, so gradients are bitwise the same.

def _linear(x: np.ndarray, w: np.ndarray, b: np.ndarray,
            out: np.ndarray | None = None) -> np.ndarray:
    """x @ w + b over the last axis of x: one gemm, the bias added into its
    output, which is out when given (contiguous, of the output's shape)."""
    k, n = w.shape
    data = np.matmul(x.reshape(-1, k), w,
                     out=None if out is None else out.reshape(-1, n))
    data = data.reshape(x.shape[:-1] + (n,))
    data += b
    return data


def _linear_x_grad(g: np.ndarray, w: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """x gradient of _linear for output gradient g, g @ w.T over the last
    axis: a fresh array, or out (contiguous, of x's shape)."""
    k, n = w.shape
    g_x = np.matmul(g.reshape(-1, n), w.T,
                    out=None if out is None else out.reshape(-1, k))
    return g_x.reshape(g.shape[:-1] + (k,))


def _linear_w_grad(g: np.ndarray, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """w gradient of _linear for output gradient g: one gemm over every row.
    The b gradient is _unbroadcast(g, b.shape)."""
    k, n = w.shape
    return x.reshape(-1, k).T @ g.reshape(-1, n)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b over the last axis of x; w is [d_in, d_out], b is [d_out]."""
    data = _linear(x.data, w.data, b.data)

    def bwd(g):
        _accum_ub(b, g)
        if x.requires_grad:
            _accum_owned(x, _linear_x_grad(g, w.data))
        _accum_owned(w, _linear_w_grad(g, x.data, w.data))

    return _make(data, (x, w, b), bwd, "linear")


_LN_EPS = 1e-5


def _layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                out: np.ndarray | None = None,
                den: np.ndarray | None = None) -> tuple:
    """(out, centered, den) of out = (x - mean) / den * gamma + beta over
    the last axis, den = sqrt(var + eps). x is overwritten: centered is x
    minus its mean, in place. out and den are written into when given."""
    x -= x.mean(axis=-1, keepdims=True)
    out = np.multiply(x, x, out=out)
    den = np.sqrt(out.mean(axis=-1, keepdims=True) + _LN_EPS, out=den)
    np.divide(x, den, out=out)
    out *= gamma
    out += beta
    return out, x, den


def _layer_norm_grad(g: np.ndarray, gamma: np.ndarray, centered: np.ndarray,
                     den: np.ndarray, terms: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
    """x gradient of _layer_norm for output gradient g: a fresh array, or
    out. The gamma gradient's terms centered / den * g are written into
    terms; the gamma gradient is _unbroadcast(terms, gamma.shape), the beta
    gradient _unbroadcast(g, beta.shape). Every row is its own."""
    count = centered.shape[-1]
    np.divide(centered, den, out=terms)  # normed
    terms *= g
    g_x = np.multiply(g, gamma, out=out)  # the gradient of normed, then of centered
    # normed = centered / den, with den = sqrt(mean(centered^2) + eps)
    t = np.negative(g_x)
    t *= centered
    t /= den * den
    g_var = _unbroadcast(t, den.shape) * 0.5 / den
    g_x /= den
    # var = mean(centered * centered): one term per factor, added apart
    np.divide(np.broadcast_to(g_var, t.shape), count, out=t)
    t *= centered
    g_x += t
    g_x += t
    # centered = x - mean(x)
    np.negative(g_x, out=t)
    g_mean = _unbroadcast(t, den.shape)
    np.divide(np.broadcast_to(g_mean, t.shape), count, out=t)
    g_x += t
    return g_x


def _split_heads(t: np.ndarray, heads: int) -> np.ndarray:
    """[B, L, dim] -> [B, H, L, dim/H], a view."""
    batch, length, _ = t.shape
    return np.transpose(t.reshape(batch, length, heads, -1), (0, 2, 1, 3))


def _merge_heads(t: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """[B, H, L, dim/H] -> [B, L, dim], a fresh array, or copied into out
    (contiguous)."""
    batch, heads, length, width = t.shape
    merged = np.transpose(t, (0, 2, 1, 3))
    if out is None:
        return merged.reshape(batch, length, heads * width)
    out.reshape(batch, length, heads, width)[...] = merged
    return out


def _attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, heads: int,
               mask: np.ndarray, scale: float, ctx: np.ndarray | None = None,
               alpha: np.ndarray | None = None) -> tuple:
    """(context [B, L, dim], weights [B, H, L, L]) of multi-head
    softmax(q k^T * scale + mask) v for [B, L, dim] inputs, written into
    ctx and alpha when given.

    mask is additive and broadcasts against [B, H, L, L]: 0 for an open
    key, and for a blocked key a negative value large enough (such as
    -1e30) that its softmax weight is exactly 0. Every query row must keep
    at least one open key, as causal_mask's rows do; the blocked lanes are
    then set to exactly 0 without passing through exp, whose underflow path
    is slow.
    """
    qh, kh = _split_heads(q, heads), _split_heads(k, heads)
    scores = np.matmul(qh, np.transpose(kh, (0, 1, 3, 2)), out=alpha)
    scores *= scale
    scores += mask
    blocked = mask < 0
    scores -= scores.max(axis=-1, keepdims=True)
    np.copyto(scores, 0.0, where=blocked)
    alpha = np.exp(scores, out=scores)
    np.copyto(alpha, 0.0, where=blocked)
    alpha /= alpha.sum(axis=-1, keepdims=True)
    return _merge_heads(np.matmul(alpha, _split_heads(v, heads)), ctx), alpha


def _attention_grad(g: np.ndarray, q: np.ndarray, k: np.ndarray,
                    v: np.ndarray, alpha: np.ndarray, heads: int,
                    scale: float, out: tuple | None = None) -> tuple:
    """(q, k, v gradients) of _attention for context gradient g. The k
    gradient is a strided [B, L, dim] view of a [B, H, dim/H, L] array.
    They are fresh, or written into out: contiguous arrays shaped [B, L,
    dim], [B, H, dim/H, L] and [B, L, dim]."""
    g_q, g_k, g_v = out or (None, None, None)
    qh, kh, vh = (_split_heads(t, heads) for t in (q, k, v))
    g_ctx = _split_heads(g, heads)
    g_alpha = np.matmul(g_ctx, np.swapaxes(vh, -1, -2))
    g_v = _merge_heads(np.matmul(np.swapaxes(alpha, -1, -2), g_ctx), g_v)
    g_scores = _softmax_grad(g_alpha, alpha, -1)
    g_scores *= scale
    g_q = _merge_heads(np.matmul(g_scores, kh), g_q)
    g_k = np.matmul(np.swapaxes(qh, -1, -2), g_scores, out=g_k)
    return g_q, np.transpose(g_k, (0, 3, 1, 2)).reshape(k.shape), g_v


def transformer_layer(x: Tensor, params: Sequence[Tensor], heads: int,
                      mask: np.ndarray, scale: float,
                      dropout: tuple | None = None) -> Tensor:
    """One post-LN encoder layer over x [B, L, dim], as one node:

        h = LN1(x + o(attention(q(x), k(x), v(x))) * drop1)
        out = LN2(h + ff2(relu(ff1(h))) * drop2)

    params are the 16 tensors q.w, q.b, k.w, k.b, v.w, v.b, o.w, o.b,
    ln1.gamma, ln1.beta, ff1.w, ff1.b, ff2.w, ff2.b, ln2.gamma, ln2.beta;
    each projection is _linear, attention is _attention over `heads` heads
    with mask and scale, LN is _layer_norm. dropout is None or (rate,
    keep1, keep2): the rate and two bool [B, L, dim] keep-masks, drawn by
    the caller for the whole batch; dropI is keepI * (1 / (1 - rate)), and
    a product with it is formed as (t * keepI) * (1 / (1 - rate)), the
    same bits as keepI is 0 or 1.

    Row blocks (blocks.run_row_blocks): the B rows are cut into contiguous
    blocks, one per usable CPU and none under MIN_BLOCK_ROWS rows, run the
    first on the calling thread and the others on worker threads. The
    forward is one pass of blocks, whose outputs are concatenated. With a
    graph, each block also writes its rows of [B, ...] arrays of everything
    backward reads; without one, it keeps its own temporaries. Backward is
    two passes: LN2 to LN1, then o, attention and the x gradient. A pass
    does the row-wise work: layer-norm x gradients and gamma terms
    centered / den * g, the input gemms g @ w.T, the relu mask, the
    attention gradient, and the residual, q, k and v terms added into x in
    that order, the order in which backward visits the layer written as a
    chain of nodes. After each pass the reductions over rows of what it
    filled run once, on the calling thread and on the [B, ...] arrays: each
    weight gemm x.T @ g and each bias and gamma sum; each array is freed
    once reduced. The k gradient keeps _attention_grad's [B, H, dim/H, L]
    layout, in whose memory order k.b's sum reads it. No float operation
    depends on the blocking, so the output and every gradient are bitwise
    the one-block node's.
    """
    qw, qb, kw, kb, vw, vb, ow, ob, g1, b1, w1, c1, w2, c2, g2, b2 = params
    parents = (x, *params)
    keep = _enabled() and any(p.requires_grad for p in parents)
    batch, length, dim = x.shape
    if dropout is not None:
        rate, keep1, keep2 = dropout
        inv_keep = 1.0 / (1.0 - rate)
    full = {}  # what backward reads, [B, ...] arrays the blocks fill
    if keep:
        full = {name: np.empty((batch,) + shape) for name, shape in (
            ("q", (length, dim)), ("k", (length, dim)), ("v", (length, dim)),
            ("alpha", (heads, length, length)), ("ctx", (length, dim)),
            ("centered1", (length, dim)), ("den1", (length, 1)),
            ("h", (length, dim)), ("f", (length, w1.shape[1])),
            ("centered2", (length, dim)), ("den2", (length, 1)))}

    def forward_rows(lo, hi):
        part = {name: a[lo:hi] for name, a in full.items()}.get  # None: fresh
        x_rows = x.data[lo:hi]
        q, k, v = (_linear(x_rows, w.data, b.data, part(name))
                   for name, w, b in (("q", qw, qb), ("k", kw, kb), ("v", vw, vb)))
        ctx, alpha = _attention(q, k, v, heads, mask, scale, part("ctx"),
                                part("alpha"))
        del q, k, v, alpha
        r1 = _linear(ctx, ow.data, ob.data, part("centered1"))
        del ctx
        if dropout is not None:
            r1 *= keep1[lo:hi]
            r1 *= inv_keep
        r1 += x_rows
        h = _layer_norm(r1, g1.data, b1.data, part("h"), part("den1"))[0]
        del r1
        f = _linear(h, w1.data, c1.data, part("f"))
        np.maximum(f, 0.0, out=f)
        r2 = _linear(f, w2.data, c2.data, part("centered2"))
        del f
        if dropout is not None:
            r2 *= keep2[lo:hi]
            r2 *= inv_keep
        r2 += h
        return _layer_norm(r2, g2.data, b2.data, den=part("den2"))[0]

    outs = run_row_blocks(batch, forward_rows)
    data = outs[0] if len(outs) == 1 else np.concatenate(outs)

    def bwd(g):
        q, k, v, alpha, ctx, centered1, den1, h, f, centered2, den2 = (
            full[name] for name in ("q", "k", "v", "alpha", "ctx", "centered1",
                                    "den1", "h", "f", "centered2", "den2"))
        # The [B, ...] gradients the reductions read. Without dropout g_f2
        # is the gradient of r2 itself, and g_o that of r1.
        terms2, g_f2, g_h, terms1, g_r1 = (np.empty(x.shape) for _ in range(5))
        g_f = np.empty(f.shape)
        g_o = g_r1 if dropout is None else np.empty(x.shape)

        def ff_rows(lo, hi):  # LN2, ff2, relu, ff1 and LN1
            rows = slice(lo, hi)
            g_r2 = _layer_norm_grad(g[rows], g2.data, centered2[rows],
                                    den2[rows], terms2[rows],
                                    None if dropout else g_f2[rows])
            if dropout is not None:
                np.multiply(g_r2, keep2[rows], out=g_f2[rows])
                g_f2[rows] *= inv_keep
            g_f_rows = _linear_x_grad(g_f2[rows], w2.data, g_f[rows])
            g_f_rows *= f[rows] > 0.0  # relu's output is positive where its input was
            # the gradient of h: the residual's term, then ff1's
            g_h_rows = np.add(g_r2, _linear_x_grad(g_f_rows, w1.data, g_h[rows]),
                              out=g_h[rows])
            _layer_norm_grad(g_h_rows, g1.data, centered1[rows], den1[rows],
                             terms1[rows], g_r1[rows])
            if dropout is not None:
                np.multiply(g_r1[rows], keep1[rows], out=g_o[rows])
                g_o[rows] *= inv_keep

        run_row_blocks(batch, ff_rows)
        # the reductions over rows, each array freed once reduced
        _accum_ub(b2, g)
        _accum_owned(g2, _unbroadcast(terms2, g2.data.shape))
        _accum_ub(c2, g_f2)
        _accum_owned(w2, _linear_w_grad(g_f2, f, w2.data))
        _accum_ub(c1, g_f)
        _accum_owned(w1, _linear_w_grad(g_f, h, w1.data))
        _accum_ub(b1, g_h)
        _accum_owned(g1, _unbroadcast(terms1, g1.data.shape))
        del terms2, g_f2, g_f, g_h, terms1
        # x's gradient takes g_r1 over, or adds it in below; g_o may be
        # g_r1 itself, which each block reads before it adds into x
        need_x = x.requires_grad
        add_r1 = need_x and x.grad is not None
        if need_x and not add_r1:
            x.grad = g_r1
        _accum_ub(ob, g_o)
        _accum_owned(ow, _linear_w_grad(g_o, ctx, ow.data))
        g_q, g_v = np.empty(x.shape), np.empty(x.shape)
        g_kh = np.empty((batch, heads, dim // heads, length))  # k's layout

        def attention_rows(lo, hi):  # o, attention, and q, k, v into x
            rows = slice(lo, hi)
            g_qkv = _attention_grad(_linear_x_grad(g_o[rows], ow.data),
                                    q[rows], k[rows], v[rows], alpha[rows],
                                    heads, scale, (g_q[rows], g_kh[rows], g_v[rows]))
            if not need_x:
                return
            acc = x.grad[rows]
            if add_r1:
                acc += g_r1[rows]
            for g_p, w in zip(g_qkv, (qw, kw, vw)):
                acc += _linear_x_grad(g_p, w.data)

        run_row_blocks(batch, attention_rows)
        del g_o, g_r1
        g_k = np.transpose(g_kh, (0, 3, 1, 2)).reshape(x.shape)
        for (w, b), g_p in zip(((qw, qb), (kw, kb), (vw, vb)), (g_q, g_k, g_v)):
            _accum_ub(b, g_p)
            _accum_owned(w, _linear_w_grad(g_p, x.data, w.data))

    return _make(data, parents, bwd, "transformer_layer")


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
