"""Autodiff core: operator gradients, backward contracts, AdamW, grad_check."""

import threading
import time
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from canoe import dcg
from canoe.cnoa import (CnoaAttention, OscillatorParams, cnoa_attention,
                        osc_transform)
from canoe.dcg import AdamW, Linear, ParamRegistry, blocks, grad_check
from canoe.dcg import tensor as tensor_mod
from canoe.dcg.tensor import (_accum, _accum_owned, _accum_ub, _attention,
                              _attention_grad, _axis_tuple, _layer_norm,
                              _layer_norm_grad, _make, _unbroadcast)


class TestBackwardContracts:
    def test_sum_gradient_is_ones(self):
        x = dcg.parameter([1.0, 2.0, 3.0])
        dcg.backward(dcg.tensor_sum(x))
        np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_relu_gate_with_zero_subgradient(self):
        x = dcg.parameter([-1.0, 0.0, 2.0])
        dcg.backward(dcg.tensor_sum(dcg.relu(x)))
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])

    def test_softmax_rows_sum_to_constant(self):
        rng = np.random.default_rng(0)
        x = dcg.parameter(rng.normal(size=(4, 7)) * 3)
        dcg.backward(dcg.tensor_sum(dcg.softmax(x)))
        np.testing.assert_allclose(x.grad, 0.0, atol=1e-12)

    def test_non_scalar_root_rejected(self):
        x = dcg.parameter([1.0, 2.0])
        with pytest.raises(ValueError, match="scalar"):
            dcg.backward(dcg.relu(x))

    def test_unreachable_grads_untouched(self):
        x = dcg.parameter([1.0])
        y = dcg.parameter([2.0])
        dcg.backward(dcg.tensor_sum(x * 3.0))
        assert y.grad is None

    def test_grad_accumulates_across_paths(self):
        x = dcg.parameter([2.0])
        out = dcg.tensor_sum(x * x + x * 3.0)
        dcg.backward(out)
        np.testing.assert_allclose(x.grad, [2 * 2.0 + 3.0])
        # Reshape hands its gradient's view to its input; the other paths
        # into the shared input must still add onto it.
        x = dcg.parameter(np.arange(6.0))
        c = np.arange(6.0) + 10.0
        h = x * 2.0
        twice = dcg.reshape(dcg.reshape(h, (2, 3)), (6,))
        out = (dcg.tensor_sum(twice * c) + dcg.tensor_sum(h * h)
               + dcg.tensor_sum(dcg.reshape(h, (3, 2)) * 3.0))
        dcg.backward(out)
        np.testing.assert_allclose(x.grad, 2.0 * (c + 2.0 * h.data + 3.0))

    def test_nan_root_raises_numeric_fault(self):
        x = dcg.parameter([1000.0])
        with np.errstate(over="ignore"):
            with pytest.raises(dcg.NumericFault):
                dcg.backward(dcg.tensor_sum(_exp(x)))

    def test_no_grad_builds_no_graph(self):
        x = dcg.parameter([1.0, 2.0])
        with dcg.no_grad():
            y = dcg.tensor_sum(x * x)
        assert not y.requires_grad
        assert y._parents == ()

    def test_zero_fill_gives_unreached_params_zero_gradients(self):
        x = dcg.parameter([1.0, 2.0])
        y = dcg.parameter(np.ones((2, 3)))  # reached only without a graph
        z = dcg.parameter([5.0])            # already holds a gradient
        z.grad = np.array([4.0])
        with dcg.no_grad():
            off = dcg.tensor_sum(y * 2.0)
        root = dcg.tensor_sum(x * x) + off * 0.0
        out = dcg.zero_fill(root, [x, y, z])
        assert out.item() == root.item()
        dcg.backward(out)
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])
        assert y.grad.shape == (2, 3) and not y.grad.any()
        np.testing.assert_array_equal(z.grad, [4.0])


class TestSingleWalk:
    """backward walks a graph once and frees it as it goes."""

    def test_second_backward_raises(self):
        x = dcg.parameter([1.0, 2.0])
        root = dcg.tensor_sum(x * 3.0)
        dcg.backward(root)
        with pytest.raises(ValueError, match="'sum' was already walked"):
            dcg.backward(root)
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])

    def test_walked_interior_in_new_graph_raises(self):
        x = dcg.parameter([1.0, 2.0])
        h = x * 3.0
        dcg.backward(dcg.tensor_sum(h))
        assert h.grad is not None and h.data is not None
        with pytest.raises(ValueError, match="'mul' was already walked"):
            dcg.backward(dcg.tensor_sum(h * h))

    def test_interior_nodes_freed_during_the_walk(self):
        rng = np.random.default_rng(6)
        mask = np.triu(np.full((3, 3), -1e30), k=1)
        params = [dcg.parameter(rng.normal(size=s))
                  for s in _layer_param_shapes(4, 6)]
        x = dcg.parameter(rng.normal(size=(2, 3, 4)))
        drop = _dropout_masks(rng, (2, 3, 4))
        first = dcg.transformer_layer(x, params, 2, mask, 0.6, drop)
        root = dcg.tensor_sum(
            dcg.transformer_layer(first, params, 2, mask, 0.6, drop))
        first_ref = weakref.ref(first)
        del first  # now only the graph holds it
        assert first_ref() is not None
        dcg.backward(root)
        assert first_ref() is None
        assert root._parents == () and root._backward is None
        assert x.grad is not None and all(p.grad is not None for p in params)


class TestOperatorsAgainstFiniteDifferences:
    """Every op's backward checked against central differences on random data."""

    def _check(self, build, shapes, seed=0, eps=1e-6, tol=1e-7):
        rng = np.random.default_rng(seed)
        reg = ParamRegistry()
        for i, shape in enumerate(shapes):
            reg.register(f"p{i}", rng.normal(size=shape) * 0.7 + 0.1)

        def loss_fn(r):
            return build(*(r[f"p{i}"] for i in range(len(shapes))))

        assert grad_check(loss_fn, reg, eps) < tol

    def test_add_sub_mul_broadcast(self):
        self._check(lambda a, b: dcg.tensor_sum(_sub(a * b + a, b)),
                    [(3, 4), (1, 4)])

    def test_matmul_2d(self):
        self._check(lambda a, b: dcg.tensor_sum(dcg.matmul(a, b) * 0.3),
                    [(3, 4), (4, 5)])

    def test_matmul_batched(self):
        self._check(
            lambda a, b: dcg.tensor_sum(dcg.matmul(a, _transpose(b, (0, 2, 1)))),
            [(2, 3, 4), (2, 5, 4)])

    def test_exp(self):
        self._check(lambda a: dcg.tensor_sum(_exp(a) * (a * a + 1.0)),
                    [(4, 3)])

    def test_reductions_and_softmax(self):
        self._check(
            lambda a: dcg.tensor_sum(
                dcg.softmax(a, axis=-1) * dcg.tensor_sum(a, axis=0, keepdims=True))
            + dcg.tensor_sum(dcg.tensor_sum(a, axis=-1) * a[:, 0]),
            [(3, 5)])

    def test_concat_slice_reshape(self):
        def build(a, b):
            c = dcg.concat([a, b], axis=1)
            s = c[:, 1:4]
            return dcg.tensor_sum(dcg.reshape(s, (6,)) * 2.0)

        self._check(build, [(2, 2), (2, 3)])

    def test_gather_and_cross_entropy(self):
        def build(a):
            rows = dcg.gather_rows(a, np.array([0, 2, 2, 1]))
            return dcg.cross_entropy(rows, np.array([1, 0, 2, 2]))

        self._check(build, [(3, 4)])

    def test_cross_entropy(self):
        targets = np.array([[4, 0, 4], [1, 2, 3]])  # leading axes [2, 3]
        self._check(lambda a: dcg.cross_entropy(a * 2.0, targets) * 1.5,
                    [(2, 3, 5)])

    def test_linear(self):
        def build(x, w, b):
            y = dcg.linear(x, w, b)
            return dcg.tensor_sum(y * y)

        self._check(build, [(2, 3, 4), (4, 5), (5,)])

    def test_layer_norm(self):
        c = np.random.default_rng(1).normal(size=(2, 3, 5))
        self._check(
            lambda x, g, b: dcg.tensor_sum(_layer_norm_node(x, g, b) * c),
            [(2, 3, 5), (5,), (5,)])

    def test_masked_attention(self):
        c = np.random.default_rng(2).normal(size=(2, 4, 6))
        mask = np.triu(np.full((4, 4), -1e30), k=1)
        self._check(
            lambda q, k, v: dcg.tensor_sum(
                _attention_node(q, k, v, 2, mask, 0.6) * c),
            [(2, 4, 6)] * 3)

    def test_transformer_layer_with_dropout(self):
        c = np.random.default_rng(1).normal(size=(2, 3, 4))
        mask = np.triu(np.full((3, 3), -1e30), k=1)
        drop = _dropout_masks(np.random.default_rng(2), (2, 3, 4))
        self._check(
            lambda x, *params: dcg.tensor_sum(
                dcg.transformer_layer(x, params, 2, mask, 0.6, drop) * c),
            [(2, 3, 4)] + _layer_param_shapes(4, 6))

    def test_repeated_gather_sums_gradients(self):
        table = dcg.parameter(np.arange(6.0).reshape(3, 2))
        out = dcg.tensor_sum(dcg.gather_rows(table, [1])
                             + dcg.gather_rows(table, [1]))
        dcg.backward(out)
        np.testing.assert_array_equal(table.grad,
                                      [[0, 0], [2, 2], [0, 0]])

    @pytest.mark.parametrize("table_shape", [(7, 3), (7,)])
    def test_gather_gradient_matches_add_at_bitwise(self, table_shape):
        # The first lookup's backward fills an empty gradient (bincount),
        # the second adds onto it (np.add.at); repeated indices and rows
        # never picked on both.
        rng = np.random.default_rng(8)
        table = dcg.parameter(rng.normal(size=table_shape))
        picks = [rng.integers(0, 5, size=(6, 9)), rng.integers(2, 5, size=40)]
        weights = [rng.normal(size=idx.shape + table_shape[1:]) for idx in picks]
        terms = [dcg.tensor_sum(dcg.gather_rows(table, idx) * w)
                 for idx, w in zip(picks, weights)]
        dcg.backward(terms[0] + terms[1])
        want = np.zeros(table_shape)
        for idx, w in zip(picks, weights):
            np.add.at(want, idx, w)
        assert np.array_equal(table.grad, want)
        assert table.grad.flags.c_contiguous
        empty = dcg.parameter(np.ones((4, 2)))
        dcg.backward(dcg.tensor_sum(dcg.gather_rows(empty, np.zeros((0,), int))))
        assert np.array_equal(empty.grad, np.zeros((4, 2)))

    # values of every magnitude, so that another summation order would
    # change bits; repeated rows, rows never picked, and no rows at all
    @pytest.mark.parametrize("shape", [(9,), (9, 5), (9, 1), (0,), (0, 3)])
    def test_scatter_rows_equals_add_at_into_zeros(self, shape):
        rng = np.random.default_rng(shape[-1])
        idx = rng.integers(2, 7, size=shape[0])
        values = rng.normal(size=shape) * 10.0 ** rng.integers(-12, 12, size=shape)
        want = np.zeros((8,) + shape[1:])
        np.add.at(want, idx, values)
        width = shape[1] if len(shape) == 2 else 1
        got = dcg.scatter_rows(dcg.row_cells(idx, width), values, want.shape)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _layer_norm_node(x, gamma, beta):
    """transformer_layer's layer norm kernels as a node of their own."""
    out, centered, den = _layer_norm(x.data.copy(), gamma.data, beta.data)

    def bwd(g):
        terms = np.empty_like(centered)
        _accum_owned(x, _layer_norm_grad(g, gamma.data, centered, den, terms))
        _accum_owned(gamma, _unbroadcast(terms, gamma.data.shape))
        _accum(beta, _unbroadcast(g, beta.data.shape))
    return _make(out, (x, gamma, beta), bwd, "layer_norm")


def _attention_node(q, k, v, heads, mask, scale):
    """transformer_layer's attention kernels as a node of their own."""
    ctx, alpha = _attention(q.data, k.data, v.data, heads, mask, scale)

    def bwd(g):
        grads = _attention_grad(g, q.data, k.data, v.data, alpha, heads, scale)
        for t, grad in zip((q, k, v), grads):
            _accum_owned(t, grad)
    return _make(ctx, (q, k, v), bwd, "attention")


def _div(a, b):
    """The primitive division node of the layer norm transformer_layer fuses."""
    def bwd(g):
        _accum_owned(a, _unbroadcast(g / b.data, a.data.shape))
        _accum_owned(b, _unbroadcast(-g * a.data / (b.data * b.data),
                                     b.data.shape))

    return _make(a.data / b.data, (a, b), bwd, "div")


def _sqrt(a):
    data = np.sqrt(a.data)
    return _make(data, (a,), lambda g: _accum_owned(a, g * 0.5 / data), "sqrt")


def _neg(a):
    """The primitive nodes the fused cross_entropy replaced; _mean is also
    the layer norm's."""
    return _make(-a.data, (a,), lambda g: _accum_owned(a, -g), "neg")


def _mean(a, axis=None, keepdims=False):
    data = a.data.mean(axis=axis, keepdims=keepdims)
    axes = _axis_tuple(axis, a.data.ndim)
    count = int(np.prod([a.data.shape[ax] for ax in axes]))

    def bwd(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        _accum_owned(a, np.broadcast_to(g, a.data.shape) / count)

    return _make(data, (a,), bwd, "mean")


def _log_softmax(a):
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    data = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    soft = np.exp(data)

    def bwd(g):
        _accum_owned(a, g - soft * g.sum(axis=-1, keepdims=True))

    return _make(data, (a,), bwd, "log_softmax")


def _take_along_last(a, idx):
    expanded = np.expand_dims(idx, -1)
    data = np.take_along_axis(a.data, expanded, axis=-1)[..., 0]

    def bwd(g):
        full = np.zeros_like(a.data)
        np.put_along_axis(full, expanded, np.expand_dims(g, -1), axis=-1)
        _accum_owned(a, full)

    return _make(data, (a,), bwd, "take_along_last")


def _sub(a, b):
    """The primitive nodes the fused cnoa_attention replaced; _sub is also
    the layer norm's."""
    def bwd(g):
        _accum_ub(a, g, own=True)
        if b.requires_grad:
            _accum_owned(b, _unbroadcast(-g, b.data.shape))

    return _make(a.data - b.data, (a, b), bwd, "sub")


def _exp(a):
    data = np.exp(a.data)
    return _make(data, (a,), lambda g: _accum_owned(a, g * data), "exp")


def _transpose(a, axes):
    inverse = np.argsort(axes)
    return _make(np.transpose(a.data, axes), (a,),
                 lambda g: _accum_owned(a, np.transpose(g, inverse)), "transpose")


def _composite_linear(x, w, b):
    return dcg.matmul(x, w) + b


def _composite_layer_norm(x, gamma, beta):
    centered = _sub(x, _mean(x, axis=-1, keepdims=True))
    var = _mean(centered * centered, axis=-1, keepdims=True)
    return _div(centered, _sqrt(var + 1e-5)) * gamma + beta


def _composite_attention(q, k, v, heads, mask, scale):
    batch, length, dim = q.shape

    def split(t):
        t = dcg.reshape(t, (batch, length, heads, dim // heads))
        return _transpose(t, (0, 2, 1, 3))

    q, k, v = split(q), split(k), split(v)
    scores = dcg.matmul(q, _transpose(k, (0, 1, 3, 2))) * scale
    alpha = dcg.softmax(scores + dcg.constant(mask), axis=-1)
    ctx = _transpose(dcg.matmul(alpha, v), (0, 2, 1, 3))
    return dcg.reshape(ctx, (batch, length, dim))


def _composite_layer(x, params, heads, mask, scale, dropout=None):
    """The transformer layer as the chain of nodes transformer_layer
    replaces."""
    qw, qb, kw, kb, vw, vb, ow, ob, g1, b1, w1, c1, w2, c2, g2, b2 = params
    ctx = _composite_attention(dcg.linear(x, qw, qb), dcg.linear(x, kw, kb),
                               dcg.linear(x, vw, vb), heads, mask, scale)
    attended = dcg.linear(ctx, ow, ob)
    if dropout is not None:
        attended = attended * dcg.constant(dropout[0])
    h = _composite_layer_norm(x + attended, g1, b1)
    ff = dcg.linear(dcg.relu(dcg.linear(h, w1, c1)), w2, c2)
    if dropout is not None:
        ff = ff * dcg.constant(dropout[1])
    return _composite_layer_norm(h + ff, g2, b2)


def _layer_param_shapes(dim, ff_width):
    """Shapes of transformer_layer's 16 parameters, in its order."""
    square = [(dim, dim), (dim,)]
    return (square * 4 + [(dim,), (dim,), (dim, ff_width), (ff_width,),
                          (ff_width, dim), (dim,), (dim,), (dim,)])


def _dropout_masks(rng, shape, rate=0.25):
    """The dropout TransformerLayer hands transformer_layer: the rate and
    two bool keep-masks."""
    return (rate, *(rng.random(shape) >= rate for _ in range(2)))


def _float_masks(drop):
    """The two inverted-dropout float masks drop stands for, as
    _composite_layer multiplies them."""
    rate, *keeps = drop
    return [keep / (1.0 - rate) for keep in keeps]


def _composite_cross_entropy(logits, targets):
    return _neg(_mean(_take_along_last(_log_softmax(logits), targets)))


def _composite_cnoa(qh, kh, vh, scale, osc, prev):
    nd = qh.ndim
    scores = dcg.matmul(qh, _transpose(kh, (*range(nd - 2), nd - 1, nd - 2)))
    if osc is not None:
        scores = osc_transform(dcg.relu(scores), osc)
    alpha = dcg.softmax(scores * scale, axis=-1)
    out = dcg.matmul(alpha, vh)
    if osc is not None and osc.gamma != 0.0:
        if prev is None or prev.shape != alpha.shape:
            prev = np.full(alpha.shape, 1.0 / alpha.shape[-1])
        diff = _sub(alpha, dcg.constant(prev))
        dev = dcg.tensor_sum(diff * diff, axis=(-2, -1), keepdims=True)
        out = out * _exp(dev * (-osc.gamma))
    out = _transpose(out, (*range(1, nd - 1), 0, nd - 1))
    return dcg.reshape(out, out.shape[:-2] + (-1,)), alpha.data


def _project(x, w, ndim):
    """[..., L, d] -> [H, ..., L, d_h], the projection CnoaAttention feeds
    to cnoa_attention."""
    site = SimpleNamespace(n_heads=w.shape[0], head_dim=w.shape[-1])
    return CnoaAttention._heads(site, x, w, ndim)


class TestFusedNodesMatchComposites:
    """Each fused node gives bitwise the data and input gradients of the
    primitive-op chain it replaces. Its first input also feeds another
    consumer, whose term backward adds before or after the node's, so the
    order of accumulation into that input counts."""

    def _compare(self, fused, composite, shapes, seed=0):
        rng = np.random.default_rng(seed)
        inputs = [rng.normal(size=s) for s in shapes]
        side = rng.normal(size=shapes[0])
        for side_first in (False, True):
            results = []
            for op in (fused, composite):
                ts = [dcg.parameter(a.copy()) for a in inputs]
                out, extra = op(*ts), []
                if isinstance(out, tuple):  # a node that also returns arrays
                    out, *extra = out
                weight = np.random.default_rng(seed + 1).normal(size=out.shape)
                terms = [dcg.tensor_sum(out * weight),
                         dcg.tensor_sum(ts[0] * ts[0] * side)]
                if side_first:  # backward visits the last operand of + first
                    terms.reverse()
                dcg.backward(terms[0] + terms[1])
                results.append([out.data, *extra] + [t.grad for t in ts])
            for got, want in zip(*results):
                assert got.shape == want.shape
                assert np.array_equal(got, want)

    def test_linear(self):
        for x_shape in [(4, 6, 5), (7, 5)]:
            self._compare(dcg.linear, _composite_linear,
                          [x_shape, (5, 3), (3,)])

    @pytest.mark.parametrize("dropout", ["off", "on"])
    def test_transformer_layer(self, dropout):
        mask = np.triu(np.full((5, 5), -1e30), k=1)
        scale = 1.0 / np.sqrt(3)  # not a power of 2, so its rounding shows
        # the fused node takes bool keep-masks, the chain the float masks
        # they stand for
        drop = (_dropout_masks(np.random.default_rng(3), (3, 5, 6))
                if dropout == "on" else None)
        fused = lambda x, *params: dcg.transformer_layer(  # noqa: E731
            x, params, 2, mask, scale, drop)
        chain = lambda x, *params: _composite_layer(  # noqa: E731
            x, params, 2, mask, scale, drop and _float_masks(drop))

        shapes = [(3, 5, 6)] + _layer_param_shapes(6, 10)
        self._compare(fused, chain, shapes)
        # without a graph, the same data
        rng = np.random.default_rng(4)
        inputs = [dcg.parameter(rng.normal(size=s)) for s in shapes]
        with_graph = fused(*inputs)
        with dcg.no_grad():
            outs = [layer(*inputs) for layer in (fused, chain)]
        for out in outs:
            assert not out.requires_grad
            assert np.array_equal(out.data, with_graph.data)

    def test_cross_entropy(self):
        targets = np.array([3, 0, 6, 6, 1, 2, 5])

        def via(loss):  # scaled, as loss_batch weights each term
            return lambda logits: loss(logits, targets) * 0.5

        self._compare(via(dcg.cross_entropy), via(_composite_cross_entropy),
                      [(7, 9)])

    @pytest.mark.parametrize("osc", [
        None,
        OscillatorParams(k=-2.0, n_steps=2, gamma=0.0),
        OscillatorParams(k=-2.0, n_steps=2, gamma=1.0),
        OscillatorParams(gamma=1.0),  # the default k=-500 saturates the decay
    ], ids=["cross", "gamma0", "gamma1", "default"])
    @pytest.mark.parametrize("prev", ["none", "wrong_shape", "stored"])
    @pytest.mark.parametrize("case", ["self", "time_user", "decoder"])
    def test_cnoa_attention(self, osc, prev, case):
        # The first input feeds k and v, and q too in self-attention. The
        # time-user site has 2-D keys against 3-D queries.
        shapes, alpha_shape = {
            "self": ([(3, 4, 5)], (2, 3, 4, 4)),
            "time_user": ([(6, 5), (3, 2, 4)], (2, 3, 2, 6)),
            "decoder": ([(3, 6, 5), (3, 1, 4)], (2, 3, 1, 6)),
        }[case]
        stored = {
            "none": None,
            "wrong_shape": np.full(alpha_shape[:-1] + (1,), 1.0),
            "stored": np.random.default_rng(9).dirichlet(
                np.ones(alpha_shape[-1]), size=alpha_shape[:-1]),
        }[prev]
        scale = 1.0 / np.sqrt(3)

        def via(attention):
            def op(kv, *rest):
                q = kv if len(rest) == 3 else rest[0]
                wq, wk, wv = rest[-3:]
                ndim = max(q.ndim, kv.ndim)
                # small scores, so that the softmax does not saturate
                return attention(_project(q, wq * 0.25, ndim),
                                 _project(kv, wk * 0.25, ndim),
                                 _project(kv, wv, ndim), scale, osc, stored)
            return op

        weights = [(2, shapes[-1][-1], 3), (2, 5, 3), (2, 5, 3)]
        self._compare(via(cnoa_attention), via(_composite_cnoa),
                      shapes + weights)


class TestGradientOwnership:
    """Backward hands arrays over without copying; no gradient may alias
    another tensor's."""

    def test_add_of_itself(self):
        x = dcg.parameter(np.arange(4.0))
        c = np.array([1.0, -2.0, 3.0, 0.5])
        dcg.backward(dcg.tensor_sum((x + x) * c))
        np.testing.assert_array_equal(x.grad, 2.0 * c)

    def test_add_parents_do_not_share_a_gradient(self):
        x = dcg.parameter(np.arange(3.0))
        p, q = x * 2.0, x * 3.0
        c, d, e = np.array([1.0, 2.0, 3.0]), np.array([5.0, 7.0, 11.0]), 0.5
        dcg.backward(dcg.tensor_sum((p + q) * c) + dcg.tensor_sum(p * d)
                     + dcg.tensor_sum(q * e))
        np.testing.assert_array_equal(p.grad, c + d)
        np.testing.assert_array_equal(q.grad, c + e)
        np.testing.assert_array_equal(x.grad, 2.0 * (c + d) + 3.0 * (c + e))

    def test_concat_of_itself(self):
        t = dcg.parameter(np.arange(6.0).reshape(2, 3))
        c = np.arange(12.0).reshape(2, 6) - 4.0
        dcg.backward(dcg.tensor_sum(dcg.concat([t, t], axis=1) * c))
        np.testing.assert_array_equal(t.grad, c[:, :3] + c[:, 3:])

    def test_transposed_view_added_onto_existing_gradient(self):
        rng = np.random.default_rng(3)
        qh = dcg.constant(rng.normal(size=(2, 1, 3, 4)))
        vh = dcg.constant(rng.normal(size=(2, 1, 5, 4)))
        x = dcg.parameter(rng.normal(size=(2, 1, 5, 4)))
        c = rng.normal(size=(1, 3, 8))
        d = np.full(x.shape, 0.25)

        def attended(h):
            out, _ = cnoa_attention(qh, h, vh, 0.5, None, None)
            return dcg.tensor_sum(out * c)

        # a graph is walked once, so each one builds its own h = x * 2.0
        h = x * 2.0
        dcg.backward(attended(h))
        # cnoa_attention hands kh a transposed view of its key gradient
        assert not h.grad.flags.c_contiguous
        g_node = h.grad.copy()
        # h first takes that view, then h * d adds onto it, and the other
        # way round
        for side_first in (False, True):
            h = x * 2.0
            terms = [attended(h), dcg.tensor_sum(h * d)]
            out = terms[1] + terms[0] if side_first else terms[0] + terms[1]
            x.grad = None
            dcg.backward(out)
            np.testing.assert_array_equal(h.grad, g_node + d)
            np.testing.assert_array_equal(x.grad, 2.0 * (g_node + d))


class TestUnbroadcast:
    def test_shapes(self, rng):
        for src, dst in [((5, 3), (3,)), ((2, 4, 3), (4, 1)), ((6,), (1,)),
                         ((2, 3), (2, 3))]:
            g = rng.normal(size=src)
            out = _unbroadcast(g, dst)
            assert out.shape == dst
            np.testing.assert_allclose(out.sum(), g.sum(), rtol=1e-12)


class TestAdamW:
    def _registry(self, value):
        reg = ParamRegistry()
        reg.register("p", value)
        return reg

    def test_zero_grad_is_pure_decay(self):
        reg = self._registry(np.full(3, 2.0))
        opt = AdamW(reg, lr=0.005, weight_decay=0.01)
        reg["p"].grad = np.zeros(3)
        opt.step()
        np.testing.assert_allclose(reg["p"].data, 2.0 * (1 - 0.005 * 0.01),
                                   rtol=1e-15)

    def test_two_zero_grad_steps_compound_decay(self):
        reg = self._registry(np.array([1.0]))
        opt = AdamW(reg, lr=0.005, weight_decay=0.01)
        for _ in range(2):
            reg["p"].grad = np.zeros(1)
            opt.step()
        np.testing.assert_allclose(reg["p"].data, (1 - 0.005 * 0.01) ** 2,
                                   rtol=1e-15)

    def test_first_step_hand_computed(self):
        # p=1, g=1: bias-corrected m=v=1, so p <- 1 - lr/(1+eps) - lr*wd.
        reg = self._registry(np.array([1.0]))
        opt = AdamW(reg, lr=0.005, weight_decay=0.01)
        reg["p"].grad = np.ones(1)
        opt.step()
        expected = 1.0 - 0.005 * (1.0 / (1.0 + 1e-8)) - 0.005 * 0.01
        np.testing.assert_allclose(reg["p"].data, expected, rtol=1e-12)
        assert abs(reg["p"].data[0] - 0.99495) < 1e-7

    def test_step_counter_and_grad_zeroing(self):
        reg = self._registry(np.array([1.0]))
        opt = AdamW(reg)
        reg["p"].grad = np.ones(1)
        opt.step()
        assert opt.step_count == 1
        assert reg["p"].grad is None

    def test_missing_grad_rejected(self):
        reg = self._registry(np.array([1.0]))
        opt = AdamW(reg)
        with pytest.raises(ValueError, match="missing gradients"):
            opt.step()


class TestGradCheck:
    def test_linear_map_is_exact(self):
        rng = np.random.default_rng(3)
        reg = ParamRegistry()
        reg.register("w", rng.normal(size=(4, 3)))
        x = dcg.constant(rng.normal(size=(3, 2)))

        def loss_fn(r):
            return dcg.tensor_sum(dcg.matmul(r["w"], x))

        assert grad_check(loss_fn, reg, 1e-5) < 1e-10

    def test_sign_flipped_gradient_is_caught(self):
        # Negative control: an op with a deliberately wrong backward.
        from canoe.dcg.tensor import _accum_owned, _make

        def bad_square(t):
            data = t.data * t.data

            def bwd(g):
                _accum_owned(t, -2.0 * t.data * g)  # sign flip

            return _make(data, (t,), bwd, "bad_square")

        reg = ParamRegistry()
        reg.register("w", np.array([1.5, -0.7]))

        def loss_fn(r):
            return dcg.tensor_sum(bad_square(r["w"]))

        assert grad_check(loss_fn, reg, 1e-5) > 0.5

    def test_nondeterministic_loss_rejected(self):
        reg = ParamRegistry()
        reg.register("w", np.array([1.0]))
        state = {"n": 0}

        def loss_fn(r):
            state["n"] += 1
            return dcg.tensor_sum(r["w"] * float(state["n"]))

        with pytest.raises(ValueError, match="deterministic"):
            grad_check(loss_fn, reg, 1e-5)

    def test_finite_differences_build_no_graph(self):
        reg = ParamRegistry()
        reg.register("w", np.array([1.0, -2.0]))
        graphs = []

        def loss_fn(r):
            out = dcg.tensor_sum(r["w"] * r["w"])
            graphs.append(out.requires_grad)
            return out

        assert grad_check(loss_fn, reg, 1e-5) < 1e-8
        # two determinism passes and the analytic pass, then 2 per entry
        assert graphs == [True] * 3 + [False] * 4

    def test_epsilon_domain(self):
        reg = ParamRegistry()
        reg.register("w", np.array([1.0]))
        with pytest.raises(ValueError, match="epsilon"):
            grad_check(lambda r: dcg.tensor_sum(r["w"]), reg, 0.5)


class TestParamRegistry:
    def test_insertion_order_and_uniqueness(self):
        reg = ParamRegistry()
        reg.register("b", np.zeros(1))
        reg.register("a", np.zeros(1))
        assert reg.names() == ["b", "a"]
        with pytest.raises(ValueError, match="duplicate"):
            reg.register("a", np.zeros(1))

    def test_clip_grad_norm(self):
        reg = ParamRegistry()
        p = reg.register("p", np.zeros(4))
        p.grad = np.full(4, 3.0)  # norm 6
        norm = reg.clip_grad_norm(1.5)
        assert norm == pytest.approx(6.0)
        np.testing.assert_allclose(np.sqrt((p.grad ** 2).sum()), 1.5)

    def test_state_roundtrip(self):
        reg = ParamRegistry()
        reg.register("p", np.arange(3.0))
        arrays = reg.state_arrays()
        arrays["p"][0] = 99.0
        reg.load_state_arrays(arrays)
        assert reg["p"].data[0] == 99.0

    def test_load_rejects_missing_and_unexpected_names(self):
        reg = ParamRegistry()
        reg.register("p", np.arange(3.0))
        reg.register("q", np.zeros(2))
        with pytest.raises(ValueError, match=r"missing \['q'\], unexpected \['r'\]"):
            reg.load_state_arrays({"p": np.zeros(3), "r": np.zeros(2)})
        np.testing.assert_array_equal(reg["p"].data, np.arange(3.0))

    def test_load_mismatch_names_at_most_five_of_each(self):
        reg = ParamRegistry()
        for n in range(7):
            reg.register(f"p{n}", np.zeros(1))
        foreign = {f"x{n}": np.zeros(1) for n in range(6)}
        with pytest.raises(ValueError) as info:
            reg.load_state_arrays(foreign)
        assert str(info.value) == (
            "parameter names differ from the model's: "
            "missing ['p0', 'p1', 'p2', 'p3', 'p4'] and 2 more, "
            "unexpected ['x0', 'x1', 'x2', 'x3', 'x4'] and 1 more")


class TestLinear:
    def test_names_init_and_forward(self):
        reg = ParamRegistry()
        lin = Linear(reg, np.random.default_rng(4), "proj", 5, 3)
        assert reg.names() == ["proj.w", "proj.b"]
        assert lin.w is reg["proj.w"] and lin.b is reg["proj.b"]
        assert lin.w.shape == (5, 3)
        assert np.abs(lin.w.data).max() <= 0.1 and lin.w.data.std() > 0
        np.testing.assert_array_equal(lin.b.data, np.zeros(3))
        lin.b.data[...] = [0.5, -1.0, 2.0]
        x = np.random.default_rng(5).normal(size=(2, 4, 5))
        out = lin(dcg.constant(x))
        assert out.data.tobytes() == (x @ lin.w.data + lin.b.data).tobytes()


def test_forward_deterministic_bitwise():
    rng = np.random.default_rng(5)
    x = dcg.parameter(rng.normal(size=(6, 6)))

    def forward():
        return dcg.tensor_sum(dcg.softmax(dcg.matmul(x, x)) * _exp(x * 0.1))

    assert forward().item() == forward().item()


@pytest.fixture
def layer_blocks(monkeypatch):
    """Each row block transformer_layer runs: (pass, thread name, rows),
    seen at its attention forward and its attention backward."""
    seen = []

    def spy(name, kernel):
        def call(q, *args, **kwargs):
            # q, or the context gradient: [rows, L, dim] either way
            seen.append((name, threading.current_thread().name, len(q)))
            return kernel(q, *args, **kwargs)
        return call

    monkeypatch.setattr(tensor_mod, "_attention", spy("fwd", tensor_mod._attention))
    monkeypatch.setattr(tensor_mod, "_attention_grad",
                        spy("bwd", tensor_mod._attention_grad))
    return seen


def _layer_inputs(n_rows, seed=0):
    """(x, params, mask, scale) of a small transformer_layer, as arrays."""
    rng = np.random.default_rng(seed)
    shapes = [(n_rows, 5, 6)] + _layer_param_shapes(6, 10)
    x, *params = (rng.normal(size=s) for s in shapes)
    return x, params, np.triu(np.full((5, 5), -1e30), k=1), 1.0 / np.sqrt(3)


class TestRowBlockNode:
    """transformer_layer runs its rows in blocks (dcg.blocks), one per usable
    CPU and none under 64 rows, the first on the calling thread; output and
    every gradient are bitwise the one-block node's."""

    def _run(self, n_rows, dropout, x_grad, side_first):
        x_data, param_data, mask, scale = _layer_inputs(n_rows)
        drop = (_dropout_masks(np.random.default_rng(3), x_data.shape)
                if dropout == "on" else None)
        x = dcg.Tensor(x_data.copy(), requires_grad=x_grad)
        params = [dcg.parameter(p.copy()) for p in param_data]
        out = dcg.transformer_layer(x, params, 2, mask, scale, drop)
        rng = np.random.default_rng(4)
        # a second consumer of x, whose term backward adds before or after
        # the node's
        terms = [dcg.tensor_sum(out * rng.normal(size=x_data.shape)),
                 dcg.tensor_sum(x * x * rng.normal(size=x_data.shape))]
        if side_first:
            terms.reverse()
        dcg.backward(terms[0] + terms[1])
        return [out.data, x.grad] + [p.grad for p in params]

    @pytest.mark.parametrize("n_rows, sizes", [
        (1, [1]), (127, [127]), (128, [64, 64]), (129, [64, 65]),
        (513, [128, 128, 128, 129]),
    ])
    @pytest.mark.parametrize("dropout", ["off", "on"])
    @pytest.mark.parametrize("x_grad, side_first", [
        (False, False), (True, False), (True, True)])
    def test_split_matches_one_block_bitwise(self, cpus, layer_blocks, n_rows,
                                             sizes, dropout, x_grad, side_first):
        cpus(1)
        one_block = self._run(n_rows, dropout, x_grad, side_first)
        assert {rows for _, _, rows in layer_blocks} == {n_rows}
        del layer_blocks[:]
        cpus(4)
        split = self._run(n_rows, dropout, x_grad, side_first)
        here = threading.current_thread().name
        for name in ("fwd", "bwd"):
            runs = [(thread, rows) for n, thread, rows in layer_blocks if n == name]
            # the first block on this thread, the others on workers
            assert [rows for thread, rows in runs if thread == here] == sizes[:1]
            assert sorted(rows for thread, rows in runs
                          if thread.startswith("canoe-rows")) == sizes[1:]
        assert (split[1] is None) == (not x_grad)
        for got, want in zip(split, one_block):
            if want is None:
                assert got is None
                continue
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_one_usable_cpu_starts_no_pool(self, cpus, layer_blocks):
        cpus(1)
        self._run(513, "on", True, False)
        here = threading.current_thread().name
        assert layer_blocks == [("fwd", here, 513), ("bwd", here, 513)]
        assert blocks._pool is None

    def test_node_inside_a_row_block_runs_as_one_block(self, cpus, layer_blocks):
        cpus(2)  # one worker thread: a worker that split again would wait forever
        x_data, param_data, mask, scale = _layer_inputs(512)
        params = [dcg.constant(p) for p in param_data]

        def node(lo, hi):
            return dcg.transformer_layer(dcg.constant(x_data[lo:hi]), params,
                                         2, mask, scale).data

        results = []
        caller = threading.Thread(
            target=lambda: results.append(blocks.run_row_blocks(512, node)),
            daemon=True)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive(), "a node inside a row block did not return"
        assert sorted((thread.startswith("canoe-rows"), rows)
                      for _, thread, rows in layer_blocks) == [(False, 256), (True, 256)]
        del layer_blocks[:]
        whole = node(0, 512)  # outside any block: split in two
        assert sorted(rows for _, _, rows in layer_blocks) == [256, 256]
        assert np.concatenate(results[0]).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("failing", [0, 128])
    def test_error_is_raised_after_every_block_finished(self, cpus, failing):
        cpus(4)
        finished = []

        def block(lo, hi):
            if lo == failing:
                raise RuntimeError(f"rows {lo}:{hi}")
            if lo > 128:
                time.sleep(0.2)  # workers still busy when the error is known
            finished.append(lo)

        with pytest.raises(RuntimeError, match=f"rows {failing}:{failing + 128}"):
            blocks.run_row_blocks(512, block)
        assert sorted(finished) == sorted({0, 128, 256, 384} - {failing})
