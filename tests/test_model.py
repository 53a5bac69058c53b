"""Full-model assembly: shapes, ranking tie-breaks, eval determinism."""

import threading
import weakref
from collections import Counter

import numpy as np
import pytest

from canoe import dcg
from canoe.dcg import blocks as blocks_mod
from canoe.config import RunConfig
from canoe.dcg import AdamW
from canoe.dcg.tensor import _softmax
from canoe.decoder import LossWeights
from canoe.model import Batch, CanoeModel, target_ranks
from tests_common import graph_nodes


def make_model(rng, dim=8, n_users=6, n_locs=9, n_topics=4, **cfg_kw):
    theta = rng.random((n_users, n_topics))
    theta /= theta.sum(axis=1, keepdims=True)
    cfg = RunConfig.from_dict({
        "seed": 5,
        "topics": {"n_topics": n_topics},
        "model": dict({"dim": dim}, **cfg_kw),
    })
    return CanoeModel(cfg.model_config(), n_users, n_locs, theta, seed=5)


def random_batch(rng, n=4, n_users=6, n_locs=9, length=5):
    return Batch(users=rng.integers(0, n_users, n),
                 ctx_locs=rng.integers(0, n_locs, (n, length)),
                 ctx_slots=rng.integers(0, 24, (n, length)),
                 target_locs=rng.integers(0, n_locs, n),
                 target_slots=rng.integers(0, 24, n))


class TestForward:
    def test_logit_shapes(self, rng):
        model = make_model(rng)
        batch = random_batch(rng)
        loc, time, aux = model.forward_batch(batch)
        assert loc.shape == (4, 9)
        assert time.shape == (4, 24)
        assert aux.shape == (4, 9)

    def test_eval_forward_is_deterministic(self, rng):
        model = make_model(rng)
        batch = random_batch(rng)
        model.reset_states()
        a = model.location_probs(batch)
        b = model.location_probs(batch)
        assert a.tobytes() == b.tobytes()

    def test_topic_matrix_shape_checked(self, rng):
        with pytest.raises(ValueError, match="topic matrix"):
            cfg = RunConfig.from_dict({"model": {"dim": 8}})
            CanoeModel(cfg.model_config(), 5, 9, np.zeros((4, 3)), seed=0)

    def test_dim_head_divisibility_checked(self):
        with pytest.raises(ValueError, match="divisible"):
            RunConfig.from_dict({"model": {"dim": 9, "attn_heads": 2}})


class TestInit:
    def test_registry_follows_the_init_policy(self, rng):
        """Walking the registry in order replays the construction: each
        weight is the next uniform(-0.1, 0.1) draw of the model's stream,
        biases and layer-norm shifts are zeros, layer-norm gains ones."""
        model = make_model(rng, dim=8, enc_layers=2)
        draws = np.random.default_rng([5, 202])
        n_weights = 0
        for name, t in model.registry.items():
            leaf = name.rsplit(".", 1)[-1]
            if leaf.startswith("ln") and leaf.endswith("_g"):
                expected = np.ones(t.shape)
            elif leaf == "b" or leaf.startswith("ln"):
                expected = np.zeros(t.shape)
            else:
                expected = draws.uniform(-0.1, 0.1, t.shape)
                n_weights += 1
            assert t.data.tobytes() == expected.tobytes(), name
        # time/user/loc tables, ul_head 2, two CNOA sites x 4, in_proj,
        # 2 layers x 6, decoder w_q + 8 projections
        assert n_weights == 3 + 2 + 8 + 1 + 12 + 9


class TestRankTargets:
    def test_rank_counts_strictly_better(self, rng):
        model = make_model(rng)
        batch = random_batch(rng, n=6)
        ranks = model.rank_targets(batch)
        probs = model.location_probs(batch)
        for i in range(6):
            p_t = probs[i, batch.target_locs[i]]
            better = (probs[i] > p_t).sum()
            assert ranks[i] >= better + 1
            assert 1 <= ranks[i] <= 9

    def test_tie_break_ascending_id(self, rng):
        model = make_model(rng)
        batch = random_batch(rng, n=2)
        # Force exact ties: equal logits everywhere.
        model.registry["decoder.loc.w"].data[...] = 0.0
        model.registry["decoder.loc.b"].data[...] = 0.0
        batch.target_locs = np.array([0, 5])
        ranks = model.rank_targets(batch)
        assert ranks[0] == 1   # id 0 wins every tie
        assert ranks[1] == 6   # five smaller ids precede id 5

    def test_cross_variant_runs(self, rng):
        model = make_model(rng, attention="cross")
        batch = random_batch(rng)
        ranks = model.rank_targets(batch)
        assert ranks.shape == (4,)


SPLIT_VARIANTS = {"cnoa": {}, "cross": {"attention": "cross"},
                  "time_user": {"decoder_query": "time_user"}}


@pytest.fixture
def blocks(monkeypatch):
    """Each forward_batch call that returns: (thread name, rows, whether
    its location logits hold a graph)."""
    seen = []
    forward = CanoeModel.forward_batch

    def spy(self, batch, *args, **kwargs):
        out = forward(self, batch, *args, **kwargs)
        seen.append((threading.current_thread().name, len(batch.users),
                     out[0].requires_grad or bool(out[0]._parents)))
        return out

    monkeypatch.setattr(CanoeModel, "forward_batch", spy)
    return seen


def _one_block_probs(model, batch):
    """location_probs as one forward over the whole batch from reset states."""
    model.reset_states()
    with dcg.no_grad():
        loc, _, _ = model.forward_batch(batch)
    return _softmax(loc.data, -1)


def _split_model(rng, variant):
    return make_model(rng, dim=16, n_users=12, n_locs=40,
                      **SPLIT_VARIANTS[variant])


class TestRankingSplit:
    """location_probs splits a batch into row blocks, one per usable CPU
    and none under 64 rows, the first on the calling thread; the result is
    bitwise that of one block."""

    @pytest.mark.parametrize("n_rows, sizes", [
        (1, [1]), (127, [127]), (128, [64, 64]), (129, [64, 65]),
        (513, [128, 128, 128, 129]),
    ])
    @pytest.mark.parametrize("variant", sorted(SPLIT_VARIANTS))
    def test_split_matches_one_block_bitwise(self, rng, cpus, blocks,
                                             variant, n_rows, sizes):
        cpus(4)
        model = _split_model(rng, variant)
        batch = random_batch(rng, n=n_rows, n_users=12, n_locs=40)
        expected = _one_block_probs(model, batch)
        del blocks[:]
        probs = model.location_probs(batch)
        # the first block runs on this thread, the others on workers
        here = threading.current_thread().name
        assert [rows for name, rows, _ in blocks if name == here] == sizes[:1]
        assert sorted(rows for name, rows, _ in blocks
                      if name.startswith("canoe-rows")) == sizes[1:]
        assert probs.tobytes() == expected.tobytes()
        assert (model.rank_targets(batch).tobytes()
                == target_ranks(expected, batch.target_locs).tobytes())

    @pytest.mark.parametrize("variant", sorted(SPLIT_VARIANTS))
    def test_stored_training_state_is_reset(self, rng, cpus, variant):
        # a training forward stores states shaped like the first block; a
        # block that used them would rank differently (cnoa)
        cpus(4)
        model = _split_model(rng, variant)
        batch = random_batch(rng, n=513, n_users=12, n_locs=40)
        expected = _one_block_probs(model, batch)
        train_batch = random_batch(rng, n=128, n_users=12, n_locs=40)
        model.loss_batch(train_batch, LossWeights(), rng=np.random.default_rng(3))
        assert (model.time_user.attn._alpha_prev is None) == (variant == "cross")
        assert model.location_probs(batch).tobytes() == expected.tobytes()

    def test_one_usable_cpu_starts_no_worker(self, rng, cpus, blocks):
        cpus(1)
        model = _split_model(rng, "cnoa")
        model.location_probs(random_batch(rng, n=513, n_users=12, n_locs=40))
        assert blocks == [(threading.current_thread().name, 513, False)]
        assert blocks_mod._pool is None

    def test_worker_index_error_matches_one_block(self, rng, cpus, blocks):
        cpus(4)
        model = _split_model(rng, "cnoa")
        batch = random_batch(rng, n=513, n_users=12, n_locs=40)
        batch.ctx_locs[500, 2] = 40  # a row of the last block
        with pytest.raises(IndexError) as one_block:
            _one_block_probs(model, batch)
        del blocks[:]
        with pytest.raises(IndexError) as split:
            model.location_probs(batch)
        assert str(split.value) == str(one_block.value)
        # the other blocks ran to the end, the first on this thread
        here = threading.current_thread().name
        assert [rows for name, rows, _ in blocks if name == here] == [128]
        assert sorted(rows for _, rows, _ in blocks) == [128, 128, 128]

    def test_worker_blocks_build_no_graph(self, rng, cpus, blocks):
        cpus(2)
        model = _split_model(rng, "cnoa")
        model.location_probs(random_batch(rng, n=512, n_users=12, n_locs=40))
        assert [(rows, graph) for _, rows, graph in blocks] == [(256, False)] * 2
        assert any(name.startswith("canoe-rows") for name, _, _ in blocks)


class TestAttentionSites:
    """model.attention is one decision: both sites hold the config's
    oscillator, or neither holds one."""

    def test_cross_builds_both_sites_without_an_oscillator(self, rng):
        model = make_model(rng, attention="cross")
        assert model.time_user.attn.osc is None
        assert model.decoder.attn.osc is None

    def test_cnoa_builds_both_sites_with_the_config_oscillator(self, rng):
        cfg = RunConfig.from_dict({"model": {"dim": 8, "k": 3.0, "gamma": 0.5}})
        model = CanoeModel(cfg.model, 6, 9, np.full((6, 4), 0.25), seed=5)
        assert model.time_user.attn.osc == cfg.model.oscillator_params()
        assert model.decoder.attn.osc == cfg.model.oscillator_params()


def sorted_rank(row, target):
    """Oracle: 1 + the target's position when ids are sorted by
    (-score, id)."""
    order = sorted(range(len(row)), key=lambda i: (-row[i], i))
    return order.index(target) + 1


class TestTargetRanks:
    def test_matches_sort_oracle_with_ties(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n_locs = int(rng.integers(1, 12))
            # few distinct values, so most rows hold ties
            scores = rng.integers(-2, 3, (int(rng.integers(1, 6)), n_locs))
            targets = rng.integers(0, n_locs, scores.shape[0])
            ranks = target_ranks(scores, targets)
            assert ranks.dtype == np.int64 and ranks.shape == targets.shape
            assert ranks.tolist() == [sorted_rank(row.tolist(), t)
                                      for row, t in zip(scores, targets)]
            for row, t in zip(scores, targets):
                one = target_ranks(row, int(t))
                assert one.shape == () and int(one) == sorted_rank(row.tolist(), t)

    def test_float_scores_tie_only_when_equal(self):
        up, down = np.nextafter(0.5, 1.0), np.nextafter(0.5, 0.0)
        scores = np.array([0.25, 0.5, 0.25, up, down])
        assert [int(target_ranks(scores, t)) for t in range(5)] == [4, 2, 5, 1, 3]


class TestStateLifecycle:
    def test_training_updates_state_eval_does_not(self, rng):
        # a forward given the dropout generator is a training forward
        model = make_model(rng)
        batch = random_batch(rng)
        model.reset_states()
        model.forward_batch(batch, rng=np.random.default_rng(0))
        assert model.time_user.attn._alpha_prev is not None
        assert model.decoder.attn._alpha_prev is not None
        model.reset_states()
        model.forward_batch(batch)
        assert model.time_user.attn._alpha_prev is None
        assert model.decoder.attn._alpha_prev is None

    def test_loss_parts_finite_and_weighted(self, rng):
        from canoe.decoder import LossWeights

        model = make_model(rng)
        batch = random_batch(rng)
        total, parts = model.loss_batch(batch, LossWeights(1.0, 0.5, 0.5))
        expected = parts["loc"] + 0.5 * parts["time"] + 0.5 * parts["aux"]
        assert total.item() == pytest.approx(expected, rel=1e-12)


def _full_graph_loss(model, batch, weights, rng):
    """The three-term loss over the whole graph, built here from
    forward_batch as loss_batch built it before it pruned anything."""
    loc, time, aux = model.forward_batch(batch, rng=rng)
    parts = {"loc": dcg.cross_entropy(loc, batch.target_locs),
             "time": dcg.cross_entropy(time, batch.target_slots),
             "aux": dcg.cross_entropy(aux, batch.target_locs)}
    total = (parts["loc"] * weights.loc + parts["time"] * weights.time
             + parts["aux"] * weights.aux)
    return total, {**{k: v.item() for k, v in parts.items()},
                   "total": total.item()}


def _step_gradients(model, loss_fn, batch, weights):
    """(gradients by parameter name, parts, graph operation count) of one
    training step from a reset state and a fixed dropout stream."""
    model.reset_states()
    loss, parts = loss_fn(model, batch, weights, np.random.default_rng(7))
    nodes = _graph_nodes(loss)  # backward frees the graph as it walks it
    model.registry.zero_grads()
    dcg.backward(loss)
    grads = {name: p.grad for name, p in model.registry.items()}
    model.registry.zero_grads()
    return grads, parts, nodes


def _graph_nodes(root):
    """Counts by operation of the nodes (not parameters) backward visits
    from root."""
    return Counter(node._op for node in graph_nodes(root))


def test_full_step_holds_one_node_per_transformer_layer(rng):
    model = make_model(rng, enc_layers=3)
    _, _, ops = _step_gradients(model, _full_graph_loss, random_batch(rng),
                                LossWeights(1.0, 0.5, 0.5))
    assert ops["transformer_layer"] == 3
    assert not {"layer_norm", "masked_attention"} & ops.keys()


def test_backward_frees_each_layer_node_of_a_training_step(rng):
    model = make_model(rng, enc_layers=3)
    loss, _ = model.loss_batch(random_batch(rng), LossWeights(1.0, 0.5, 0.5),
                               rng=np.random.default_rng(7))
    layers = [weakref.ref(node) for node in graph_nodes(loss)
              if node._op == "transformer_layer"]
    assert len(layers) == 3 and all(ref() is not None for ref in layers)
    model.registry.zero_grads()
    dcg.backward(loss)
    assert all(ref() is None for ref in layers)
    assert model.registry["loc_time.layer0.q.w"].grad.any()


class TestPrunedWarmupStep:
    """At warmup weights loss_batch builds the time branch only; gradients
    and loss parts are those of the full graph, bit for bit."""

    @pytest.mark.parametrize("cfg_kw", [
        {"attention": "cnoa"}, {"attention": "cross"},
        {"decoder_query": "time_user"}], ids=["cnoa", "cross", "time_user"])
    def test_matches_the_full_graph_bitwise(self, rng, cfg_kw):
        model = make_model(rng, **cfg_kw)
        batch = random_batch(rng, n=16, length=6)
        weights = LossWeights(loc=0.0, time=0.5, aux=0.0)

        def pruned(m, b, w, r):
            return m.loss_batch(b, w, rng=r)

        ref, ref_parts, ref_nodes = _step_gradients(
            model, _full_graph_loss, batch, weights)
        got, got_parts, got_nodes = _step_gradients(model, pruned, batch, weights)
        assert got_parts == ref_parts
        assert got.keys() == ref.keys()
        for name in ref:
            assert got[name] is not None, name
            assert np.array_equal(got[name], ref[name]), name
        assert not got["loc_time.layer0.q.w"].any()
        assert not got["decoder.fuse1.w"].any()
        assert got["decoder.time.w"].any()
        assert got_nodes.total() < ref_nodes.total() / 2

    def test_full_weight_step_still_needs_every_gradient(self, rng):
        model = make_model(rng)
        model.registry.register("unused", np.zeros(3))
        optimizer = AdamW(model.registry)
        loss, _ = model.loss_batch(random_batch(rng), LossWeights(1.0, 0.5, 0.5))
        model.registry.zero_grads()
        dcg.backward(loss)
        with pytest.raises(ValueError, match=r"missing gradients .*'unused'"):
            optimizer.step()
