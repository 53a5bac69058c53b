"""Training loop: determinism, staged schedule, checkpoints, resume."""

import logging
import math
import re
import weakref

import numpy as np
import pytest

from canoe import dcg
from canoe.config import RunConfig
from canoe.dcg import AdamW
from canoe.model import CanoeModel, batch_from_samples
from canoe.training import (evaluate_ranks, load_checkpoint,
                            model_from_checkpoint, phase_weights,
                            report_from_ranks, save_checkpoint, train)
from conftest import build_pipeline
from tests_common import graph_nodes


def tiny_cfg(seed=11, epochs=2, warmup=1, **model_kw):
    model = {"dim": 8}
    model.update(model_kw)
    return RunConfig.from_dict({
        "seed": seed,
        "data": {"num_users": 12, "num_locations": 15, "days": 8,
                 "activities_per_day": 5, "min_records": 30, "window_len": 10},
        "topics": {"n_topics": 6, "gibbs_iters": 50},
        "model": model,
        "train": {"epochs": epochs, "warmup_epochs": warmup, "batch_size": 64},
    })


class TestPhaseWeights:
    def test_warmup_uses_time_only(self):
        cfg = tiny_cfg(warmup=3)
        w = phase_weights(0, cfg)
        assert (w.loc, w.time, w.aux) == (0.0, 0.5, 0.0)

    def test_after_warmup_full_weights(self):
        cfg = tiny_cfg(warmup=3)
        w = phase_weights(3, cfg)
        assert (w.loc, w.time, w.aux) == (1.0, 0.5, 0.5)

    def test_zero_warmup_single_phase(self):
        cfg = tiny_cfg(warmup=0)
        assert phase_weights(0, cfg) == phase_weights(5, cfg)

    def test_zero_time_weight_disables_warmup(self):
        cfg = tiny_cfg(warmup=3)
        cfg.train.lambda_time = 0.0
        w = phase_weights(0, cfg)
        assert w.loc == 1.0  # degenerate warmup skipped


class TestWarmupGradients:
    def test_location_head_gradient_exactly_zero_during_warmup(self):
        cfg = tiny_cfg()
        _, ds, _, model = build_pipeline(cfg)
        batch = batch_from_samples(ds.split.train[:16])
        weights = phase_weights(0, cfg)  # warmup: (0, time, 0)
        loss, _ = model.loss_batch(batch, weights)
        model.registry.zero_grads()
        dcg.backward(loss)
        loc_grad = model.registry["decoder.loc.w"].grad
        aux_grad = model.registry["decoder.aux.w"].grad
        np.testing.assert_array_equal(loc_grad, 0.0)
        np.testing.assert_array_equal(aux_grad, 0.0)
        assert np.abs(model.registry["decoder.time.w"].grad).max() > 0


class TestTrainLoop:
    def test_descent_smoke_one_batch(self):
        cfg = tiny_cfg(epochs=3, warmup=0)
        _, ds, _, model = build_pipeline(cfg)
        # single-batch toy set
        ds.split.train = ds.split.train[:48]
        result = train(model, ds, cfg)
        assert result.logs[-1].loss_total < result.logs[0].loss_total

    def test_epoch_log_line_reports_steps_and_throughput(self, caplog):
        cfg = tiny_cfg(epochs=1, warmup=0)
        _, ds, _, model = build_pipeline(cfg)
        with caplog.at_level(logging.INFO, logger="canoe.training"):
            train(model, ds, cfg)
        steps = math.ceil(len(ds.split.train) / cfg.train.batch_size)
        [line] = [r.getMessage() for r in caplog.records
                  if r.getMessage().startswith("epoch 0:")]
        assert re.search(rf"\[{steps} steps, \d+ train samples/s, [\d.]+s\]$",
                         line), line

    def test_identical_seeds_identical_losses(self):
        cfg = tiny_cfg(epochs=2)
        _, ds1, _, m1 = build_pipeline(cfg)
        r1 = train(m1, ds1, cfg)
        _, ds2, _, m2 = build_pipeline(cfg)
        r2 = train(m2, ds2, cfg)
        assert f"{r1.logs[0].loss_total:.12f}" == f"{r2.logs[0].loss_total:.12f}"
        assert r1.logs[-1].loss_total == r2.logs[-1].loss_total

    def test_gradients_left_by_the_caller_do_not_reach_a_step(self):
        cfg = tiny_cfg(epochs=1)
        _, ds1, _, m1 = build_pipeline(cfg)
        r1 = train(m1, ds1, cfg)
        _, ds2, _, m2 = build_pipeline(cfg)
        loss, _ = m2.loss_batch(batch_from_samples(ds2.split.train[:16]),
                                cfg.loss_weights())
        dcg.backward(loss)
        assert train(m2, ds2, cfg).logs == r1.logs
        for name, p in m1.registry.items():
            assert m2.registry[name].data.tobytes() == p.data.tobytes()

    def test_loss_component_bookkeeping_across_weightings(self):
        for lam in ({"lambda_loc": 1.0, "lambda_time": 0.0, "lambda_aux": 0.0},
                    {"lambda_loc": 1.0, "lambda_time": 0.5, "lambda_aux": 0.5}):
            cfg = tiny_cfg(epochs=1, warmup=0)
            cfg.train.lambda_loc = lam["lambda_loc"]
            cfg.train.lambda_time = lam["lambda_time"]
            cfg.train.lambda_aux = lam["lambda_aux"]
            _, ds, _, model = build_pipeline(cfg)
            result = train(model, ds, cfg)
            entry = result.logs[0]
            for v in (entry.loss_loc, entry.loss_time, entry.loss_aux):
                assert np.isfinite(v) and v > 0

    def test_no_graph_outlives_its_step(self, monkeypatch):
        """Each step's graph is freed before the next forward builds one,
        in the warmup epoch and in the full-loss epoch."""
        cfg = tiny_cfg(epochs=2, warmup=1)
        _, ds, _, model = build_pipeline(cfg)
        loss_batch = CanoeModel.loss_batch
        refs, alive_at_next_call, phases = [], [], []

        def recording(self, batch, weights, **kwargs):
            if refs:
                alive_at_next_call.append(
                    any(ref() is not None for ref in refs[-1]))
            loss, parts = loss_batch(self, batch, weights, **kwargs)
            # the graph's nodes under the root: the root itself is a scalar
            # that train() still names until the next step's assignment
            refs.append([weakref.ref(node) for node in graph_nodes(loss)
                         if node is not loss])
            assert refs[-1]
            phases.append(weights.loc)
            return loss, parts

        monkeypatch.setattr(CanoeModel, "loss_batch", recording)
        train(model, ds, cfg)
        steps = math.ceil(len(ds.split.train) / cfg.train.batch_size)
        assert steps >= 2
        assert phases == [0.0] * steps + [1.0] * steps
        assert alive_at_next_call == [False] * (2 * steps - 1)

    def test_log_csv_format(self, tmp_path):
        cfg = tiny_cfg(epochs=1)
        _, ds, _, model = build_pipeline(cfg)
        result = train(model, ds, cfg, log_path=tmp_path / "log.csv")
        lines = (tmp_path / "log.csv").read_text().splitlines()
        assert lines[0] == ("epoch,loss_total,loss_loc,loss_time,loss_aux,"
                            "val_acc1,val_mrr")
        assert len(lines) == 2
        assert lines[1].startswith("0,")


class TestCheckpointing:
    def test_save_load_roundtrip_bitwise(self, tmp_path):
        cfg = tiny_cfg(epochs=2)
        _, ds, tm, model = build_pipeline(cfg)
        path = tmp_path / "model.ckpt"
        train(model, ds, cfg, checkpoint_path=path, topic_model=tm)
        ckpt = load_checkpoint(path)
        restored = model_from_checkpoint(ckpt)
        r1 = evaluate_ranks(restored, ds.split.test)
        restored2 = model_from_checkpoint(load_checkpoint(path))
        r2 = evaluate_ranks(restored2, ds.split.test)
        np.testing.assert_array_equal(r1, r2)

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        # uninterrupted 4-epoch run; at seed 5 its best epoch is 1, before
        # the checkpoint, so the resumed run must restore it
        cfg_full = tiny_cfg(seed=5, epochs=4)
        _, ds, tm, model_full = build_pipeline(cfg_full)
        res_full = train(model_full, ds, cfg_full)

        # 2 epochs, checkpoint, resume for 2 more
        cfg_half = tiny_cfg(seed=5, epochs=2)
        _, ds2, tm2, model_half = build_pipeline(cfg_half)
        path = tmp_path / "half.ckpt"
        train(model_half, ds2, cfg_half, checkpoint_path=path, topic_model=tm2)

        ckpt = load_checkpoint(path)
        resumed = model_from_checkpoint(ckpt)
        res_resumed = train(resumed, ds2, cfg_full, resume=ckpt)
        assert res_resumed.logs[2].loss_total == res_full.logs[2].loss_total
        assert res_resumed.logs[3].loss_total == res_full.logs[3].loss_total
        assert res_resumed.best_epoch == res_full.best_epoch == 1
        assert res_resumed.best_val_acc1 == res_full.best_val_acc1
        assert res_resumed.best_val_mrr == res_full.best_val_mrr

    def test_resume_restores_the_latest_weights_not_the_best(self, tmp_path):
        # at seed 1 the 3-epoch checkpoint's best epoch is 1 and its latest
        # 2; the resumed run continues from epoch 2's weights
        cfg_full = tiny_cfg(seed=1, epochs=4)
        _, ds, _, model_full = build_pipeline(cfg_full)
        res_full = train(model_full, ds, cfg_full)

        cfg_part = tiny_cfg(seed=1, epochs=3)
        _, ds2, tm2, model_part = build_pipeline(cfg_part)
        path = tmp_path / "part.ckpt"
        train(model_part, ds2, cfg_part, checkpoint_path=path, topic_model=tm2)
        ckpt = load_checkpoint(path)
        assert (ckpt.meta["best_epoch"], ckpt.meta["epoch"]) == (1, 2)

        res_resumed = train(model_from_checkpoint(ckpt), ds2, cfg_full,
                            resume=ckpt)
        assert res_resumed.logs == res_full.logs
        assert res_resumed.best_epoch == res_full.best_epoch

    def test_resume_without_validation_split_keeps_latest_epoch(self, tmp_path):
        cfg = tiny_cfg(epochs=1)
        _, ds, tm, model = build_pipeline(cfg)
        ds.split.val = []
        path = tmp_path / "m.ckpt"
        train(model, ds, cfg, checkpoint_path=path, topic_model=tm)
        ckpt = load_checkpoint(path)
        assert ckpt.meta["best_key"] is None
        result = train(model_from_checkpoint(ckpt), ds,
                       tiny_cfg(epochs=2), resume=ckpt)
        assert result.best_val_acc1 is None and result.best_val_mrr is None
        assert result.best_epoch == 1

    def test_resume_keeps_the_checkpoints_topic_model(self, tmp_path):
        cfg = tiny_cfg(epochs=1)
        _, ds, tm, model = build_pipeline(cfg)
        train(model, ds, cfg, checkpoint_path=tmp_path / "one.ckpt",
              topic_model=tm)
        ckpt = load_checkpoint(tmp_path / "one.ckpt")
        resumed = model_from_checkpoint(ckpt)
        with pytest.raises(ValueError, match="topic model"):
            train(resumed, ds, tiny_cfg(epochs=2), topic_model=tm, resume=ckpt)
        train(resumed, ds, tiny_cfg(epochs=2),
              checkpoint_path=tmp_path / "two.ckpt", resume=ckpt)
        two = load_checkpoint(tmp_path / "two.ckpt")
        np.testing.assert_array_equal(two.topic_model().theta, tm.theta)
        np.testing.assert_array_equal(two.topic_model().phi, tm.phi)
        model_from_checkpoint(two)  # eval's loader accepts it

    def test_checkpoint_preserves_topic_model(self, tmp_path):
        cfg = tiny_cfg(epochs=1)
        _, ds, tm, model = build_pipeline(cfg)
        path = tmp_path / "m.ckpt"
        train(model, ds, cfg, checkpoint_path=path, topic_model=tm)
        ckpt = load_checkpoint(path)
        np.testing.assert_array_equal(ckpt.topic_model().theta, tm.theta)
        np.testing.assert_array_equal(ckpt.topic_model().phi, tm.phi)

    def test_interrupted_save_keeps_previous_checkpoint(self, tmp_path,
                                                        monkeypatch):
        cfg = tiny_cfg(epochs=1)
        _, ds, tm, model = build_pipeline(cfg)
        path = tmp_path / "model.npz"
        train(model, ds, cfg, checkpoint_path=path, topic_model=tm)

        def crash(fh, **arrays):
            fh.write(b"PK\x03\x04 partial archive")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", crash)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, model, AdamW(model.registry), cfg, tm,
                            epoch=7, best_params=None, best_epoch=-1,
                            best_key=None, logs=[])
        assert load_checkpoint(path).meta["epoch"] == 0
        assert [p.name for p in tmp_path.iterdir()] == ["model.npz"]

    def test_format_tag_enforced(self, tmp_path):
        import json

        import numpy as np
        bad = tmp_path / "bad.npz"
        # "canoe-ckpt-1" stored per-head attention weights (wq0, wq1, ...);
        # "canoe-ckpt-2" named projection parameters loc_w, ff_b1, ...
        for tag in ("other", "canoe-ckpt-1", "canoe-ckpt-2"):
            meta = np.frombuffer(json.dumps({"format": tag}).encode(),
                                 dtype=np.uint8)
            np.savez(bad, meta=meta)
            with pytest.raises(ValueError, match="format"):
                load_checkpoint(bad)


class TestEvaluateModel:
    def test_report_includes_thresholds(self):
        cfg = tiny_cfg(epochs=1)
        _, ds, _, model = build_pipeline(cfg)
        test = ds.split.test
        rep = report_from_ranks(evaluate_ranks(model, test), ds, test,
                                thresholds=(0.5, 0.9), ks=(1, 3))
        assert set(rep.by_threshold) == {0.5, 0.9}
        assert rep.n_samples == len(ds.split.test)

    def test_nan_loss_aborts_with_batch_index(self):
        cfg = tiny_cfg(epochs=1, warmup=0)
        _, ds, _, model = build_pipeline(cfg)
        model.registry["decoder.loc.w"].data[...] = np.inf
        with np.errstate(invalid="ignore"):
            with pytest.raises(dcg.NumericFault, match="batch 0"):
                train(model, ds, cfg)

    def test_non_finite_parameter_keeps_the_previous_checkpoint(self, tmp_path,
                                                                monkeypatch):
        # an inf written by the last step of epoch 1 stops the run before
        # epoch 1 is checkpointed, at the default log level
        cfg = tiny_cfg(epochs=2)
        _, ds, tm, model = build_pipeline(cfg)
        steps = math.ceil(len(ds.split.train) / cfg.train.batch_size)
        real_step = AdamW.step

        def poisoned_step(self):
            real_step(self)
            if self.step_count == 2 * steps:
                self.registry["decoder.loc.w"].data[0, 0] = np.inf

        monkeypatch.setattr(AdamW, "step", poisoned_step)
        path = tmp_path / "m.ckpt"
        with pytest.raises(dcg.NumericFault, match=re.escape(
                f"non-finite parameter 'decoder.loc.w' after epoch 1 batch {steps - 1}")):
            train(model, ds, cfg, checkpoint_path=path, topic_model=tm)
        ckpt = load_checkpoint(path)
        assert ckpt.meta["epoch"] == ckpt.meta["best_epoch"] == 0
        [row] = ckpt.logs()
        assert ckpt.meta["best_key"] == [row.val_acc1, row.val_mrr]
        for arrays in (ckpt.params, ckpt.best_params):
            assert all(np.isfinite(a).all() for a in arrays.values())

    @pytest.mark.parametrize("level, message", [
        (logging.DEBUG,
         "non-finite parameter 'decoder.loc.w' after epoch 0 batch 0"),
        (logging.INFO,
         "non-finite parameter 'decoder.loc.w' after epoch 0 batch 0"),
    ], ids=["debug", "info"])
    def test_debug_log_checks_parameters_after_each_step(
            self, caplog, monkeypatch, level, message):
        # at every log level the parameter scan catches the bad step itself,
        # not the next step's loss
        cfg = tiny_cfg(epochs=1, warmup=0)
        cfg.train.batch_size = 16
        _, ds, _, model = build_pipeline(cfg)
        assert len(ds.split.train) > cfg.train.batch_size
        real_step = AdamW.step

        def poisoned_step(self):
            real_step(self)
            self.registry["decoder.loc.w"].data[0, 0] = np.inf

        monkeypatch.setattr(AdamW, "step", poisoned_step)
        with caplog.at_level(level, logger="canoe.training"):
            with np.errstate(invalid="ignore"):
                with pytest.raises(dcg.NumericFault, match=re.escape(message)):
                    train(model, ds, cfg)
