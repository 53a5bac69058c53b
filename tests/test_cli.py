"""CLI contract: exit codes, determinism, config echo, report parity."""

import ctypes
import hashlib
import json
import operator
import struct
import types
import zipfile
from pathlib import Path

import numpy as np
import pytest

from canoe import checks, cli
from canoe.cli import main, steady_heap
from canoe.config import ConfigError, RunConfig, load_config
from canoe.training import load_checkpoint


SMALL_ARGS = [
    "--set", "data.num_users=10", "--set", "data.num_locations=15",
    "--set", "data.days=8", "--set", "data.activities_per_day=5",
    "--set", "data.min_records=30", "--set", "data.window_len=10",
]
TRAIN_ARGS = SMALL_ARGS + [
    "--set", "model.dim=8", "--set", "topics.n_topics=6",
    "--set", "topics.gibbs_iters=50", "--set", "train.epochs=2",
    "--set", "train.warmup_epochs=1", "--set", "train.batch_size=64",
]
LOG_ROW = "tuple[int, float, float, float, float, float | None, float | None]"
# A checkpoint meta value of the wrong type or out of range: damage ->
# (meta key, value written there, what the error says it must be).
BAD_META = {
    "epoch_text": ("epoch", "0", "int"),
    "n_users_text": ("n_users", "6", "int"),
    "best_key_number": ("best_key", 5, "tuple[float, float] | None"),
    "logs_short_row": ("logs", [[0, 1.0]], f"list[{LOG_ROW}]"),
    "config_list": ("config", [], "dict"),
    "topic_model_seed_text": ("topic_model seed", "3", "int"),
    # the workspace checkpoint has finished epochs 0 and 1
    "epoch_negative": ("epoch", -3, ">= 0, got -3"),
    "n_users_zero": ("n_users", 0, ">= 1, got 0"),
    "n_locations_negative": ("n_locations", -4, ">= 1, got -4"),
    "best_epoch_below": ("best_epoch", -7, "in [-1, 1], got -7"),
    "best_epoch_above": ("best_epoch", 2, "in [-1, 1], got 2"),
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("cli")
    rc = main(["generate", "--seed", "3", "--out", str(ws / "data.jsonl")]
              + SMALL_ARGS)
    assert rc == 0
    rc = main(["train", "--data", str(ws / "data.jsonl"), "--seed", "3",
               "--model-out", str(ws / "model.ckpt"),
               "--log", str(ws / "log.csv")] + TRAIN_ARGS)
    assert rc == 0
    return ws


class TestGenerate:
    def test_manifest_matches_line_count(self, tmp_path, capsys):
        out = tmp_path / "d.jsonl"
        assert main(["generate", "--seed", "7", "--out", str(out)]
                    + SMALL_ARGS) == 0
        manifest = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert manifest["checkins"] == len(out.read_text().splitlines())

    def test_same_seed_same_sha256(self, tmp_path):
        outs = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            assert main(["generate", "--seed", "5", "--out", str(out)]
                        + SMALL_ARGS) == 0
            outs.append(hashlib.sha256(out.read_bytes()).hexdigest())
        assert outs[0] == outs[1]

    def test_invalid_p_explore_exits_2_naming_field(self, tmp_path, capsys):
        rc = main(["generate", "--seed", "1", "--out", str(tmp_path / "x"),
                   "--set", "data.p_explore=1.5"])
        assert rc == 2
        assert "p_explore" in capsys.readouterr().err

    # Each model, data, optimizer and eval value is checked when the config
    # is read, before any file is written or any data is read.
    @pytest.mark.parametrize("override, message", [
        ("model.enc_layers=0", "layers must be >= 1, got 0"),
        ("model.enc_dropout=1.0", "dropout must lie in [0, 1), got 1.0"),
        ("model.attention=foo", "unknown attention variant 'foo'"),
        ("model.enc_heads=3", "model.dim 16 not divisible by model.enc_heads 3"),
        ("model.decoder_query=foo", "unknown decoder_query 'foo'"),
        ("model.dim=0", "dim must be >= 1, got 0"),
        ("model.dim=-4", "dim must be >= 1, got -4"),
        ("model.enc_ff=0", "enc_ff must be null or >= 1, got 0"),
        ("model.sigma=0", "model.sigma must be > 0, got 0"),
        ("model.sigma=-1.5", "model.sigma must be > 0, got -1.5"),
        ("data.stride=0", "data.stride must be >= 1, got 0"),
        ("train.lr=0", "train.lr must be > 0, got 0"),
        ("train.lr=-0.1", "train.lr must be > 0, got -0.1"),
        ("train.beta1=1.5", "train.beta1 must lie in [0, 1), got 1.5"),
        ("train.beta1=-0.1", "train.beta1 must lie in [0, 1), got -0.1"),
        ("train.beta2=1", "train.beta2 must lie in [0, 1), got 1"),
        ("train.eps=0", "train.eps must be > 0, got 0"),
        ("train.weight_decay=-0.01", "train.weight_decay must be >= 0, got -0.01"),
        ("eval.ks=[]", "eval.ks must be a non-empty list of k >= 1, got []"),
        ("eval.ks=[1,0]", "eval.ks must be a non-empty list of k >= 1, got [1, 0]"),
        ("train.clip_norm=-1", "train.clip_norm must be >= 0, got -1"),
        # JSON's NaN and Infinity parse as floats; every number must be finite
        ("train.lr=NaN", "train.lr must be float, got nan"),
        ("model.sigma=NaN", "model.sigma must be float, got nan"),
        ("model.sigma=Infinity", "model.sigma must be float, got inf"),
        ("model.k=1e400", "model.k must be float, got inf"),
        ("topics.alpha=NaN", "topics.alpha must be float | None, got nan"),
        ("topics.beta=NaN", "topics.beta must be float, got nan"),
        ("train.eps=NaN", "train.eps must be float, got nan"),
        ("train.lambda_loc=NaN", "train.lambda_loc must be float, got nan"),
        ("train.clip_norm=NaN", "train.clip_norm must be float, got nan"),
        ("eval.thresholds=[0.5,-Infinity]",
         "eval.thresholds must be list[float], got [0.5, -inf]"),
        ("topics.gibbs_iters=-5", "topics.gibbs_iters must be >= 0, got -5"),
        # keys that the oscillator and the loss weights know by other names
        ("model.osc_iters=0", "model.osc_iters must be >= 1, got 0"),
        ("model.gamma=-1", "model.gamma must be >= 0, got -1"),
        ("train.lambda_loc=-1", "train.lambda_loc must be >= 0, got -1"),
        ("train.lambda_time=-0.5", "train.lambda_time must be >= 0, got -0.5"),
        ("train.lambda_aux=-2", "train.lambda_aux must be >= 0, got -2"),
    ], ids=["enc_layers", "enc_dropout", "attention", "enc_heads",
            "decoder_query", "dim_zero", "dim_negative", "enc_ff",
            "sigma_zero", "sigma_negative", "stride", "lr_zero", "lr_negative",
            "beta1_above", "beta1_negative", "beta2_one", "eps", "weight_decay",
            "ks_empty", "ks_zero", "clip_norm_negative", "lr_nan", "sigma_nan",
            "sigma_inf", "k_overflow", "alpha_nan", "beta_nan", "eps_nan",
            "lambda_loc_nan", "clip_norm_nan", "threshold_neg_inf",
            "gibbs_iters_negative", "osc_iters_zero", "gamma_negative",
            "lambda_loc_negative", "lambda_time_negative",
            "lambda_aux_negative"])
    def test_invalid_model_value_exits_2_writing_nothing(self, tmp_path, capsys,
                                                         override, message):
        rc = main(["generate", "--seed", "1", "--out", str(tmp_path / "d.jsonl"),
                   "--set", "model.dim=16", "--set", override])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert list(tmp_path.iterdir()) == []

    def test_all_zero_loss_weights_exit_2_naming_the_keys(self, tmp_path, capsys):
        rc = main(["generate", "--seed", "1", "--out", str(tmp_path / "d.jsonl"),
                   "--set", "train.lambda_loc=0", "--set", "train.lambda_time=0",
                   "--set", "train.lambda_aux=0"])
        assert rc == 2
        assert ("error: train.lambda_loc, train.lambda_time and train.lambda_aux "
                "must not all be 0" in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("key", ["attn_heads", "enc_heads"])
    def test_zero_heads_exits_2(self, tmp_path, capsys, key):
        rc = main(["generate", "--seed", "1", "--out", str(tmp_path / "d.jsonl"),
                   "--set", f"model.{key}=0"])
        assert rc == 2
        assert (f"error: model.{key} must be >= 1, got 0"
                in capsys.readouterr().err)

    # A refusal names the key as --set spells it, and the value it got.
    @pytest.mark.parametrize("override, message", _FULL_KEY_REFUSALS := [
        ("train.epochs=0", "train.epochs must be >= 1, got 0"),
        ("train.batch_size=0", "train.batch_size must be >= 1, got 0"),
        ("train.warmup_epochs=-1", "train.warmup_epochs must be >= 0, got -1"),
        ("data.num_users=0", "data.num_users must be >= 1, got 0"),
        ("data.days=0", "data.days must be >= 1, got 0"),
        ("data.window_len=1", "data.window_len must be >= 2, got 1"),
        ("model.enc_layers=0", "model.enc_layers must be >= 1, got 0"),
        ("model.dim=0", "model.dim must be >= 1, got 0"),
        ("model.enc_ff=0", "model.enc_ff must be null or >= 1, got 0"),
        ("model.enc_dropout=1.0", "model.enc_dropout must lie in [0, 1), got 1.0"),
        ("model.attn_heads=0", "model.attn_heads must be >= 1, got 0"),
        ("model.enc_heads=-2", "model.enc_heads must be >= 1, got -2"),
        ("topics.n_topics=1", "topics.n_topics must be >= 2, got 1"),
        # generated times its own reader would refuse
        ("data.dwell_seconds=100000000000000000000", "data.days * 86400 + "
         "data.dwell_seconds must be <= 4611686018427387904, got "
         "100000000000002592000"),
    ], ids=[override.split("=")[0] for override, _ in _FULL_KEY_REFUSALS])
    def test_refusal_names_the_full_key(self, tmp_path, capsys, override, message):
        rc = main(["generate", "--seed", "1", "--out", str(tmp_path / "d.jsonl"),
                   "--set", override])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_seed_required(self, tmp_path, capsys):
        rc = main(["generate", "--out", str(tmp_path / "x.jsonl")])
        assert rc == 2
        assert "seed" in capsys.readouterr().err.lower()

    def test_negative_seed_exits_2_naming_the_key(self, tmp_path, capsys):
        rc = main(["generate", "--seed", "-1", "--out", str(tmp_path / "d.jsonl")])
        assert rc == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert list(tmp_path.iterdir()) == []

    def test_config_echoed(self, tmp_path):
        out = tmp_path / "d.jsonl"
        main(["generate", "--seed", "7", "--out", str(out)] + SMALL_ARGS)
        echoed = json.loads(Path(str(out) + ".config.json").read_text())
        assert echoed["seed"] == 7
        assert echoed["data"]["num_users"] == 10
        # defaults materialized
        assert echoed["train"]["epochs"] == 100


# Each range config.validate checks, at its edges: (overrides, the refusal,
# or None where load_config accepts them). Each row's last accepted value
# is followed by its first refused one; a float steps to its neighbour.
TINY, BELOW_ONE, ABOVE_ONE = 5e-324, 0.9999999999999999, 1.0000000000000002
CEILING, WINDOW_CEILING = 2 ** 62, 2 ** 60
RANGE_EDGES = [
    ({"seed": 0}, None),
    ({"seed": -1}, "seed must be >= 0, got -1"),
    ({"data.p_explore": 0}, None),
    ({"data.p_explore": -TINY}, "data.p_explore must lie in [0, 1], got -5e-324"),
    ({"data.p_explore": 1}, None),
    ({"data.p_explore": ABOVE_ONE},
     "data.p_explore must lie in [0, 1], got 1.0000000000000002"),
    ({"data.activities_per_day": 1}, None),
    ({"data.activities_per_day": 0},
     "data.activities_per_day must lie in [1, 12], got 0"),
    ({"data.activities_per_day": 12}, None),
    ({"data.activities_per_day": 13},
     "data.activities_per_day must lie in [1, 12], got 13"),
    ({"data.num_users": 1}, None),
    ({"data.num_users": 0}, "data.num_users must be >= 1, got 0"),
    # num_locations must exceed returner_anchor_count, which must be >= 1:
    # num_locations 1 passes its own row and is refused by the next
    ({"data.num_locations": 1, "data.returner_anchor_count": 0},
     "data.returner_anchor_count must be >= 1, got 0"),
    ({"data.num_locations": 0, "data.returner_anchor_count": -1},
     "data.num_locations must be >= 1, got 0"),
    ({"data.days": 1}, None),
    ({"data.days": 0}, "data.days must be >= 1, got 0"),
    ({"data.returner_anchor_count": 1}, None),
    ({"data.returner_anchor_count": 0},
     "data.returner_anchor_count must be >= 1, got 0"),
    ({"data.dwell_seconds": 1}, None),
    ({"data.dwell_seconds": 0}, "data.dwell_seconds must be >= 1, got 0"),
    # every generated time lies below days * 86400 + dwell_seconds
    ({"data.days": 2, "data.dwell_seconds": CEILING - 172800}, None),
    ({"data.days": 2, "data.dwell_seconds": CEILING - 172799},
     "data.days * 86400 + data.dwell_seconds must be <= 4611686018427387904, "
     "got 4611686018427387905"),
    ({"data.days": CEILING // 86400 + 1},
     "data.days * 86400 + data.dwell_seconds must be <= 4611686018427387904, "
     "got 4611686018427450000"),
    ({"data.dwell_seconds": 4611686018427387000},
     "data.days * 86400 + data.dwell_seconds must be <= 4611686018427387904, "
     "got 4611686018429979000"),
    ({"model.osc_iters": 1}, None),
    ({"model.osc_iters": 0}, "model.osc_iters must be >= 1, got 0"),
    ({"model.gamma": 0}, None),
    ({"model.gamma": -TINY}, "model.gamma must be >= 0, got -5e-324"),
    ({"model.dim": 1, "model.attn_heads": 1, "model.enc_heads": 1}, None),
    ({"model.dim": 0}, "model.dim must be >= 1, got 0"),
    ({"model.sigma": TINY}, None),
    ({"model.sigma": 0}, "model.sigma must be > 0, got 0"),
    ({"model.enc_ff": None}, None),
    ({"model.enc_ff": 1}, None),
    ({"model.enc_ff": 0}, "model.enc_ff must be null or >= 1, got 0"),
    ({"model.enc_layers": 1}, None),
    ({"model.enc_layers": 0}, "model.enc_layers must be >= 1, got 0"),
    ({"model.enc_dropout": 0}, None),
    ({"model.enc_dropout": -TINY},
     "model.enc_dropout must lie in [0, 1), got -5e-324"),
    ({"model.enc_dropout": BELOW_ONE}, None),
    ({"model.enc_dropout": 1.0}, "model.enc_dropout must lie in [0, 1), got 1.0"),
    ({"model.attn_heads": 1}, None),
    # 0 would also break the divisibility of model.dim, checked next
    ({"model.attn_heads": 0}, "model.attn_heads must be >= 1, got 0"),
    ({"model.enc_heads": 1}, None),
    ({"model.enc_heads": 0}, "model.enc_heads must be >= 1, got 0"),
    ({"train.lambda_loc": 0}, None),
    ({"train.lambda_loc": -TINY}, "train.lambda_loc must be >= 0, got -5e-324"),
    ({"train.lambda_time": 0}, None),
    ({"train.lambda_time": -TINY}, "train.lambda_time must be >= 0, got -5e-324"),
    ({"train.lambda_aux": 0}, None),
    ({"train.lambda_aux": -TINY}, "train.lambda_aux must be >= 0, got -5e-324"),
    ({"train.epochs": 1}, None),
    ({"train.epochs": 0}, "train.epochs must be >= 1, got 0"),
    ({"train.batch_size": 1}, None),
    ({"train.batch_size": 0}, "train.batch_size must be >= 1, got 0"),
    ({"train.warmup_epochs": 0}, None),
    ({"train.warmup_epochs": -1}, "train.warmup_epochs must be >= 0, got -1"),
    ({"train.lr": TINY}, None),
    ({"train.lr": 0}, "train.lr must be > 0, got 0"),
    ({"train.beta1": 0}, None),
    ({"train.beta1": -TINY}, "train.beta1 must lie in [0, 1), got -5e-324"),
    ({"train.beta1": BELOW_ONE}, None),
    ({"train.beta1": 1.0}, "train.beta1 must lie in [0, 1), got 1.0"),
    ({"train.beta2": 0}, None),
    ({"train.beta2": -TINY}, "train.beta2 must lie in [0, 1), got -5e-324"),
    ({"train.beta2": BELOW_ONE}, None),
    ({"train.beta2": 1.0}, "train.beta2 must lie in [0, 1), got 1.0"),
    ({"train.eps": TINY}, None),
    ({"train.eps": 0}, "train.eps must be > 0, got 0"),
    ({"train.weight_decay": 0}, None),
    ({"train.weight_decay": -TINY}, "train.weight_decay must be >= 0, got -5e-324"),
    ({"train.clip_norm": 0}, None),
    ({"train.clip_norm": -TINY}, "train.clip_norm must be >= 0, got -5e-324"),
    ({"data.window_len": 2}, None),
    ({"data.window_len": 1}, "data.window_len must be >= 2, got 1"),
    ({"data.window_len": WINDOW_CEILING}, None),
    ({"data.window_len": WINDOW_CEILING + 1}, "data.window_len must lie in "
     "[2, 1152921504606846976], got 1152921504606846977"),
    # stride's ceiling is past window_len's
    ({"data.window_len": CEILING}, "data.window_len must lie in "
     "[2, 1152921504606846976], got 4611686018427387904"),
    ({"data.window_len": CEILING + 1}, "data.window_len must lie in "
     "[2, 1152921504606846976], got 4611686018427387905"),
    ({"data.stride": 1}, None),
    ({"data.stride": 0}, "data.stride must be >= 1, got 0"),
    ({"data.stride": CEILING}, None),
    ({"data.stride": CEILING + 1}, "data.stride must lie in "
     "[1, 4611686018427387904], got 4611686018427387905"),
    ({"topics.n_topics": 2}, None),
    ({"topics.n_topics": 1}, "topics.n_topics must be >= 2, got 1"),
    ({"topics.alpha": None}, None),
    ({"topics.alpha": TINY}, None),
    ({"topics.alpha": 0}, "topics.alpha must be null or > 0, got 0"),
    ({"topics.beta": TINY}, None),
    ({"topics.beta": 0}, "topics.beta must be > 0, got 0"),
    ({"topics.gibbs_iters": 0}, None),
    ({"topics.gibbs_iters": -1}, "topics.gibbs_iters must be >= 0, got -1"),
    # the anchor rule comes before the rows of both keys it compares
    ({"data.num_locations": 0},
     "data.num_locations must exceed returner_anchor_count (0 <= 3)"),
    ({"data.returner_anchor_count": 50},
     "data.num_locations must exceed returner_anchor_count (50 <= 50)"),
]


class TestConfigHandling:
    @pytest.mark.parametrize("overrides, refusal", RANGE_EDGES, ids=[
        ",".join(f"{k}={v}" for k, v in overrides.items())
        for overrides, _ in RANGE_EDGES])
    def test_range_edges(self, overrides, refusal):
        if refusal is None:
            cfg = load_config(None, overrides)
            assert all(operator.attrgetter(key)(cfg) == value
                       for key, value in overrides.items())
        else:
            with pytest.raises(ConfigError) as info:
                load_config(None, overrides)
            assert str(info.value) == refusal

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            RunConfig.from_dict({"seeed": 1})

    def test_unknown_section_key_rejected(self):
        with pytest.raises(ConfigError, match="train"):
            RunConfig.from_dict({"train": {"epoch": 5}})

    def test_flag_overrides_win_over_file(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({"seed": 1, "train": {"epochs": 9}}))
        cfg = load_config(cfg_path, {"train.epochs": 4})
        assert cfg.train.epochs == 4 and cfg.seed == 1

    def test_non_integer_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be an integer"):
            load_config(None, {"seed.x": 1})

    @pytest.mark.parametrize("key, value", [
        ("model.dim", "abc"), ("train.epochs", "abc"), ("data.num_users", 1.5),
        ("model.k", "abc"), ("eval.ks", "abc"), ("eval.ks", [1, 2.5]),
        ("model.enc_layers", True), ("model.attention", 3),
        ("topics.beta", None), ("seed", 1.5), ("seed", True)])
    def test_mistyped_value_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key} must be "):
            load_config(None, {key: value})

    def test_typed_values_kept_as_given(self):
        cfg = load_config(None, {"model.k": -500, "topics.alpha": None,
                                 "model.enc_ff": 32, "eval.thresholds": [1, 0.5]})
        d = cfg.to_dict()
        assert d["model"]["k"] == -500 and isinstance(d["model"]["k"], int)
        assert d["topics"]["alpha"] is None and d["model"]["enc_ff"] == 32
        assert d["eval"]["thresholds"] == [1, 0.5]

    def test_defaults_materialized(self):
        cfg = RunConfig.from_dict({})
        d = cfg.to_dict()
        assert d["model"]["k"] == -500.0
        assert d["train"]["lr"] == 0.005
        assert d["eval"]["thresholds"] == [0.75, 0.80, 0.85, 0.90]


class TestTrainEvalCommands:
    def test_missing_data_file_exits_2(self, tmp_path, capsys):
        rc = main(["train", "--data", str(tmp_path / "nope.jsonl"),
                   "--seed", "1", "--model-out", str(tmp_path / "m.ckpt")])
        assert rc == 2

    # The priors are checked when the config is read: the data file named
    # here does not exist, so any other failure would name it instead.
    @pytest.mark.parametrize("override, message", [
        ("topics.alpha=-1", "topics.alpha must be null or > 0, got -1"),
        ("topics.alpha=0", "topics.alpha must be null or > 0, got 0"),
        ("topics.beta=0", "topics.beta must be > 0, got 0"),
        ("topics.beta=-0.01", "topics.beta must be > 0, got -0.01"),
    ], ids=["alpha_negative", "alpha_zero", "beta_zero", "beta_negative"])
    def test_nonpositive_topic_prior_exits_2_before_reading_data(
            self, tmp_path, capsys, override, message):
        rc = main(["train", "--data", str(tmp_path / "nope.jsonl"),
                   "--seed", "1", "--model-out", str(tmp_path / "m.ckpt"),
                   "--set", override])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert list(tmp_path.iterdir()) == []

    # checked when the config is read: the data file named here does not exist
    def test_negative_seed_exits_2_before_reading_data(self, tmp_path, capsys):
        rc = main(["train", "--data", str(tmp_path / "nope.jsonl"),
                   "--seed", "-3", "--model-out", str(tmp_path / "m.ckpt")])
        assert rc == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -3\n"
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_number_in_config_file_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": 1, "train": {"lr": NaN}}\n')
        rc = main(["train", "--data", str(tmp_path / "nope.jsonl"),
                   "--config", str(cfg), "--model-out", str(tmp_path / "m.ckpt")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: train.lr must be ")
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("thresholds", ["0.5,nan", "inf", "0.8,-inf"])
    def test_eval_non_finite_threshold_exits_2(self, workspace, tmp_path,
                                               capsys, thresholds):
        rc = main(["eval", "--data", str(workspace / "data.jsonl"),
                   "--model", str(workspace / "model.ckpt"),
                   "--report", str(tmp_path / "report"),
                   "--thresholds", thresholds])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: eval.thresholds must be ")
        assert list(tmp_path.iterdir()) == []

    def test_eval_unparsable_threshold_exits_2(self, workspace, tmp_path,
                                               capsys):
        for thresholds, bad in (("0.5,abc", "abc"), ("", "")):
            rc = main(["eval", "--data", str(workspace / "data.jsonl"),
                       "--model", str(workspace / "model.ckpt"),
                       "--report", str(tmp_path / "report"),
                       "--thresholds", thresholds])
            assert rc == 2
            assert capsys.readouterr().err == (
                "error: --thresholds expects comma-separated numbers: could "
                f"not convert string to float: '{bad}'\n")
            assert list(tmp_path.iterdir()) == []

    def test_eval_writes_reports(self, workspace):
        rc = main(["eval", "--data", str(workspace / "data.jsonl"),
                   "--model", str(workspace / "model.ckpt"),
                   "--report", str(workspace / "report")])
        assert rc == 0
        for suffix in (".json", ".txt", ".csv"):
            assert (workspace / f"report{suffix}").exists()

    def test_eval_report_base_kept_verbatim_in_new_directory(self, workspace,
                                                              tmp_path):
        base = tmp_path / "fresh" / "out" / "cnoa.report"
        rc = main(["eval", "--data", str(workspace / "data.jsonl"),
                   "--model", str(workspace / "model.ckpt"),
                   "--report", str(base)])
        assert rc == 0
        assert sorted(p.name for p in base.parent.iterdir()) == [
            "cnoa.report.config.json", "cnoa.report.csv", "cnoa.report.json",
            "cnoa.report.txt"]

    def test_mmc_and_eval_report_same_n_samples(self, workspace):
        rc = main(["mmc", "--data", str(workspace / "data.jsonl"),
                   "--report", str(workspace / "mmc_report")] + SMALL_ARGS)
        assert rc == 0
        eval_n = json.loads((workspace / "report.json").read_text())["n_samples"]
        mmc_n = json.loads((workspace / "mmc_report.json").read_text())["n_samples"]
        assert eval_n == mmc_n

    @pytest.mark.parametrize("command, extra, key", [
        ("eval", [], "acc@1"),
        ("mmc", SMALL_ARGS + ["--set", "eval.ks=[5,10]"], "acc@5"),
    ])
    def test_summary_names_the_k_it_reports(self, workspace, tmp_path, capsys,
                                            command, extra, key):
        report = tmp_path / "report"
        model = (["--model", str(workspace / "model.ckpt")]
                 if command == "eval" else [])
        rc = main([command, "--data", str(workspace / "data.jsonl"),
                   "--report", str(report)] + model + extra)
        assert rc == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        written = json.loads((tmp_path / "report.json").read_text())
        assert summary == {"n_samples": written["n_samples"],
                           key: written["acc"][key], "mrr": written["mrr"]}

    def test_eval_thresholds_flag_overrides_config(self, workspace):
        rc = main(["eval", "--data", str(workspace / "data.jsonl"),
                   "--model", str(workspace / "model.ckpt"),
                   "--report", str(workspace / "report_th"),
                   "--thresholds", "0.5,0.95"])
        assert rc == 0
        data = json.loads((workspace / "report_th.json").read_text())
        assert set(data["by_threshold"]) == {"0.5", "0.95"}

    def test_entropy_report(self, workspace):
        rc = main(["entropy", "--data", str(workspace / "data.jsonl"),
                   "--report", str(workspace / "entropy.csv")] + SMALL_ARGS)
        assert rc == 0
        lines = (workspace / "entropy.csv").read_text().splitlines()
        assert lines[0] == "user,seq_pos,prefix_entropy"
        assert len(lines) > 1

    def test_resume_continues_identically(self, workspace, tmp_path):
        # 3-epoch run from scratch (later --set of the same key wins)
        full_log = tmp_path / "full.csv"
        rc = main(["train", "--data", str(workspace / "data.jsonl"),
                   "--seed", "3", "--model-out", str(tmp_path / "full.ckpt"),
                   "--log", str(full_log)] + TRAIN_ARGS
                  + ["--set", "train.epochs=3"])
        assert rc == 0
        # resume the module-scoped 2-epoch checkpoint for 1 more epoch
        resume_log = tmp_path / "resume.csv"
        rc = main(["train", "--data", str(workspace / "data.jsonl"),
                   "--resume", str(workspace / "model.ckpt"),
                   "--model-out", str(tmp_path / "resumed.ckpt"),
                   "--log", str(resume_log),
                   "--set", "train.epochs=3"])
        assert rc == 0
        full_rows = full_log.read_text().splitlines()
        resume_rows = resume_log.read_text().splitlines()
        assert full_rows[3] == resume_rows[3]  # epoch 2 identical

    def test_eval_and_resume_reject_larger_location_space(self, workspace,
                                                          tmp_path, capsys):
        wider = tmp_path / "wider.jsonl"
        assert main(["generate", "--seed", "3", "--out", str(wider)]
                    + SMALL_ARGS + ["--set", "data.num_locations=40"]) == 0
        rc = main(["eval", "--data", str(wider),
                   "--model", str(workspace / "model.ckpt"),
                   "--report", str(tmp_path / "report")])
        assert rc == 2
        assert "n_locations" in capsys.readouterr().err
        rc = main(["train", "--data", str(wider),
                   "--resume", str(workspace / "model.ckpt"),
                   "--model-out", str(tmp_path / "resumed.ckpt"),
                   "--set", "train.epochs=3"])
        assert rc == 2
        assert "n_locations" in capsys.readouterr().err

    def test_resume_refuses_config_writing_nothing(self, workspace, tmp_path,
                                                   capsys):
        other = tmp_path / "other.json"
        other.write_text('{"train": {"lr": 0.5}, "model": {"dim": 32}}\n')
        rc = main(["train", "--data", str(workspace / "data.jsonl"),
                   "--resume", str(workspace / "model.ckpt"),
                   "--config", str(other),
                   "--model-out", str(tmp_path / "resumed.ckpt"),
                   "--log", str(tmp_path / "log.csv"),
                   "--set", "train.epochs=3"])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "error: --config cannot be used with --resume")
        assert [p.name for p in tmp_path.iterdir()] == ["other.json"]

    def test_resume_override_into_non_section_exits_2(self, workspace,
                                                     tmp_path, capsys):
        rc = main(["train", "--data", str(workspace / "data.jsonl"),
                   "--resume", str(workspace / "model.ckpt"),
                   "--model-out", str(tmp_path / "resumed.ckpt"),
                   "--set", "seed.x=1"])
        assert rc == 2
        assert "error: cannot override 'seed.x': not a section" in capsys.readouterr().err

    @pytest.mark.parametrize("layers", [4, 2], ids=["more_layers", "fewer_layers"])
    def test_resume_refuses_changed_architecture(self, workspace, tmp_path,
                                                 capsys, layers):
        rc = main(["train", "--data", str(workspace / "data.jsonl"),
                   "--resume", str(workspace / "model.ckpt"),
                   "--model-out", str(tmp_path / "resumed.ckpt"),
                   "--set", "train.epochs=3",
                   "--set", f"model.enc_layers={layers}"])
        assert rc == 2
        assert "error: resume may change only train.* and eval.* keys; " \
               "changed: model.enc_layers" in capsys.readouterr().err
        assert not (tmp_path / "resumed.ckpt").exists()

    # The workspace checkpoint was trained with seed 3, dim 8, window_len 10.
    @pytest.mark.parametrize("args, changed", [
        (["--set", "model.attention=cross"], "model.attention"),
        (["--set", "model.enc_heads=4"], "model.enc_heads"),
        (["--set", "data.window_len=12"], "data.window_len"),
        (["--seed", "4"], "seed"),
        (["--set", "seed=4"], "seed"),
        (["--seed", "3"], None),
        (["--set", "model.dim=8"], None),
    ], ids=["attention", "enc_heads", "window_len", "seed_flag", "seed_set",
            "same_seed", "same_dim"])
    def test_resume_refuses_changes_outside_train_and_eval(
            self, workspace, tmp_path, capsys, args, changed):
        out = tmp_path / "resumed.ckpt"
        rc = main(["train", "--data", str(workspace / "data.jsonl"),
                   "--resume", str(workspace / "model.ckpt"),
                   "--model-out", str(out), "--set", "train.epochs=3"] + args)
        if changed is None:
            assert rc == 0 and out.exists()
        else:
            assert rc == 2
            assert f"changed: {changed}" in capsys.readouterr().err
            assert not out.exists()

    def test_resume_with_no_epochs_left_exits_2_writing_nothing(
            self, workspace, tmp_path, capsys):
        rc = main(["train", "--data", str(workspace / "data.jsonl"),
                   "--resume", str(workspace / "model.ckpt"),
                   "--model-out", str(tmp_path / "resumed.ckpt"),
                   "--log", str(tmp_path / "log.csv"), "--set", "train.epochs=2"])
        assert rc == 2
        assert ("error: train.epochs=2 leaves nothing to train: the checkpoint "
                "has 2 finished epochs") in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_eval_refuses_previous_checkpoint_format(self, workspace, tmp_path,
                                                     capsys):
        with np.load(workspace / "model.ckpt") as data:
            arrays = {key: data[key] for key in data.files}
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
        meta["format"] = "canoe-ckpt-2"
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"),
                                       dtype=np.uint8)
        old = tmp_path / "old.npz"
        np.savez(old, **arrays)
        rc = main(["eval", "--data", str(workspace / "data.jsonl"),
                   "--model", str(old), "--report", str(tmp_path / "report")])
        assert rc == 2
        assert ("error: unsupported checkpoint format: 'canoe-ckpt-2'"
                in capsys.readouterr().err)

    def test_eval_of_a_non_finite_weight_exits_1(self, workspace, tmp_path,
                                                 capsys):
        # a row of NaN probabilities would rank its target first
        with np.load(workspace / "model.ckpt") as data:
            arrays = {key: data[key].copy() for key in data.files}
        arrays["best/decoder.loc.w"][0, 0] = np.inf
        bad = tmp_path / "inf.ckpt"
        with bad.open("wb") as fh:
            np.savez(fh, **arrays)
        rc = main(["eval", "--data", str(workspace / "data.jsonl"),
                   "--model", str(bad), "--report", str(tmp_path / "report")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: non-finite location scores in a ranking forward\n")
        assert [p.name for p in tmp_path.iterdir()] == ["inf.ckpt"]

    @pytest.mark.parametrize("command", ["eval", "resume"])
    @pytest.mark.parametrize("damage", ["truncated", "no_meta", "meta_list",
                                        "text", "meta_without_config",
                                        "meta_without_epoch",
                                        "meta_without_logs",
                                        "topic_model_null",
                                        "topic_model_without_alpha",
                                        "topics_without_phi", *BAD_META])
    def test_broken_checkpoint_exits_2(self, workspace, tmp_path, capsys,
                                       command, damage):
        bad = tmp_path / "bad.ckpt"
        good = workspace / "model.ckpt"
        key = damage.removeprefix("meta_without_")
        if damage == "truncated":
            bad.write_bytes(good.read_bytes()[:-100])
        elif damage == "text":
            bad.write_text("not a checkpoint\n")
        else:
            with np.load(good) as data:
                arrays = {key: data[key] for key in data.files}
            meta = json.loads(bytes(arrays.pop("meta")).decode("utf-8"))
            if damage.startswith("meta_without_"):
                del meta[key]
            elif damage == "topic_model_null":
                meta["topic_model"] = None
            elif damage == "topic_model_without_alpha":
                meta["topic_model"] = {"n_topics": meta["topic_model"]["n_topics"]}
            elif damage == "topics_without_phi":
                del arrays["topics/phi"]
            elif damage in BAD_META:
                key, value, _ = BAD_META[damage]
                if key.startswith("topic_model "):
                    meta["topic_model"][key.split()[1]] = value
                else:
                    meta[key] = value
            if damage == "meta_list":
                arrays["meta"] = np.frombuffer(b"[]", dtype=np.uint8)
            elif damage != "no_meta":
                arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"),
                                               dtype=np.uint8)
            with bad.open("wb") as fh:
                np.savez(fh, **arrays)
        data = str(workspace / "data.jsonl")
        argv = {
            "eval": ["eval", "--data", data, "--model", str(bad),
                     "--report", str(tmp_path / "report")],
            "resume": ["train", "--data", data, "--resume", str(bad),
                       "--model-out", str(tmp_path / "m.ckpt"),
                       "--set", "train.epochs=3"],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad} is not a canoe checkpoint: ")
        if damage.startswith("meta_without_"):
            assert err.endswith(f": its meta lacks {key}\n")
        elif damage == "topic_model_null":
            assert err.endswith(": its meta topic_model is null, not an object, "
                                "beside topics/theta\n")
        elif damage == "topic_model_without_alpha":
            assert err.endswith(": its meta topic_model lacks alpha, beta, "
                                "gibbs_iters, seed\n")
        elif damage == "topics_without_phi":
            assert err.endswith(": it holds topics/theta without topics/phi\n")
        elif damage in BAD_META:
            key, _, requirement = BAD_META[damage]
            assert err.endswith(f": its meta {key} must be {requirement}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["bad.ckpt"]

    # Bits of a stored member's .npy header, in the spaces that pad its
    # dict: one becomes "(" at 80/3 and "!" at 83/0, and numpy parses the
    # header before the member's CRC is checked.
    @pytest.mark.parametrize("offset, bit", [(80, 3), (83, 0)])
    def test_flipped_npy_header_bit_exits_2(self, workspace, tmp_path, capsys,
                                            offset, bit):
        good = workspace / "model.ckpt"
        raw = bytearray(good.read_bytes())
        with zipfile.ZipFile(good) as zf:
            at = zf.getinfo("param/decoder.fuse1.w.npy").header_offset
        name_len, extra_len = struct.unpack("<HH", raw[at + 26:at + 30])
        raw[at + 30 + name_len + extra_len + offset] ^= 1 << bit
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(raw)
        assert main(["eval", "--data", str(workspace / "data.jsonl"),
                     "--model", str(bad),
                     "--report", str(tmp_path / "report")]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad} is not a canoe checkpoint: Bad CRC-32 for file "
            f"'param/decoder.fuse1.w.npy'\n")
        assert [p.name for p in tmp_path.iterdir()] == ["bad.ckpt"]

    def test_deflated_checkpoint_loads_and_evaluates_the_same(
            self, workspace, tmp_path):
        good = workspace / "model.ckpt"
        deflated = tmp_path / "deflated.ckpt"
        with np.load(good) as data:
            arrays = {key: data[key] for key in data.files}
        with deflated.open("wb") as fh:  # as every earlier version wrote
            np.savez_compressed(fh, **arrays)
        for path, stored in ((good, zipfile.ZIP_STORED),
                             (deflated, zipfile.ZIP_DEFLATED)):
            with zipfile.ZipFile(path) as zf:
                assert {i.compress_type for i in zf.infolist()} == {stored}
        got, want = load_checkpoint(deflated), load_checkpoint(good)
        assert got.meta == want.meta
        for field in ("params", "best_params", "opt_arrays"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.keys() == b.keys()
            assert all(a[k].dtype == b[k].dtype and a[k].shape == b[k].shape
                       and a[k].tobytes() == b[k].tobytes() for k in a)
        assert got.theta.tobytes() == want.theta.tobytes()
        assert got.phi.tobytes() == want.phi.tobytes()
        for path, report in ((good, "stored"), (deflated, "deflated")):
            assert main(["eval", "--data", str(workspace / "data.jsonl"),
                         "--model", str(path),
                         "--report", str(tmp_path / report)]) == 0
        for suffix in (".json", ".txt", ".csv", ".config.json"):
            assert ((tmp_path / f"deflated{suffix}").read_bytes()
                    == (tmp_path / f"stored{suffix}").read_bytes())

    @pytest.mark.parametrize("message", [
        "Unable to allocate 576. GiB for an array with shape "
        "(2147483648, 36) and data type float64", ""])
    def test_memory_error_exits_2_naming_the_stage(self, workspace, tmp_path,
                                                   capsys, monkeypatch, message):
        def fit_lda(*args, **kwargs):  # as numpy fails, without allocating
            raise MemoryError(message)

        monkeypatch.setattr(cli, "fit_lda", fit_lda)
        assert main(["train", "--data", str(workspace / "data.jsonl"),
                     "--seed", "3", "--model-out", str(tmp_path / "m.ckpt")]
                    + TRAIN_ARGS) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: out of memory in cli.fit_topics"
                                + (f": {message}" if message else "") + "\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("damage, message", [
        ("first_moments", "optimizer state names differ from the model's: "
         "missing ['m/time_table', 'm/user_table', 'm/loc_table', "
         "'m/ul_head.l1.w', 'm/ul_head.l1.b'] and "),
        ("step", "optimizer state names differ from the model's: "
         "missing ['step'], unexpected []"),
        ("shape", "shape mismatch for 'm/time_table': (1,) vs (24, 8)"),
    ], ids=["first_moments", "step", "shape"])
    def test_resume_with_broken_optimizer_state_exits_2(
            self, workspace, tmp_path, capsys, damage, message):
        with np.load(workspace / "model.ckpt") as data:
            arrays = {name: data[name] for name in data.files}
        if damage == "first_moments":
            arrays = {k: a for k, a in arrays.items() if not k.startswith("opt/m/")}
        elif damage == "step":
            del arrays["opt/step"]
        else:
            arrays["opt/m/time_table"] = np.zeros(1)
        bad = tmp_path / "bad.ckpt"
        with bad.open("wb") as fh:
            np.savez(fh, **arrays)
        rc = main(["train", "--data", str(workspace / "data.jsonl"),
                   "--resume", str(bad), "--model-out", str(tmp_path / "m.ckpt"),
                   "--set", "train.epochs=3"])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert [p.name for p in tmp_path.iterdir()] == ["bad.ckpt"]

    @pytest.mark.parametrize("flag", ["--data", "--config", "--model"])
    def test_directory_as_input_exits_2(self, workspace, tmp_path, capsys,
                                        flag):
        folder = tmp_path / "folder"
        folder.mkdir()
        data = str(workspace / "data.jsonl")
        argv = {
            "--data": ["train", "--data", str(folder), "--seed", "3",
                       "--model-out", str(tmp_path / "m.ckpt")],
            "--config": ["preprocess", "--config", str(folder), "--data", data],
            "--model": ["eval", "--data", data, "--model", str(folder),
                        "--report", str(tmp_path / "report")],
        }[flag]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Is a directory" in err
        assert [p.name for p in tmp_path.iterdir()] == ["folder"]

    def test_unwritable_log_exits_2_before_training(self, workspace, tmp_path,
                                                    capsys, monkeypatch):
        from canoe.model import CanoeModel

        steps = []
        real_loss_batch = CanoeModel.loss_batch

        def counted_loss_batch(self, *args, **kwargs):
            steps.append(1)
            return real_loss_batch(self, *args, **kwargs)

        monkeypatch.setattr(CanoeModel, "loss_batch", counted_loss_batch)
        (tmp_path / "afile").write_text("")
        rc = main(["train", "--data", str(workspace / "data.jsonl"), "--seed", "3",
                   "--model-out", str(tmp_path / "m.ckpt"),
                   "--log", str(tmp_path / "afile" / "log.csv")] + TRAIN_ARGS)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "afile" in err
        assert steps == []
        assert [p.name for p in tmp_path.iterdir()] == ["afile"]

    @pytest.mark.parametrize("command, outputs", [
        ("generate", ["d.jsonl", "d.jsonl.config.json"]),
        ("preprocess", ["s.json", "s.json.config.json"]),
        ("train", ["log.csv", "m.ckpt", "m.ckpt.config.json"]),
        ("eval", ["r.config.json", "r.csv", "r.json", "r.txt"]),
        ("mmc", ["r.config.json", "r.csv", "r.json", "r.txt"]),
        ("entropy", ["e.csv", "e.csv.config.json"]),
    ], ids=["generate", "preprocess", "train", "eval", "mmc", "entropy"])
    def test_output_in_missing_directory_is_created(self, workspace, tmp_path,
                                                    capsys, command, outputs):
        new = tmp_path / "new" / "deeper"
        data = ["--data", str(workspace / "data.jsonl")]
        argv = {
            "generate": ["--seed", "7", "--out", str(new / "d.jsonl")] + SMALL_ARGS,
            "preprocess": data + ["--out", str(new / "s.json")] + SMALL_ARGS,
            "train": data + ["--seed", "3", "--model-out", str(new / "m.ckpt"),
                             "--log", str(new / "log.csv")] + TRAIN_ARGS,
            "eval": data + ["--model", str(workspace / "model.ckpt"),
                            "--report", str(new / "r")],
            "mmc": data + ["--report", str(new / "r")] + SMALL_ARGS,
            "entropy": data + ["--report", str(new / "e.csv")] + SMALL_ARGS,
        }[command]
        assert main([command] + argv) == 0
        assert sorted(p.name for p in new.iterdir()) == outputs
        printed = capsys.readouterr().out.strip().splitlines()[-1]
        if command == "preprocess":
            assert json.loads((new / "s.json").read_text()) == json.loads(printed)
        elif command == "train":
            assert ((new / "log.csv").read_text()
                    == (workspace / "log.csv").read_text())

    def test_numeric_fault_exits_1_with_error_line(self, workspace, tmp_path,
                                                   capsys):
        with np.load(workspace / "model.ckpt") as data:
            arrays = {key: data[key] for key in data.files}
        for key in arrays:
            if key.startswith("param/"):
                arrays[key] = np.full_like(arrays[key], np.nan)
        bad = tmp_path / "nan.npz"
        np.savez(bad, **arrays)
        rc = main(["train", "--data", str(workspace / "data.jsonl"),
                   "--resume", str(bad),
                   "--model-out", str(tmp_path / "resumed.ckpt"),
                   "--set", "train.epochs=3"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: non-finite")

    def test_bad_checkin_value_exits_2_naming_line(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"user": 0, "loc": 1, "t": 17.9}\n')
        rc = main(["preprocess", "--data", str(path)])
        assert rc == 2
        assert "bad.jsonl:1: t must be an integer" in capsys.readouterr().err

    # stride above 2**62 could overflow the window arithmetic, and window_len
    # above 2**60 could not gather its empty splits' context rows
    @pytest.mark.parametrize("key, low, high", [("data.window_len", 2, 2 ** 60),
                                                ("data.stride", 1, 2 ** 62)],
                             ids=["data.window_len-2", "data.stride-1"])
    @pytest.mark.parametrize("value", [2 ** 62 + 1, 2 ** 63 - 1, 10 ** 20])
    def test_window_value_past_the_ceiling_exits_2(self, workspace, capsys,
                                                   key, low, high, value):
        rc = main(["preprocess", "--data", str(workspace / "data.jsonl")]
                  + SMALL_ARGS + ["--set", f"{key}={value}"])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {key} must lie in [{low}, {high}], got {value}\n")

    def test_preprocess_summary(self, workspace, capsys):
        rc = main(["preprocess", "--data", str(workspace / "data.jsonl")]
                  + SMALL_ARGS)
        assert rc == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["users_kept"] == 10
        total = sum(summary["samples"].values())
        assert total > 0


class TestLogLevel:
    @pytest.mark.parametrize("value", ["degub", "verbose", "0"])
    def test_unknown_canoe_log_exits_2_writing_nothing(self, workspace, tmp_path,
                                                       capsys, monkeypatch, value):
        monkeypatch.setenv("CANOE_LOG", value)
        rc = main(["preprocess", "--data", str(workspace / "data.jsonl"),
                   "--out", str(tmp_path / "s.json")] + SMALL_ARGS)
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: CANOE_LOG must be one of error, warn, "
                                f"info, debug, got '{value}'\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["", " Debug ", "WARN"])
    def test_empty_or_any_case_canoe_log_is_accepted(self, workspace, capsys,
                                                     monkeypatch, value):
        monkeypatch.setenv("CANOE_LOG", value)
        assert main(["preprocess", "--data", str(workspace / "data.jsonl")]
                    + SMALL_ARGS) == 0


class TestGradcheckCommand:
    def test_prints_value_below_tolerance_and_exits_0(self, capsys):
        rc = main(["gradcheck"])
        out = capsys.readouterr().out.strip()
        assert rc == 0
        assert float(out) < 1e-4

    @pytest.mark.parametrize("override, message", [
        ("model.dim=abc", "model.dim must be "),
        ("model.dim=9", "model.dim 9 not divisible by model.attn_heads 2"),
    ], ids=["mistyped", "invalid"])
    def test_set_applies_to_tiny_config(self, capsys, override, message):
        rc = main(["gradcheck", "--set", override])
        assert rc == 2
        assert f"error: {message}" in capsys.readouterr().err

    def test_exit_1_when_tolerance_not_met(self, capsys, monkeypatch):
        epsilons = []

        def fake_gradcheck(cfg, epsilon):
            epsilons.append(epsilon)
            return 2.5e-3

        monkeypatch.setattr(checks, "full_model_gradcheck", fake_gradcheck)
        rc = main(["gradcheck", "--tolerance", "1e-3", "--epsilon", "3e-6"])
        assert rc == 1
        assert capsys.readouterr().out == "2.500000e-03\n"
        assert epsilons == [3e-6]

    @pytest.mark.parametrize("tolerance", ["nan", "-1", "0", "inf"])
    def test_tolerance_must_be_finite_and_positive(self, capsys, tolerance):
        rc = main(["gradcheck", "--tolerance", tolerance])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == ("error: tolerance must be finite and > 0, "
                                f"got {float(tolerance)}\n")


def _raising(exc: Exception):
    def cdll(name):
        raise exc
    return cdll


class TestSteadyHeap:
    # the arena limit is set whatever glibc replied to the mmap threshold
    @pytest.mark.parametrize("mmap_reply, expected", [
        (1, [(-3, 32 << 20), (-1, 1 << 30), (-8, 1)]),
        (0, [(-3, 32 << 20), (-8, 1)]),  # refused: the trim threshold is never set
    ], ids=["accepted", "refused"])
    def test_mmap_threshold_first_then_trim_threshold(self, monkeypatch,
                                                      mmap_reply, expected):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return mmap_reply if param == -3 else 1

        monkeypatch.setattr(ctypes, "CDLL",
                            lambda name: types.SimpleNamespace(mallopt=mallopt))
        steady_heap()
        assert calls == expected

    @pytest.mark.parametrize("fake_cdll", [
        _raising(OSError("no C library")),
        lambda name: types.SimpleNamespace(),  # a C library without mallopt
        _raising(TypeError("dlopen of None is not supported")),
    ], ids=["oserror", "no_mallopt", "typeerror"])
    def test_without_mallopt_nothing_is_set_and_commands_run(
            self, monkeypatch, workspace, fake_cdll):
        monkeypatch.setattr(ctypes, "CDLL", fake_cdll)
        steady_heap()
        rc = main(["preprocess", "--data", str(workspace / "data.jsonl")]
                  + SMALL_ARGS)
        assert rc == 0
