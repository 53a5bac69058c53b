"""CLI contract: exit codes, determinism, config echo, report parity."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from canoe.cli import main
from canoe.config import ConfigError, RunConfig, load_config


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
    def test_manifest_matches_line_count(self, tmp_path):
        out = tmp_path / "d.jsonl"
        assert main(["generate", "--seed", "7", "--out", str(out)]
                    + SMALL_ARGS) == 0
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
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

    def test_seed_required(self, tmp_path, capsys):
        rc = main(["generate", "--out", str(tmp_path / "x.jsonl")])
        assert rc == 2
        assert "seed" in capsys.readouterr().err.lower()

    def test_config_echoed(self, tmp_path):
        out = tmp_path / "d.jsonl"
        main(["generate", "--seed", "7", "--out", str(out)] + SMALL_ARGS)
        echoed = json.loads(Path(str(out) + ".config.json").read_text())
        assert echoed["seed"] == 7
        assert echoed["data"]["num_users"] == 10
        # defaults materialized
        assert echoed["train"]["epochs"] == 100


class TestConfigHandling:
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

    def test_eval_writes_reports(self, workspace):
        rc = main(["eval", "--data", str(workspace / "data.jsonl"),
                   "--model", str(workspace / "model.ckpt"),
                   "--report", str(workspace / "report")])
        assert rc == 0
        for suffix in (".json", ".txt", ".csv"):
            assert (workspace / f"report{suffix}").exists()

    def test_mmc_and_eval_report_same_n_samples(self, workspace):
        rc = main(["mmc", "--data", str(workspace / "data.jsonl"),
                   "--report", str(workspace / "mmc_report")] + SMALL_ARGS)
        assert rc == 0
        eval_n = json.loads((workspace / "report.json").read_text())["n_samples"]
        mmc_n = json.loads((workspace / "mmc_report.json").read_text())["n_samples"]
        assert eval_n == mmc_n

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

    def test_preprocess_summary(self, workspace, capsys):
        rc = main(["preprocess", "--data", str(workspace / "data.jsonl")]
                  + SMALL_ARGS)
        assert rc == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["users_kept"] == 10
        total = sum(summary["samples"].values())
        assert total > 0


class TestGradcheckCommand:
    def test_prints_value_below_tolerance_and_exits_0(self, capsys):
        rc = main(["gradcheck"])
        out = capsys.readouterr().out.strip()
        assert rc == 0
        assert float(out) < 1e-4

    def test_exit_1_when_tolerance_not_met(self, capsys):
        rc = main(["gradcheck", "--tolerance", "1e-30"])
        assert rc == 1
