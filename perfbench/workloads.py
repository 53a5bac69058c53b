"""The benchmark's workloads: their sizes, their input and their pipelines.

Every pipeline runs canoe commands through ``canoe.cli.main``, as a user
types them. train-epochs and topic-fit run ``canoe train`` then
``canoe eval``; rank-eval runs ``canoe eval`` on each of its untrained
checkpoints, then ``canoe mmc`` and ``canoe entropy``. No canoe command
writes an untrained checkpoint, so ``write_input`` writes them with the
input, before any timed interval.

Why these three (see README.md for the full rationale):

* train-epochs - the transformer forward plus ``dcg.backward`` are most of
  the time and topic fit is small: every dcg/encoder/cnoa/decoder change
  shows here.
* topic-fit - 450-topic Gibbs LDA is most of set-up and pipeline time and
  training is shrunk: a topic-model change shows here and is predicted flat
  on train-epochs.
* rank-eval - forward-only ranking at 512-row batches, JSONL read,
  checkpoint write/load, MMC and entropy on a larger, noisier input. It
  never calls backward or AdamW, so work moved from backward into forward
  shows as a regression here.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from metrics import ranks_digest

__all__ = ["WORKLOADS", "run_config", "write_input", "run_pipeline"]

WORKLOADS = ("train-epochs", "topic-fit", "rank-eval")

# Freshly initialised checkpoints ranked by rank-eval (model seeds differ;
# ranking cost does not depend on the weights).
RANK_EVAL_CHECKPOINTS = 3

_SIZES = {
    # 80 users of the README generator (50 locations, 30 days), default
    # model; one warmup epoch then one full-loss epoch.
    "train-epochs": {
        "data": {"num_users": 80},
        "topics": {"n_topics": 16, "gibbs_iters": 3},
        "train": {"epochs": 2, "warmup_epochs": 1},
    },
    # The README dataset at the default 450 topics; one epoch over every
    # 8th window keeps the tokens but cuts the training samples ~8x.
    "topic-fit": {
        "data": {"num_users": 200, "stride": 8},
        "topics": {"n_topics": 450, "gibbs_iters": 12},
        "train": {"epochs": 1, "warmup_epochs": 0},
    },
    # 225 users x 30 days with exploration: varied prefix entropy and many
    # distinct transitions.
    "rank-eval": {
        "data": {"num_users": 225, "days": 30, "p_explore": 0.2},
    },
}

# Reduced sizes for the harness self-test: same code paths, seconds not tens.
_SMOKE = {
    "train-epochs": {"data": {"num_users": 12, "days": 20, "min_records": 50},
                     "topics": {"n_topics": 8, "gibbs_iters": 2},
                     "model": {"dim": 8}},
    "topic-fit": {"data": {"num_users": 12, "days": 20, "min_records": 50},
                  "topics": {"n_topics": 32, "gibbs_iters": 2},
                  "model": {"dim": 8}},
    "rank-eval": {"data": {"num_users": 15, "days": 30, "min_records": 50},
                  "topics": {"n_topics": 8}, "model": {"dim": 8}},
}


def run_config(workload: str, seed: int, smoke: bool = False) -> dict:
    """The canoe run configuration (config.py schema) of a workload."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload '{workload}'")
    cfg: dict = {"seed": seed}
    for source in (_SIZES[workload], _SMOKE[workload] if smoke else {}):
        for section, values in source.items():
            cfg.setdefault(section, {}).update(values)
    return cfg


def checkpoint_paths(input_dir: Path) -> list[Path]:
    """The untrained checkpoints rank-eval ranks with, next to its input."""
    return [input_dir / f"model{c}.ckpt" for c in range(RANK_EVAL_CHECKPOINTS)]


def write_input(workload: str, seed: int, out_dir: Path, smoke: bool = False) -> tuple[Path, Path]:
    """Write the run config and the generated check-in file; return both paths.

    For rank-eval also write its freshly initialised checkpoints: no canoe
    command writes an untrained one, so they are part of the input."""
    from canoe.config import RunConfig
    from canoe.data import write_checkins
    from canoe.synthetic import generate_synthetic

    raw = run_config(workload, seed, smoke)
    config_path = out_dir / "config.json"
    config_path.write_text(json.dumps(raw, indent=2) + "\n", encoding="utf-8")
    data_path = out_dir / "checkins.jsonl"
    checkins = generate_synthetic(RunConfig.from_dict(raw).synthetic_config())
    write_checkins(data_path, checkins)
    if workload == "rank-eval":
        _write_untrained_checkpoints(raw, checkins, out_dir)
    return config_path, data_path


def _write_untrained_checkpoints(raw: dict, checkins, out_dir: Path) -> None:
    from canoe.config import RunConfig
    from canoe.data import prepare_dataset
    from canoe.dcg import AdamW
    from canoe.model import CanoeModel
    from canoe.topics import TopicModel
    from canoe.training import save_checkpoint

    d = RunConfig.from_dict(raw).data
    ds = prepare_dataset(checkins, theta=d.theta_seconds, window_len=d.window_len,
                         stride=d.stride, min_records=d.min_records)
    for c, path in enumerate(checkpoint_paths(out_dir)):
        cfg = RunConfig.from_dict({**raw, "seed": raw["seed"] * 10 + c})
        k = cfg.topics.n_topics
        topic_model = TopicModel(
            n_topics=k, theta=np.full((ds.n_users, k), 1.0 / k),
            phi=np.full((k, ds.n_locations), 1.0 / ds.n_locations),
            alpha=50.0 / k, beta=cfg.topics.beta, gibbs_iters=0, seed=cfg.seed)
        model = CanoeModel(cfg.model_config(), ds.n_users, ds.n_locations,
                           topic_model.theta, seed=cfg.seed)
        save_checkpoint(path, model, AdamW(model.registry), cfg, topic_model,
                        epoch=0, best_params=None, best_epoch=-1, best_key=None, logs=[])


def _loss_log(path: Path) -> tuple[str, bool]:
    """Digest of the per-epoch loss CSV and whether every loss is finite."""
    raw = path.read_bytes()
    rows = raw.decode("utf-8").strip().splitlines()[1:]
    losses = [float(v) for row in rows for v in row.split(",")[1:5]]
    return hashlib.sha256(raw).hexdigest(), bool(losses) and all(np.isfinite(losses))


class CommandFailed(RuntimeError):
    """A CLI command returned a non-zero exit code."""


def _cli(tracer, name: str, argv: list[str]) -> None:
    from canoe import cli

    with tracer.span(f"cli.{name}"):
        code = cli.main([name] + argv)
    if code != 0:
        raise CommandFailed(f"canoe {name} exited with {code}")


def _train_then_eval(tracer, config_path: Path, data_path: Path, out: Path) -> dict:
    ckpt, log_csv, report = out / "model.ckpt", out / "log.csv", out / "report"
    _cli(tracer, "train", ["--config", str(config_path), "--data", str(data_path),
                           "--model-out", str(ckpt), "--log", str(log_csv)])
    _cli(tracer, "eval", ["--data", str(data_path), "--model", str(ckpt),
                          "--report", str(report)])
    summary = json.loads(report.with_suffix(".json").read_text(encoding="utf-8"))
    loss_digest, finite = _loss_log(log_csv)
    return {"test_acc1": summary["acc"]["acc@1"], "test_mrr": summary["mrr"],
            "quality_samples": summary["n_samples"],
            "losses_finite": finite, "digests": {"loss_log": loss_digest}}


def _rank_eval(tracer, config_path: Path, data_path: Path, out: Path) -> dict:
    data = ["--data", str(data_path)]
    for c, ckpt in enumerate(checkpoint_paths(data_path.parent)):
        _cli(tracer, "eval", data + ["--model", str(ckpt), "--report", str(out / f"report{c}")])
    mmc_report = out / "mmc_report"
    _cli(tracer, "mmc", ["--config", str(config_path)] + data + ["--report", str(mmc_report)])
    entropy_csv = out / "entropy.csv"
    _cli(tracer, "entropy", ["--config", str(config_path)] + data
         + ["--report", str(entropy_csv)])

    summary = json.loads(mmc_report.with_suffix(".json").read_text(encoding="utf-8"))
    return {"test_acc1": summary["acc"]["acc@1"], "test_mrr": summary["mrr"],
            "quality_samples": summary["n_samples"], "losses_finite": True,
            "digests": {"mmc_ranks": ranks_digest([np.array(tracer.mmc_ranks)]),
                        "entropy_csv": hashlib.sha256(entropy_csv.read_bytes()).hexdigest()}}


def run_pipeline(tracer, workload: str, config_path: Path, data_path: Path,
                 out: Path) -> dict:
    if workload == "rank-eval":
        return _rank_eval(tracer, config_path, data_path, out)
    return _train_then_eval(tracer, config_path, data_path, out)
