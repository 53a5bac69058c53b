"""Training loop: seeded shuffling, staged loss schedule, AdamW steps,
per-epoch validation, best-checkpoint retention, and npz checkpoints.

Reproducibility scheme: the shuffle and dropout generators for epoch e are
derived from (seed, e), so resuming from a checkpoint at any epoch boundary
replays exactly the run that was never interrupted.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dcg
from .config import RunConfig
from .data import Dataset, WindowSample
from .dcg import AdamW, NumericFault
from .decoder import LossWeights
from .evaluation import (DEFAULT_KS, DEFAULT_THRESHOLDS, EvalReport,
                         compute_metrics, prefix_entropy, stratified_reports)
from .model import CanoeModel, batch_from_samples
from .topics import TopicModel

__all__ = [
    "EpochLog", "TrainResult", "phase_weights", "train",
    "evaluate_ranks", "evaluate_model", "save_checkpoint", "load_checkpoint",
    "model_from_checkpoint", "CHECKPOINT_FORMAT",
]

log = logging.getLogger("canoe.training")

CHECKPOINT_FORMAT = "canoe-ckpt-1"
EVAL_BATCH = 512


@dataclass
class EpochLog:
    epoch: int
    loss_total: float
    loss_loc: float
    loss_time: float
    loss_aux: float
    val_acc1: float | None
    val_mrr: float | None

    def csv_row(self) -> str:
        vals = [str(self.epoch), repr(self.loss_total), repr(self.loss_loc),
                repr(self.loss_time), repr(self.loss_aux)]
        vals.append("" if self.val_acc1 is None else repr(self.val_acc1))
        vals.append("" if self.val_mrr is None else repr(self.val_mrr))
        return ",".join(vals)


CSV_HEADER = "epoch,loss_total,loss_loc,loss_time,loss_aux,val_acc1,val_mrr"


@dataclass
class TrainResult:
    logs: list[EpochLog]
    best_epoch: int
    best_val_acc1: float | None
    best_val_mrr: float | None
    best_params: dict[str, np.ndarray] = field(repr=False, default_factory=dict)


def phase_weights(epoch: int, cfg: RunConfig) -> LossWeights:
    """Staged schedule: warmup epochs train the time term alone, then all
    three terms at their configured weights. A zero time weight disables
    the warmup phase (there would be nothing to train)."""
    t = cfg.train
    if epoch < t.warmup_epochs and t.lambda_time > 0.0:
        return LossWeights(loc=0.0, time=t.lambda_time, aux=0.0)
    return LossWeights(loc=t.lambda_loc, time=t.lambda_time, aux=t.lambda_aux)


def _epoch_rngs(seed: int, epoch: int) -> tuple[np.random.Generator, np.random.Generator]:
    return (np.random.default_rng([seed, 1000, epoch]),
            np.random.default_rng([seed, 2000, epoch]))


def evaluate_ranks(model: CanoeModel, samples: list[WindowSample],
                   batch_size: int = EVAL_BATCH) -> np.ndarray:
    """Target ranks over samples in order; states reset and frozen."""
    model.reset_states()
    ranks = []
    for i in range(0, len(samples), batch_size):
        ranks.append(model.rank_targets(batch_from_samples(samples[i:i + batch_size])))
    return np.concatenate(ranks) if ranks else np.empty(0, dtype=np.int64)


def sample_entropies(dataset: Dataset, samples: list[WindowSample]) -> np.ndarray:
    return np.array([
        prefix_entropy(dataset.sequences[s.user].locations[:s.seq_pos])
        for s in samples
    ])


def evaluate_model(model: CanoeModel, dataset: Dataset,
                   samples: list[WindowSample],
                   thresholds=DEFAULT_THRESHOLDS, ks=DEFAULT_KS) -> EvalReport:
    """Overall metrics plus the entropy-stratified breakdown."""
    ranks = evaluate_ranks(model, samples)
    report = compute_metrics(ranks, ks)
    entropies = sample_entropies(dataset, samples)
    report.by_threshold = stratified_reports(ranks, entropies, thresholds, ks)
    return report


def train(model: CanoeModel, dataset: Dataset, cfg: RunConfig,
          log_path: str | Path | None = None,
          checkpoint_path: str | Path | None = None,
          topic_model: TopicModel | None = None,
          optimizer: AdamW | None = None,
          start_epoch: int = 0,
          prior_logs: list[EpochLog] | None = None,
          prior_best: tuple | None = None) -> TrainResult:
    """Run the epoch loop; returns logs and the best-validation parameters.

    Pass optimizer/start_epoch/prior_logs/prior_best when resuming from a
    checkpoint.
    """
    t = cfg.train
    train_samples = dataset.split.train
    if not train_samples:
        raise ValueError("training split is empty")
    if optimizer is None:
        optimizer = AdamW(model.registry, lr=t.lr, weight_decay=t.weight_decay,
                          beta1=t.beta1, beta2=t.beta2, eps=t.eps)

    logs: list[EpochLog] = list(prior_logs or [])
    best_key: tuple[float, float] | None = None
    best_epoch = -1
    best_params: dict[str, np.ndarray] = {}
    if prior_best is not None:
        best_key, best_epoch, best_params = prior_best
    debug = log.isEnabledFor(logging.DEBUG)

    def consider_best(epoch: int, acc1: float | None, mrr: float | None) -> None:
        nonlocal best_key, best_epoch, best_params
        if acc1 is None:
            # No validation split: retain the latest epoch.
            best_key, best_epoch = (-1.0, -1.0), epoch
            best_params = model.registry.state_arrays()
        elif best_key is None or (acc1, mrr) > best_key:
            best_key, best_epoch = (acc1, mrr), epoch
            best_params = model.registry.state_arrays()

    prev_phase: LossWeights | None = None
    for epoch in range(start_epoch, t.epochs):
        tic = time.perf_counter()
        weights = phase_weights(epoch, cfg)
        if prev_phase is not None and weights != prev_phase:
            log.info("epoch %d: loss phase switched to loc=%g time=%g aux=%g",
                     epoch, weights.loc, weights.time, weights.aux)
        prev_phase = weights

        shuffle_rng, dropout_rng = _epoch_rngs(cfg.seed, epoch)
        order = shuffle_rng.permutation(len(train_samples))
        model.reset_states()

        sums = {"total": 0.0, "loc": 0.0, "time": 0.0, "aux": 0.0}
        n_batches = 0
        for bi, lo in enumerate(range(0, len(order), t.batch_size)):
            batch = batch_from_samples(
                [train_samples[j] for j in order[lo:lo + t.batch_size]])
            loss, parts = model.loss_batch(batch, weights, rng=dropout_rng,
                                           training=True)
            if not np.isfinite(parts["total"]):
                raise NumericFault(
                    f"non-finite loss at epoch {epoch} batch {bi}")
            model.registry.zero_grads()
            dcg.backward(loss)
            model.registry.clip_grad_norm(t.clip_norm)
            optimizer.step()
            if debug:
                for name, p in model.registry.items():
                    if not np.all(np.isfinite(p.data)):
                        raise NumericFault(
                            f"non-finite parameter '{name}' after epoch "
                            f"{epoch} batch {bi}")
            for k in sums:
                sums[k] += parts[k]
            n_batches += 1

        val_acc1 = val_mrr = None
        if dataset.split.val:
            val_ranks = evaluate_ranks(model, dataset.split.val)
            val_report = compute_metrics(val_ranks, ks=(1,))
            val_acc1, val_mrr = val_report.acc[1], val_report.mrr
        consider_best(epoch, val_acc1, val_mrr)

        entry = EpochLog(epoch=epoch,
                         loss_total=sums["total"] / n_batches,
                         loss_loc=sums["loc"] / n_batches,
                         loss_time=sums["time"] / n_batches,
                         loss_aux=sums["aux"] / n_batches,
                         val_acc1=val_acc1, val_mrr=val_mrr)
        logs.append(entry)
        log.info("epoch %d: loss %.6f (loc %.4f time %.4f aux %.4f) "
                 "val_acc1 %s val_mrr %s [%.1fs]",
                 epoch, entry.loss_total, entry.loss_loc, entry.loss_time,
                 entry.loss_aux, entry.val_acc1, entry.val_mrr,
                 time.perf_counter() - tic)

        if checkpoint_path is not None:
            save_checkpoint(checkpoint_path, model, optimizer, cfg,
                            topic_model, epoch, best_params or None,
                            best_epoch, best_key, logs)

    if log_path is not None:
        write_log_csv(log_path, logs)

    if best_key is None:
        best = TrainResult(logs, t.epochs - 1, None, None,
                           model.registry.state_arrays())
    else:
        acc1 = best_key[0] if best_key[0] >= 0 else None
        mrr = best_key[1] if best_key[0] >= 0 else None
        best = TrainResult(logs, best_epoch, acc1, mrr, best_params)
    return best


def write_log_csv(path: str | Path, logs: list[EpochLog]) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        for entry in logs:
            fh.write(entry.csv_row() + "\n")


# ---------------------------------------------------------------------------
# checkpointing

def save_checkpoint(path: str | Path, model: CanoeModel, optimizer: AdamW,
                    cfg: RunConfig, topic_model: TopicModel | None,
                    epoch: int, best_params: dict[str, np.ndarray] | None,
                    best_epoch: int, best_key, logs: list[EpochLog]) -> None:
    arrays: dict[str, np.ndarray] = {}
    for name, arr in model.registry.state_arrays().items():
        arrays[f"param/{name}"] = arr
    for name, arr in optimizer.state_arrays().items():
        arrays[f"opt/{name}"] = arr
    arrays["opt/step"] = np.array(optimizer.step_count, dtype=np.int64)
    if best_params:
        for name, arr in best_params.items():
            arrays[f"best/{name}"] = arr
    if topic_model is not None:
        arrays["topics/theta"] = topic_model.theta
        arrays["topics/phi"] = topic_model.phi
    meta = {
        "format": CHECKPOINT_FORMAT,
        "epoch": epoch,
        "seed": cfg.seed,
        "n_users": model.n_users,
        "n_locations": model.n_locations,
        "best_epoch": best_epoch,
        "best_key": list(best_key) if best_key is not None else None,
        "config": cfg.to_dict(),
        "topic_model": None if topic_model is None else {
            "n_topics": topic_model.n_topics, "alpha": topic_model.alpha,
            "beta": topic_model.beta, "gibbs_iters": topic_model.gibbs_iters,
            "seed": topic_model.seed,
        },
        "logs": [_log_row(entry) for entry in logs],
    }
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # Write beside the target and rename, so a crash mid-write leaves the
    # previous checkpoint intact.
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("wb") as fh:
            np.savez_compressed(fh, **arrays)
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _log_row(entry: EpochLog) -> list:
    return [entry.epoch, entry.loss_total, entry.loss_loc, entry.loss_time,
            entry.loss_aux, entry.val_acc1, entry.val_mrr]


@dataclass
class Checkpoint:
    meta: dict
    params: dict[str, np.ndarray]
    best_params: dict[str, np.ndarray]
    opt_arrays: dict[str, np.ndarray]
    opt_step: int
    theta: np.ndarray | None
    phi: np.ndarray | None

    @property
    def config(self) -> RunConfig:
        return RunConfig.from_dict(self.meta["config"])

    def logs(self) -> list[EpochLog]:
        return [EpochLog(epoch=r[0], loss_total=r[1], loss_loc=r[2],
                         loss_time=r[3], loss_aux=r[4], val_acc1=r[5],
                         val_mrr=r[6]) for r in self.meta.get("logs", [])]

    def topic_model(self) -> TopicModel | None:
        if self.theta is None:
            return None
        tm = self.meta["topic_model"]
        return TopicModel(n_topics=tm["n_topics"], theta=self.theta,
                          phi=self.phi, alpha=tm["alpha"], beta=tm["beta"],
                          gibbs_iters=tm["gibbs_iters"], seed=tm["seed"])


def load_checkpoint(path: str | Path) -> Checkpoint:
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode("utf-8"))
        if meta.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(f"unsupported checkpoint format: {meta.get('format')!r}")
        params, best, opt = {}, {}, {}
        theta = phi = None
        step = 0
        for key in data.files:
            if key.startswith("param/"):
                params[key[len("param/"):]] = data[key]
            elif key.startswith("best/"):
                best[key[len("best/"):]] = data[key]
            elif key == "opt/step":
                step = int(data[key])
            elif key.startswith("opt/"):
                opt[key[len("opt/"):]] = data[key]
            elif key == "topics/theta":
                theta = data[key]
            elif key == "topics/phi":
                phi = data[key]
    return Checkpoint(meta=meta, params=params, best_params=best or dict(params),
                      opt_arrays=opt, opt_step=step, theta=theta, phi=phi)


def model_from_checkpoint(ckpt: Checkpoint, use_best: bool = True) -> CanoeModel:
    if ckpt.theta is None:
        raise ValueError("checkpoint is missing the fitted topic matrices")
    cfg = ckpt.config
    model = CanoeModel(cfg.model_config(), n_users=ckpt.meta["n_users"],
                       n_locations=ckpt.meta["n_locations"],
                       topic_theta=ckpt.theta, seed=cfg.seed)
    model.registry.load_state_arrays(ckpt.best_params if use_best else ckpt.params)
    return model
