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
import typing
import zipfile
import zlib
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from . import dcg
from .config import RunConfig, _fits
from .data import Dataset, WindowSample, write_text
from .dcg import AdamW, NumericFault
from .decoder import LossWeights
from .evaluation import (DEFAULT_KS, DEFAULT_THRESHOLDS, EvalReport,
                         compute_metrics, entropy_of_counts, prefix_entropy,
                         stratified_reports)
from .model import CanoeModel, batch_from_samples
from .topics import TopicModel

__all__ = [
    "EpochLog", "TrainResult", "phase_weights", "train", "evaluate_ranks",
    "sample_entropies", "report_from_ranks",
    "save_checkpoint", "load_checkpoint",
    "model_from_checkpoint", "CHECKPOINT_FORMAT",
]

log = logging.getLogger("canoe.training")

CHECKPOINT_FORMAT = "canoe-ckpt-3"
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


CSV_HEADER = "epoch,loss_total,loss_loc,loss_time,loss_aux,val_acc1,val_mrr"

# the meta records a checkpoint is read back with, each with its JSON type
# in config._fits's terms: a log row is an EpochLog, best_key is
# [val_acc1, val_mrr], and topic_model holds TopicModel's scalar fields
_META_TYPES = {
    "epoch": int, "n_users": int, "n_locations": int, "best_epoch": int,
    "best_key": tuple[float, float] | None, "config": dict,
    "topic_model": dict | None,
    "logs": list[tuple[tuple(typing.get_type_hints(EpochLog).values())]],
}
_TOPIC_META_TYPES = {key: tp for key, tp in typing.get_type_hints(TopicModel).items()
                     if tp is not np.ndarray}


@dataclass
class TrainResult:
    logs: list[EpochLog]
    best_epoch: int
    best_val_acc1: float | None
    best_val_mrr: float | None


def phase_weights(epoch: int, cfg: RunConfig) -> LossWeights:
    """Staged schedule: warmup epochs train the time term alone, then all
    three terms at their configured weights. A zero time weight disables
    the warmup phase (there would be nothing to train)."""
    t = cfg.train
    if epoch < t.warmup_epochs and t.lambda_time > 0.0:
        return LossWeights(loc=0.0, time=t.lambda_time, aux=0.0)
    return cfg.loss_weights()


def _epoch_rngs(seed: int, epoch: int) -> tuple[np.random.Generator, np.random.Generator]:
    return (np.random.default_rng([seed, 1000, epoch]),
            np.random.default_rng([seed, 2000, epoch]))


def evaluate_ranks(model: CanoeModel, samples: list[WindowSample]) -> np.ndarray:
    """Target ranks over samples in order, EVAL_BATCH at a time; states
    reset and frozen."""
    model.reset_states()
    ranks = []
    for i in range(0, len(samples), EVAL_BATCH):
        ranks.append(model.rank_targets(batch_from_samples(samples[i:i + EVAL_BATCH])))
    return np.concatenate(ranks) if ranks else np.empty(0, dtype=np.int64)


def sample_entropies(dataset: Dataset, samples: list[WindowSample]) -> np.ndarray:
    """prefix_entropy of each sample's prefix, locations[:seq_pos] of its
    user's sequence, with one pass over each user's locations."""
    out = np.empty(len(samples))
    by_user: dict[int, list[int]] = {}
    for i, s in enumerate(samples):
        by_user.setdefault(s.user, []).append(i)
    for user, rows in by_user.items():
        locations = dataset.sequences[user].locations
        counts: dict[int, int] = {}  # first-seen order, as Counter keeps it
        n = 0
        for i in sorted(rows, key=lambda i: samples[i].seq_pos):
            pos = samples[i].seq_pos
            if not 0 < pos <= len(locations):  # a slice clamps or wraps
                out[i] = prefix_entropy(locations[:pos])
                continue
            for loc in locations[n:pos]:
                counts[loc] = counts.get(loc, 0) + 1
            n = pos
            out[i] = entropy_of_counts(counts.values(), n)
    return out


def report_from_ranks(ranks: np.ndarray, dataset: Dataset,
                      samples: list[WindowSample],
                      thresholds=DEFAULT_THRESHOLDS, ks=DEFAULT_KS) -> EvalReport:
    """Overall metrics of the ranks of samples plus the breakdown by the
    prefix entropy of each sample."""
    report = compute_metrics(ranks, ks)
    entropies = sample_entropies(dataset, samples)
    report.by_threshold = stratified_reports(ranks, entropies, thresholds, ks)
    return report


def train(model: CanoeModel, dataset: Dataset, cfg: RunConfig,
          log_path: str | Path | None = None,
          checkpoint_path: str | Path | None = None,
          topic_model: TopicModel | None = None,
          resume: Checkpoint | None = None) -> TrainResult:
    """Run the epoch loop; returns the logs and the best validation epoch.
    The CSV log at log_path holds the rows so far: it is written once the
    checks pass, before the first epoch, and again after each epoch.

    With `resume`, continue the run that wrote that checkpoint: the model
    must hold its latest parameters (`model_from_checkpoint(resume,
    use_best=False)`), `cfg` may differ from its config only in the train
    and eval sections, and the topic model is the checkpoint's.
    """
    t = cfg.train
    train_samples = dataset.split.train
    if not train_samples:
        raise ValueError("training split is empty")
    optimizer = AdamW(model.registry, lr=t.lr, weight_decay=t.weight_decay,
                      beta1=t.beta1, beta2=t.beta2, eps=t.eps)

    start_epoch = 0
    logs: list[EpochLog] = []
    # [val_acc1, val_mrr] of the best epoch; None without a validation split
    best_key: list[float] | None = None
    best_epoch = -1
    best_params: dict[str, np.ndarray] = {}
    if resume is not None:
        if topic_model is not None:
            raise ValueError("a resumed run takes its topic model from the checkpoint")
        _check_resumable(resume, cfg)
        topic_model = resume.topic_model()
        optimizer.load_state_arrays(resume.opt_arrays)
        start_epoch = resume.meta["epoch"] + 1
        logs = resume.logs()
        best_key, best_epoch = resume.meta["best_key"], resume.meta["best_epoch"]
        best_params = resume.best_params
    debug = log.isEnabledFor(logging.DEBUG)

    def write_log() -> None:
        if log_path is not None:
            write_text(log_path, CSV_HEADER + "\n" + "".join(
                ",".join("" if v is None else repr(v) for v in astuple(entry))
                + "\n" for entry in logs))

    write_log()  # a log path that cannot be written fails before any epoch

    def consider_best(epoch: int, acc1: float | None, mrr: float | None) -> None:
        nonlocal best_key, best_epoch, best_params
        # Without a validation split the latest epoch is retained.
        if acc1 is None or best_key is None or [acc1, mrr] > best_key:
            best_key = None if acc1 is None else [acc1, mrr]
            best_epoch = epoch
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
            loss, parts = model.loss_batch(batch, weights, rng=dropout_rng)
            if not np.isfinite(parts["total"]):
                raise NumericFault(
                    f"non-finite loss at epoch {epoch} batch {bi}")
            model.registry.zero_grads()
            dcg.backward(loss)
            model.registry.clip_grad_norm(t.clip_norm)
            optimizer.step()
            del loss  # free this step's graph before the next forward
            if debug:
                for name, p in model.registry.items():
                    if not np.all(np.isfinite(p.data)):
                        raise NumericFault(
                            f"non-finite parameter '{name}' after epoch "
                            f"{epoch} batch {bi}")
            for k in sums:
                sums[k] += parts[k]
            n_batches += 1
        train_s = time.perf_counter() - tic

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
                 "val_acc1 %s val_mrr %s [%d steps, %.0f train samples/s, "
                 "%.1fs]",
                 epoch, entry.loss_total, entry.loss_loc, entry.loss_time,
                 entry.loss_aux, entry.val_acc1, entry.val_mrr, n_batches,
                 len(order) / train_s, time.perf_counter() - tic)

        if checkpoint_path is not None:
            save_checkpoint(checkpoint_path, model, optimizer, cfg,
                            topic_model, epoch, best_params,
                            best_epoch, best_key, logs)
        write_log()

    acc1, mrr = best_key or (None, None)
    return TrainResult(logs, best_epoch, acc1, mrr)


def _check_resumable(ckpt: Checkpoint, cfg: RunConfig) -> None:
    """A resumed run keeps everything outside the train and eval sections
    (the seed included) and has epochs left to train."""
    old, new = _flatten(ckpt.config.to_dict()), _flatten(cfg.to_dict())
    changed = [key for key in new if new[key] != old[key]
               and key.split(".")[0] not in ("train", "eval")]
    if changed:
        raise ValueError(f"resume may change only train.* and eval.* keys; "
                         f"changed: {', '.join(changed)}")
    finished = ckpt.meta["epoch"] + 1
    if cfg.train.epochs <= finished:
        raise ValueError(f"train.epochs={cfg.train.epochs} leaves nothing to "
                         f"train: the checkpoint has {finished} finished epochs")


def _flatten(raw: dict, prefix: str = "") -> dict:
    out = {}
    for key, value in raw.items():
        if isinstance(value, dict):
            out.update(_flatten(value, f"{prefix}{key}."))
        else:
            out[prefix + key] = value
    return out


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
        "best_key": best_key,
        "config": cfg.to_dict(),
        "topic_model": None if topic_model is None else {
            key: getattr(topic_model, key) for key in _TOPIC_META_TYPES},
        "logs": [astuple(entry) for entry in logs],
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


@dataclass
class Checkpoint:
    meta: dict
    params: dict[str, np.ndarray]
    best_params: dict[str, np.ndarray]
    opt_arrays: dict[str, np.ndarray]
    theta: np.ndarray | None
    phi: np.ndarray | None

    @property
    def config(self) -> RunConfig:
        return RunConfig.from_dict(self.meta["config"])

    def logs(self) -> list[EpochLog]:
        return [EpochLog(*row) for row in self.meta["logs"]]

    def topic_model(self) -> TopicModel | None:
        if self.theta is None:
            return None
        tm = self.meta["topic_model"]
        return TopicModel(theta=self.theta, phi=self.phi,
                          **{key: tm[key] for key in _TOPIC_META_TYPES})


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint; ValueError for a file that is not one, truncated,
    corrupt or without its meta record."""
    try:
        with open(path, "rb") as fh:  # np.load(path) leaks its handle on a bad zip
            data = np.load(fh)
            if not isinstance(data, np.lib.npyio.NpzFile):
                raise ValueError("not an .npz archive")
            meta = json.loads(bytes(data["meta"]).decode("utf-8"))
            if not isinstance(meta, dict):
                raise ValueError("meta is not a JSON object")
            arrays = {key: data[key] for key in data.files}
    except (zipfile.BadZipFile, zlib.error, EOFError, KeyError, ValueError) as exc:
        raise ValueError(f"{path} is not a canoe checkpoint: {exc}") from exc
    if meta.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"unsupported checkpoint format: {meta.get('format')!r}")
    _check_meta(path, meta, _META_TYPES, "")
    # untrained checkpoints store epoch 0 and best_epoch -1
    for key, low, high in (("epoch", 0, None), ("n_users", 1, None),
                           ("n_locations", 1, None),
                           ("best_epoch", -1, meta["epoch"])):
        if meta[key] < low or (high is not None and meta[key] > high):
            bound = f">= {low}" if high is None else f"in [{low}, {high}]"
            raise ValueError(f"{path} is not a canoe checkpoint: its meta "
                             f"{key} must be {bound}, got {meta[key]}")
    if "topics/theta" in arrays:  # Checkpoint.topic_model() rebuilds from all three
        if "topics/phi" not in arrays:
            raise ValueError(f"{path} is not a canoe checkpoint: it holds "
                             f"topics/theta without topics/phi")
        topic_meta = meta["topic_model"]
        if not isinstance(topic_meta, dict):
            raise ValueError(f"{path} is not a canoe checkpoint: its meta "
                             f"topic_model is {json.dumps(topic_meta)}, not an "
                             f"object, beside topics/theta")
        _check_meta(path, topic_meta, _TOPIC_META_TYPES, "topic_model ")
    params, best, opt = {}, {}, {}
    theta = phi = None
    for key, arr in arrays.items():
        if key.startswith("param/"):
            params[key[len("param/"):]] = arr
        elif key.startswith("best/"):
            best[key[len("best/"):]] = arr
        elif key.startswith("opt/"):
            opt[key[len("opt/"):]] = arr
        elif key == "topics/theta":
            theta = arr
        elif key == "topics/phi":
            phi = arr
    return Checkpoint(meta=meta, params=params, best_params=best or dict(params),
                      opt_arrays=opt, theta=theta, phi=phi)


def _check_meta(path, meta: dict, types: dict, where: str) -> None:
    """ValueError naming every key of types that meta lacks, or else the
    first whose value does not fit its type."""
    missing = [key for key in types if key not in meta]
    if missing:
        raise ValueError(f"{path} is not a canoe checkpoint: its meta {where}"
                         f"lacks {', '.join(missing)}")
    for key, tp in types.items():
        if not _fits(meta[key], tp):
            name = tp.__name__ if isinstance(tp, type) else tp
            raise ValueError(f"{path} is not a canoe checkpoint: its meta "
                             f"{where}{key} must be {name}")


def model_from_checkpoint(ckpt: Checkpoint, use_best: bool = True) -> CanoeModel:
    if ckpt.theta is None:
        raise ValueError("checkpoint is missing the fitted topic matrices")
    cfg = ckpt.config
    model = CanoeModel(cfg.model, n_users=ckpt.meta["n_users"],
                       n_locations=ckpt.meta["n_locations"],
                       topic_theta=ckpt.theta, seed=cfg.seed)
    model.registry.load_state_arrays(ckpt.best_params if use_best else ckpt.params)
    return model
