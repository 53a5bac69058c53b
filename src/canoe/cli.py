"""Command-line entry point.

Subcommands: generate, preprocess, train, eval, mmc, entropy, gradcheck.
Configuration is a JSON document (see config.py); individual values can be
overridden with repeated --set section.key=value flags, and dedicated flags
(--seed, ...) win over both. Every file-producing command echoes its fully
resolved config next to its primary output. Exit codes: 0 success,
1 check failure or numeric fault, 2 usage, config or data error. CANOE_LOG in
{error,warn,info,debug} controls verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, load_config
from .data import Dataset, prepare_dataset, read_checkins, write_checkins
from .dcg import AdamW, NumericFault
from .evaluation import (compute_metrics, prefix_entropy, stratified_reports,
                         write_report)
from .mmc import fit_mmc, rank_of_target
from .model import CanoeModel
from .synthetic import generate_synthetic
from .topics import build_cooccurrence, fit_lda
from .training import (Checkpoint, evaluate_model, load_checkpoint,
                       model_from_checkpoint, sample_entropies, train)
from . import data as data_mod

log = logging.getLogger("canoe.cli")

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging() -> None:
    level = os.environ.get("CANOE_LOG", "info").strip().lower()
    if level not in _LOG_LEVELS:
        level = "info"
    logging.basicConfig(level=_LOG_LEVELS[level],
                        format="%(asctime)s %(name)s %(levelname)s %(message)s")


def _parse_overrides(pairs: list[str] | None) -> dict:
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got '{pair}'")
        key, _, value = pair.partition("=")
        try:
            out[key.strip()] = json.loads(value)
        except json.JSONDecodeError:
            out[key.strip()] = value
    return out


def _resolve_config(args, require_seed: bool = False) -> RunConfig:
    overrides = _parse_overrides(getattr(args, "set", None))
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    elif require_seed and "seed" not in overrides and args.config is None:
        raise ConfigError("--seed is required (or provide it in --config)")
    return load_config(args.config, overrides)


def _echo_config(cfg: RunConfig, primary_output: str | Path) -> None:
    path = Path(str(primary_output) + ".config.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        json.dump(cfg.to_dict(), fh, indent=2)
        fh.write("\n")


def _load_dataset(path: str, cfg: RunConfig) -> Dataset:
    if not Path(path).exists():
        raise FileNotFoundError(f"data file not found: {path}")
    checkins = read_checkins(path)
    d = cfg.data
    return prepare_dataset(checkins, theta=d.theta_seconds,
                           window_len=d.window_len, stride=d.stride,
                           min_records=d.min_records)


def _check_id_space(dataset: Dataset, ckpt: Checkpoint) -> None:
    """A checkpoint's embedding tables fit only the id space it was built for."""
    for field in ("n_users", "n_locations"):
        have, want = getattr(dataset, field), ckpt.meta[field]
        if have != want:
            raise ValueError(f"dataset {field}={have} does not match the "
                             f"checkpoint's {field}={want}")


def _fit_topics(dataset: Dataset, cfg: RunConfig):
    region = data_mod.train_location_region(dataset.sequences, dataset.split)
    lists = [region.get(u, []) for u in range(dataset.n_users)]
    counts = build_cooccurrence(lists, dataset.n_locations)
    t = cfg.topics
    return fit_lda(counts, n_topics=t.n_topics, alpha=t.alpha, beta=t.beta,
                   iters=t.gibbs_iters, seed=cfg.seed), region


# ---------------------------------------------------------------------------
# commands

def cmd_generate(args) -> int:
    cfg = _resolve_config(args, require_seed=True)
    checkins = generate_synthetic(cfg.synthetic_config())
    manifest = write_checkins(args.out, checkins)
    _echo_config(cfg, args.out)
    log.info("wrote %d check-ins for %d users to %s",
             manifest["checkins"], manifest["users"], args.out)
    print(json.dumps(manifest))
    return 0


def cmd_preprocess(args) -> int:
    cfg = _resolve_config(args)
    dataset = _load_dataset(args.data, cfg)
    summary = {
        "users_kept": len(dataset.sequences),
        "activity_records": sum(len(s) for s in dataset.sequences.values()),
        "samples": {"train": len(dataset.split.train),
                    "val": len(dataset.split.val),
                    "test": len(dataset.split.test)},
        "id_space": {"users": dataset.n_users, "locations": dataset.n_locations},
    }
    if args.out:
        with Path(args.out).open("w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
        _echo_config(cfg, args.out)
    print(json.dumps(summary))
    return 0


def cmd_train(args) -> int:
    if args.resume:
        ckpt = load_checkpoint(args.resume)
        # Resume continues under the checkpoint's config; explicit --set
        # overrides still win (e.g. extending train.epochs).
        raw = dict(ckpt.meta["config"])
        for dotted, value in _parse_overrides(getattr(args, "set", None)).items():
            node = raw
            parts = dotted.split(".")
            for p in parts[:-1]:
                node = node.setdefault(p, {})
            node[parts[-1]] = value
        cfg = RunConfig.from_dict(raw)
        if getattr(args, "seed", None) is not None and args.seed != cfg.seed:
            raise ConfigError("--seed may not differ from the checkpoint's seed")
        if cfg.seed != ckpt.meta["seed"]:
            raise ConfigError("seed may not be overridden on resume")
    else:
        ckpt = None
        cfg = _resolve_config(args, require_seed=True)
    dataset = _load_dataset(args.data, cfg)

    if ckpt is not None:
        _check_id_space(dataset, ckpt)
        topic_model = ckpt.topic_model()
        model = model_from_checkpoint(ckpt, use_best=False)
        optimizer = AdamW(
            model.registry, lr=cfg.train.lr, weight_decay=cfg.train.weight_decay,
            beta1=cfg.train.beta1, beta2=cfg.train.beta2, eps=cfg.train.eps)
        optimizer.load_state_arrays(ckpt.opt_arrays, ckpt.opt_step)
        start_epoch = ckpt.meta["epoch"] + 1
        prior_logs = ckpt.logs()
        best_key = ckpt.meta.get("best_key")
        prior_best = (tuple(best_key) if best_key else None,
                      ckpt.meta.get("best_epoch", -1), dict(ckpt.best_params))
        if prior_best[0] is None:
            prior_best = None
        log.info("resuming from %s at epoch %d", args.resume, start_epoch)
    else:
        topic_model, _ = _fit_topics(dataset, cfg)
        model = CanoeModel(cfg.model_config(), n_users=dataset.n_users,
                           n_locations=dataset.n_locations,
                           topic_theta=topic_model.theta, seed=cfg.seed)
        optimizer = None
        start_epoch = 0
        prior_logs = None
        prior_best = None

    result = train(model, dataset, cfg, log_path=args.log,
                   checkpoint_path=args.model_out, topic_model=topic_model,
                   optimizer=optimizer, start_epoch=start_epoch,
                   prior_logs=prior_logs, prior_best=prior_best)
    _echo_config(cfg, args.model_out)
    summary = {"epochs": cfg.train.epochs, "best_epoch": result.best_epoch,
               "best_val_acc1": result.best_val_acc1,
               "best_val_mrr": result.best_val_mrr}
    print(json.dumps(summary))
    return 0


def cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.model)
    cfg = ckpt.config
    if args.thresholds:
        cfg.eval.thresholds = [float(x) for x in args.thresholds.split(",")]
    dataset = _load_dataset(args.data, cfg)
    _check_id_space(dataset, ckpt)
    model = model_from_checkpoint(ckpt, use_best=True)
    report = evaluate_model(model, dataset, dataset.split.test,
                            thresholds=cfg.eval.thresholds, ks=cfg.eval.ks)
    write_report(report, args.report, title="canoe")
    _echo_config(cfg, args.report)
    print(json.dumps({"n_samples": report.n_samples,
                      "acc1": report.acc[min(report.acc)], "mrr": report.mrr}))
    return 0


def cmd_mmc(args) -> int:
    cfg = _resolve_config(args)
    dataset = _load_dataset(args.data, cfg)
    region = data_mod.train_location_region(dataset.sequences, dataset.split)
    model = fit_mmc(region, dataset.n_locations)
    test = dataset.split.test
    ranks = np.array([
        rank_of_target(model, s.user, s.context_locations[-1], s.target_location)
        for s in test
    ])
    report = compute_metrics(ranks, ks=cfg.eval.ks)
    entropies = sample_entropies(dataset, test)
    report.by_threshold = stratified_reports(ranks, entropies,
                                             cfg.eval.thresholds, cfg.eval.ks)
    write_report(report, args.report, title="1-mmc")
    _echo_config(cfg, args.report)
    print(json.dumps({"n_samples": report.n_samples,
                      "acc1": report.acc[min(report.acc)], "mrr": report.mrr}))
    return 0


def cmd_entropy(args) -> int:
    cfg = _resolve_config(args)
    dataset = _load_dataset(args.data, cfg)
    test = dataset.split.test
    rows = []
    for s in test:
        h = prefix_entropy(dataset.sequences[s.user].locations[:s.seq_pos])
        rows.append((s.user, s.seq_pos, h))
    path = Path(args.report)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        fh.write("user,seq_pos,prefix_entropy\n")
        for user, pos, h in rows:
            fh.write(f"{user},{pos},{h!r}\n")
    _echo_config(cfg, args.report)
    values = np.array([r[2] for r in rows]) if rows else np.empty(0)
    summary = {
        "n_samples": len(rows),
        "mean": float(values.mean()) if rows else None,
        "subset_sizes": {f"{th:g}": int((values >= th).sum())
                         for th in cfg.eval.thresholds},
    }
    print(json.dumps(summary))
    return 0


def cmd_gradcheck(args) -> int:
    from .checks import full_model_gradcheck, tiny_gradcheck_config

    cfg = tiny_gradcheck_config() if args.config is None else _resolve_config(args)
    err = full_model_gradcheck(cfg if args.config is not None else None,
                               epsilon=args.epsilon)
    print(f"{err:.6e}")
    return 0 if err < args.tolerance else 1


# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, seed: bool = True) -> None:
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config value, e.g. --set train.epochs=10")
    if seed:
        p.add_argument("--seed", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="canoe",
        description="Chaotic-oscillator attention next-location prediction")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic check-in dataset")
    _add_common(p)
    p.add_argument("--out", required=True, help="output JSONL path")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("preprocess", help="summarize extraction and splits")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None, help="summary JSON path")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="fit topics and train the model")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--model-out", required=True, help="checkpoint path")
    p.add_argument("--log", default=None, help="per-epoch CSV log path")
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--report", required=True, help="report base path")
    p.add_argument("--thresholds", default=None,
                   help="comma-separated entropy thresholds")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("mmc", help="first-order Markov baseline report")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_mmc)

    p = sub.add_parser("entropy", help="prefix-entropy distribution CSV")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    _add_common(p, seed=False)
    p.add_argument("--epsilon", type=float, default=1e-5)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericFault as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
