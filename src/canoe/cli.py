"""Command-line entry point.

Subcommands: generate, preprocess, train, eval, mmc, entropy, gradcheck.
Configuration is a JSON document (see config.py). _resolve_config builds
every command's config: the --config file, or else the command's base (the
defaults; the checkpoint's config on eval and train --resume; the tiny
config on gradcheck), then repeated --set section.key=value overrides, then
dedicated flags (--seed, --thresholds). Every file-producing command echoes
its fully resolved config next to its primary output. Exit codes: 0 success,
1 check failure or numeric fault, 2 usage, config or data error, or a size
too large to allocate (a MemoryError, named with its stage). CANOE_LOG in
{error,warn,info,debug} controls verbosity (unset or empty: info; any other
value exits 2). On glibc, main() first sets the allocator thresholds and
the arena limit of steady_heap().
"""

from __future__ import annotations

import argparse
import ctypes
import json
import logging
import math
import os
import sys
import traceback
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, load_config
from .data import (Dataset, prepare_dataset, read_checkins, write_checkins,
                   write_text)
from .dcg import NumericFault
from .evaluation import write_report
from .mmc import fit_mmc, rank_of_target
from .model import CanoeModel
from .synthetic import generate_synthetic
from .topics import build_cooccurrence, fit_lda
from .training import (Checkpoint, evaluate_ranks, load_checkpoint,
                       model_from_checkpoint, report_from_ranks,
                       sample_entropies, train)
from . import data as data_mod

log = logging.getLogger("canoe.cli")

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging() -> None:
    level = os.environ.get("CANOE_LOG", "").strip().lower() or "info"
    if level not in _LOG_LEVELS:
        raise ConfigError(f"CANOE_LOG must be one of {', '.join(_LOG_LEVELS)}, "
                          f"got {os.environ['CANOE_LOG']!r}")
    logging.basicConfig(level=_LOG_LEVELS[level],
                        format="%(asctime)s %(name)s %(levelname)s %(message)s")


# mallopt parameters (glibc malloc.h) and the values steady_heap sets
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8
_MMAP_THRESHOLD = 32 << 20  # the largest value every 64-bit glibc accepts
_TRIM_THRESHOLD = 1 << 30
_ARENA_MAX = 1


def steady_heap() -> None:
    """Stop glibc from handing back heap pages that the next training step
    faults in again: raise the mmap threshold, then, only if glibc took
    that, the trim threshold (set alone, the trim threshold freezes the mmap
    threshold at 128 KiB). Then, whatever glibc replied, keep every thread
    in one malloc arena, so the ranking workers reuse the main heap's free
    pages instead of keeping an arena of their own. Does nothing where
    mallopt is missing; never raises."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        log.debug("heap: no mallopt here; allocator left as it is")
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mmap_set = mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) == 1
    trim_set = mmap_set and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD) == 1
    arena_set = mallopt(_M_ARENA_MAX, _ARENA_MAX) == 1
    log.debug("heap: mallopt mmap threshold %d %s, trim threshold %d %s, "
              "arena max %d %s",
              _MMAP_THRESHOLD, "set" if mmap_set else "refused",
              _TRIM_THRESHOLD, "set" if trim_set else "not set",
              _ARENA_MAX, "set" if arena_set else "refused")


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


def _resolve_config(args, base: RunConfig | None = None,
                    require_seed: bool = False) -> RunConfig:
    """The command's config: --config, or else base (the defaults when
    None), then --set, then --seed and --thresholds."""
    config = getattr(args, "config", None)
    overrides = _parse_overrides(getattr(args, "set", None))
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    elif require_seed and "seed" not in overrides and config is None:
        raise ConfigError("--seed is required (or provide it in --config)")
    if getattr(args, "thresholds", None) is not None:
        # checked as the config checks eval.thresholds
        try:
            overrides["eval.thresholds"] = [
                float(x) for x in args.thresholds.split(",")]
        except ValueError as exc:
            raise ConfigError(f"--thresholds expects comma-separated "
                              f"numbers: {exc}") from None
    return load_config(config, overrides, base)


def _echo_config(cfg: RunConfig, primary_output: str | Path) -> None:
    write_text(f"{primary_output}.config.json",
               json.dumps(cfg.to_dict(), indent=2) + "\n")


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


def fit_topics(dataset: Dataset, cfg: RunConfig):
    """LDA over each user's training region, as `canoe train` fits it."""
    region = data_mod.train_location_region(dataset.sequences, dataset.split)
    lists = [region.get(u, []) for u in range(dataset.n_users)]
    counts = build_cooccurrence(lists, dataset.n_locations)
    t = cfg.topics
    return fit_lda(counts, n_topics=t.n_topics, alpha=t.alpha, beta=t.beta,
                   iters=t.gibbs_iters, seed=cfg.seed)


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
        write_text(args.out, json.dumps(summary, indent=2) + "\n")
        _echo_config(cfg, args.out)
    print(json.dumps(summary))
    return 0


def cmd_train(args) -> int:
    if args.resume:
        if args.config is not None:
            raise ConfigError("--config cannot be used with --resume: the "
                              "config is the checkpoint's, changed by --set")
        ckpt = load_checkpoint(args.resume)
        cfg = _resolve_config(args, base=ckpt.config)
        # train() refuses any change outside the train and eval sections, so
        # the data is read as the checkpoint's run read it.
        dataset = _load_dataset(args.data, ckpt.config)
        _check_id_space(dataset, ckpt)
        topic_model = None  # train() takes it from the checkpoint
        model = model_from_checkpoint(ckpt)
        log.info("resuming from %s at epoch %d", args.resume, ckpt.meta["epoch"] + 1)
    else:
        ckpt = None
        cfg = _resolve_config(args, require_seed=True)
        dataset = _load_dataset(args.data, cfg)
        topic_model = fit_topics(dataset, cfg)
        model = CanoeModel(cfg.model, n_users=dataset.n_users,
                           n_locations=dataset.n_locations,
                           topic_theta=topic_model.theta, seed=cfg.seed)

    result = train(model, dataset, cfg, log_path=args.log,
                   checkpoint_path=args.model_out, topic_model=topic_model,
                   resume=ckpt)
    _echo_config(cfg, args.model_out)
    summary = {"epochs": cfg.train.epochs, "best_epoch": result.best_epoch,
               "best_val_acc1": result.best_val_acc1,
               "best_val_mrr": result.best_val_mrr}
    print(json.dumps(summary))
    return 0


def _write_scores(ranks: np.ndarray, dataset: Dataset, cfg: RunConfig,
                  report_base: str, title: str) -> int:
    """The output tail of eval and mmc: the report of the test split's
    ranks, the config echo, and one stdout line with the Acc at the
    smallest k, named as report.json names it, and the MRR."""
    report = report_from_ranks(ranks, dataset, dataset.split.test,
                               thresholds=cfg.eval.thresholds, ks=cfg.eval.ks)
    write_report(report, report_base, title=title)
    _echo_config(cfg, report_base)
    k = min(report.acc)
    print(json.dumps({"n_samples": report.n_samples,
                      f"acc@{k}": report.acc[k], "mrr": report.mrr}))
    return 0


def cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.model)
    cfg = _resolve_config(args, base=ckpt.config)
    dataset = _load_dataset(args.data, cfg)
    _check_id_space(dataset, ckpt)
    model = model_from_checkpoint(ckpt)
    return _write_scores(evaluate_ranks(model, dataset.split.test), dataset,
                         cfg, args.report, title="canoe")


def cmd_mmc(args) -> int:
    cfg = _resolve_config(args)
    dataset = _load_dataset(args.data, cfg)
    region = data_mod.train_location_region(dataset.sequences, dataset.split)
    model = fit_mmc(region, dataset.n_locations)
    test = dataset.split.test
    context, _, targets, _ = test.gather()
    ranks = np.array([
        rank_of_target(model, user, current, target) for user, current, target
        in zip(test.users.tolist(), context[:, -1].tolist(), targets.tolist())])
    return _write_scores(ranks, dataset, cfg, args.report, title="1-mmc")


def cmd_entropy(args) -> int:
    cfg = _resolve_config(args)
    dataset = _load_dataset(args.data, cfg)
    test = dataset.split.test
    values = sample_entropies(dataset, test)
    write_text(args.report, "user,seq_pos,prefix_entropy\n" + "".join(
        f"{user},{pos},{h!r}\n" for user, pos, h
        in zip(test.users.tolist(), test.seq_pos.tolist(), values.tolist())))
    _echo_config(cfg, args.report)
    summary = {
        "n_samples": len(test),
        "mean": float(values.mean()) if test else None,
        "subset_sizes": {f"{th:g}": int((values >= th).sum())
                         for th in cfg.eval.thresholds},
    }
    print(json.dumps(summary))
    return 0


def cmd_gradcheck(args) -> int:
    from .checks import full_model_gradcheck, tiny_gradcheck_config

    if not (math.isfinite(args.tolerance) and args.tolerance > 0):
        raise ValueError(f"tolerance must be finite and > 0, got {args.tolerance}")
    cfg = _resolve_config(args, base=tiny_gradcheck_config())
    err = full_model_gradcheck(cfg, epsilon=args.epsilon)
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


def _stage(exc: BaseException) -> str:
    """The innermost canoe function exc passed through, as module.function."""
    stage = "cli.main"
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        module = frame.f_globals.get("__name__", "")
        if module.startswith("canoe."):
            stage = f"{module.removeprefix('canoe.')}.{frame.f_code.co_name}"
    return stage


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _setup_logging()
        steady_heap()
        return args.func(args)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericFault as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a size that came from the input
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory in {_stage(exc)}{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
