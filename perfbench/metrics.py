"""Metric names, units and how each is derived from one run's spans.

A repetition is one pipeline run in its own process. ``rep_measurements``
turns its spans into raw end-to-end measurements; ``layer_metrics`` turns
the spans of a traced repetition into the per-layer metrics. ``run.py``
aggregates repetitions into the numbers it prints.
"""

from __future__ import annotations

import hashlib
from collections import Counter

import numpy as np

from tracer import self_times

__all__ = ["END_TO_END", "GRAPH_OPS", "LAYER_UNITS", "ranks_digest",
           "rep_measurements", "layer_metrics", "span_table"]

# name -> unit. All twelve are printed for every workload; those a workload
# has no stage for print as n/a. Meanings are in README.md.
END_TO_END = {
    "setup_s": "s", "pipeline_s": "s",
    "train_samples_per_s": "1/s", "train_step_ms_p50": "ms", "train_step_ms_p90": "ms",
    "eval_samples_per_s": "1/s", "eval_batch_ms_p50": "ms", "eval_batch_ms_p90": "ms",
    "peak_rss_mb": "MB", "test_acc1": "share", "test_mrr": "share", "error_rate": "share",
}

# Every op the training graph holds at this revision; a new op shows up in
# the spans summary and can be added here by a later benchmark change.
GRAPH_OPS = ("add", "concat", "div", "exp", "gather_rows", "leaf",
             "log_softmax", "matmul", "mean", "mul", "neg", "oscillator",
             "relu", "reshape", "slice", "softmax", "sqrt", "sub", "sum",
             "take_along_last", "transpose")

LAYER_UNITS = {
    "data.read_s": "s", "data.prepare_s": "s",
    "topics.fit_s": "s", "topics.tokens": "count", "topics.iters": "count",
    "topics.us_per_token_iter": "us",
    "encoder.loc_time_fwd_ms": "ms", "encoder.layer_fwd_ms": "ms",
    "encoder.time_user_fwd_ms": "ms",
    "cnoa.time_user_fwd_ms": "ms", "cnoa.decoder_fwd_ms": "ms", "cnoa.osc_fwd_ms": "ms",
    "decoder.fwd_ms": "ms", "decoder.heads_fwd_ms": "ms",
    "model.forward_ms": "ms", "model.loss_ms": "ms", "model.rank_ms": "ms",
    "model.batch_build_ms": "ms",
    "dcg.backward_ms": "ms", "dcg.backward_calls": "count",
    "dcg.adamw_ms": "ms", "dcg.adamw_calls": "count", "dcg.clip_ms": "ms",
    "dcg.graph_nodes": "count",
    **{f"dcg.graph_nodes.{op}": "count" for op in GRAPH_OPS},
    "dcg.param_entries": "count",
    "training.train_s": "s", "training.samples_per_epoch": "count",
    "training.steps_per_epoch": "count", "training.epochs": "count",
    "training.val_rank_s": "s", "training.checkpoint_save_ms": "ms",
    "training.checkpoint_load_ms": "ms",
    "evaluation.test_samples": "count", "evaluation.rank_s": "s",
    "evaluation.entropy_s": "s", "evaluation.report_ms": "ms",
    "mmc.fit_s": "s", "mmc.rank_s": "s",
    "trace.train_coverage": "share",
    # Filled in by run.py from the run's untraced and traced repetitions.
    "trace.pipeline_s": "s", "trace.overhead_s": "s",
}


def ranks_digest(ranks: list[np.ndarray]) -> str:
    h = hashlib.sha256()
    for r in ranks:
        h.update(np.ascontiguousarray(r, dtype=np.int64).tobytes())
    return h.hexdigest()


def rep_measurements(spans: list[list], ranks: list[tuple], t_spawn: float,
                     t_end: float) -> dict:
    """Raw end-to-end measurements of one repetition (times in seconds)."""
    step_s, rank_s, pending = [], [], None
    first_unit = {}
    train_s = test_rank_s = 0.0
    for name, start, end, _ in spans:
        if name in ("model.loss", "model.rank"):
            first_unit.setdefault(name, start)
        if name == "model.loss":
            pending = start
        elif name == "dcg.adamw" and pending is not None:
            step_s.append(end - pending)
            pending = None
        elif name == "model.rank":
            rank_s.append(end - start)
        elif name == "training.train":
            train_s += end - start
        elif name == "training.evaluate_ranks":
            test_rank_s += end - start
    setup_end = first_unit.get("model.loss", first_unit.get("model.rank"))
    test = [r for cmd, r, _ in ranks if cmd == "cli.eval"]
    bad = sum(1 for _, r, n in ranks if r.min() < 1 or r.max() > n)
    return {
        "pipeline_s": t_end - t_spawn,
        "setup_s": None if setup_end is None else setup_end - t_spawn,
        "train_s": train_s,
        "step_ms": [1000.0 * s for s in step_s],
        "rank_batch_ms": [1000.0 * s for s in rank_s],
        "test_samples": int(sum(r.size for r in test)),
        "test_rank_s": test_rank_s,
        "rank_batches": len(ranks),
        "rank_batches_out_of_range": bad,
        "test_ranks_digest": ranks_digest(test),
        "steps": sum(1 for s in spans if s[0] == "model.loss"),
        "commands": sum(1 for s in spans if s[0].startswith("cli.")),
    }


def layer_metrics(spans: list[list], counts: dict, graph_nodes: list[Counter],
                  test_samples: int) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (see README.md)."""
    names = [s[0] for s in spans]
    parent = [s[3] for s in spans]
    dur = np.array([s[2] - s[1] for s in spans], dtype=np.float64)
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, n in enumerate(names):
        by_name.setdefault(n, []).append(i)

    def ancestors(i):
        j = parent[i]
        while j >= 0:
            yield names[j]
            j = parent[j]

    def total(name, outside=None):
        # Outermost spans only, so a recursive name is not counted twice.
        return float(sum(dur[i] for i in by_name.get(name, [])
                         if name not in ancestors(i)
                         and (outside is None or outside not in ancestors(i))))

    def self_total(name):
        return float(sum(own[i] for i in by_name.get(name, [])))

    def per_call_ms(name, self_time=False):
        ids = by_name.get(name, [])
        vals = own if self_time else dur
        return 1000.0 * float(sum(vals[i] for i in ids)) / len(ids) if ids else 0.0

    # Forward components per unit of the workload's main loop: a training
    # step where there is one, otherwise a ranking batch.
    unit = "model.loss" if "model.loss" in by_name else "model.rank"
    n_units = len(by_name.get(unit, []))

    def per_unit_ms(name, self_time=False):
        vals = own if self_time else dur
        inside = [i for i in by_name.get(name, []) if unit in ancestors(i)]
        return 1000.0 * float(sum(vals[i] for i in inside)) / n_units if n_units else 0.0

    tokens, iters = counts.get("topics.tokens", 0), counts.get("topics.iters", 0)
    fit_s = total("topics.fit")
    loads = len(by_name.get("training.checkpoint_load", []))
    load_ms = 1000.0 * (total("training.checkpoint_load")
                        + total("training.model_from_checkpoint")) / loads if loads else 0.0
    train_ids = by_name.get("training.train", [])
    train_s = float(sum(dur[i] for i in train_ids))
    covered = float(sum(dur[i] for i, p in enumerate(parent) if p in train_ids))
    n_graphs = len(graph_nodes)
    ops = sum(graph_nodes, Counter())

    m = {
        "data.read_s": total("data.read"),
        "data.prepare_s": total("data.prepare"),
        "topics.fit_s": fit_s,
        "topics.tokens": tokens,
        "topics.iters": iters,
        "topics.us_per_token_iter": 1e6 * fit_s / (tokens * iters) if tokens * iters else 0.0,
        "encoder.loc_time_fwd_ms": per_unit_ms("encoder.loc_time_fwd"),
        "encoder.layer_fwd_ms": per_unit_ms("encoder.layer_fwd"),
        "encoder.time_user_fwd_ms": per_unit_ms("encoder.time_user_fwd", self_time=True),
        "cnoa.time_user_fwd_ms": per_unit_ms("cnoa.time_user_fwd"),
        "cnoa.decoder_fwd_ms": per_unit_ms("cnoa.decoder_fwd"),
        "cnoa.osc_fwd_ms": per_unit_ms("cnoa.osc_fwd"),
        "decoder.fwd_ms": per_unit_ms("decoder.fwd", self_time=True),
        "decoder.heads_fwd_ms": per_unit_ms("decoder.heads_fwd"),
        "model.forward_ms": per_unit_ms("model.forward"),
        "model.loss_ms": per_call_ms("model.loss", self_time=True),
        "model.rank_ms": per_call_ms("model.rank", self_time=True),
        "model.batch_build_ms": per_call_ms("model.batch_build"),
        "dcg.backward_ms": per_call_ms("dcg.backward"),
        "dcg.backward_calls": len(by_name.get("dcg.backward", [])),
        "dcg.adamw_ms": per_call_ms("dcg.adamw"),
        "dcg.adamw_calls": len(by_name.get("dcg.adamw", [])),
        "dcg.clip_ms": per_call_ms("dcg.clip"),
        "dcg.graph_nodes": sum(ops.values()) / n_graphs if n_graphs else 0.0,
        **{f"dcg.graph_nodes.{op}": ops.get(op, 0) / n_graphs if n_graphs else 0.0
           for op in GRAPH_OPS},
        "dcg.param_entries": counts.get("dcg.param_entries", 0),
        "training.train_s": train_s,
        "training.samples_per_epoch": counts.get("training.samples_per_epoch", 0),
        "training.steps_per_epoch": counts.get("training.steps_per_epoch", 0),
        "training.epochs": counts.get("training.epochs", 0),
        "training.val_rank_s": total("training.val_rank"),
        "training.checkpoint_save_ms": per_call_ms("training.checkpoint_save"),
        "training.checkpoint_load_ms": load_ms,
        "evaluation.test_samples": test_samples,
        "evaluation.rank_s": total("training.evaluate_ranks"),
        # sample_entropies (eval, mmc) plus the entropy command's own loop.
        "evaluation.entropy_s": total("evaluation.entropy") + self_total("cli.entropy"),
        "evaluation.report_ms": 1000.0 * total("evaluation.report", outside="training.train"),
        "mmc.fit_s": total("mmc.fit"),
        # The rank_of_target loop is what cli.mmc does outside its wrapped calls.
        "mmc.rank_s": self_total("cli.mmc"),
        "trace.train_coverage": covered / train_s if train_s else 0.0,
    }
    return m


def span_table(spans: list[list]) -> dict[str, dict]:
    """calls / total seconds / self seconds per span name."""
    own = self_times(spans)
    table: dict[str, dict] = {}
    for (name, start, end, _), s in zip(spans, own):
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += float(s)
    return table
