"""In-memory span recorder that wraps canoe's public entry points.

The benchmark never edits canoe: it replaces module functions and class
methods with timing wrappers for the duration of one pipeline run, then puts
the originals back. A span is (name, start, end, parent index); spans nest
because the program is single-threaded, so a span's self time is its
duration minus the durations of its direct children.

``install`` wraps two sets of boundaries:

* the probes - the few boundaries the end-to-end metrics need (train wall
  time, each optimizer step, each ranking batch, each ranking call). Two
  clock reads per call, on calls that take milliseconds; always installed.
* the layers - every public call of every layer, for the traced run only.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import sys
import time
from collections import Counter
from typing import Callable

import numpy as np

__all__ = ["Tracer", "install", "graph_op_counts", "self_times"]


class Tracer:
    """Holds the spans of one process and the patches that produce them."""

    def __init__(self):
        self.spans: list[list] = []       # [name, start, end, parent]
        self.graph_nodes: list[Counter] = []  # one Counter per backward call
        self.ranks: list[tuple[str, np.ndarray, int]] = []  # (command, ranks, n_locations)
        self.mmc_ranks: list[int] = []
        self.mmc_ranks_out_of_range = 0
        self.counts: dict[str, int] = {}  # deterministic work counts
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def root_name(self) -> str | None:
        return self.spans[self._stack[0]][0] if self._stack else None

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.monotonic(), None, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.monotonic()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around a block of benchmark code (a command or a loop)."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    # -- patching -----------------------------------------------------------

    def _wrapper(self, original: Callable, name, before=None, after=None):
        """Span around each call; name None records no span, only the hooks."""
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs)
            if name is None:
                result = original(*args, **kwargs)
                after(tracer, args, result)
                return result
            label = name(tracer.parent_name()) if callable(name) else name
            idx = tracer._open(label)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    def wrap_method(self, cls: type, attr: str, name, before=None, after=None) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrapper(original, name, before, after))

    def wrap_function(self, module, attr: str, name, before=None, after=None) -> None:
        """Patch the function in its module and in every canoe module that
        imported it by name, so calls through either binding are recorded."""
        original = getattr(module, attr)
        wrapper = self._wrapper(original, name, before, after)
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "canoe" or mod_name.startswith("canoe.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# ---------------------------------------------------------------------------
# hooks run around wrapped calls (outside their spans)

def graph_op_counts(root) -> Counter:
    """Nodes backward will visit from root (requires_grad only), by op."""
    counts: Counter = Counter()
    seen: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        counts[node._op] += 1
        stack.extend(node._parents)
    return counts


def _count_graph(tracer: Tracer, args, kwargs) -> None:
    tracer.graph_nodes.append(graph_op_counts(args[0]))


def _keep_ranks(tracer: Tracer, args, ranks) -> None:
    tracer.ranks.append((tracer.root_name(), ranks, args[0].n_locations))


def _keep_mmc_rank(tracer: Tracer, args, rank: int) -> None:
    tracer.mmc_ranks.append(rank)
    tracer.mmc_ranks_out_of_range += not 1 <= rank <= args[0].n_locations


def _param_entries(tracer: Tracer, args, kwargs) -> None:
    tracer.counts.setdefault("dcg.param_entries", args[0].registry.n_entries())


def _train_work(tracer: Tracer, args, kwargs) -> None:
    dataset, cfg = args[1], args[2]
    n = len(dataset.split.train)
    tracer.counts["training.samples_per_epoch"] = n
    tracer.counts["training.steps_per_epoch"] = math.ceil(n / cfg.train.batch_size)
    tracer.counts["training.epochs"] = cfg.train.epochs


def _topic_work(tracer: Tracer, args, kwargs) -> None:
    from canoe import topics

    bound = inspect.signature(topics.fit_lda).bind(*args, **kwargs)
    bound.apply_defaults()
    tracer.counts["topics.tokens"] = int(np.asarray(bound.arguments["counts"]).sum())
    tracer.counts["topics.iters"] = int(bound.arguments["iters"])


def _evaluate_ranks_name(parent: str | None) -> str:
    return "training.val_rank" if parent == "training.train" else "training.evaluate_ranks"


def _cnoa_name(parent: str | None) -> str:
    return "cnoa.time_user_fwd" if parent == "encoder.time_user_fwd" else "cnoa.decoder_fwd"


def install(tracer: Tracer, full: bool) -> None:
    """Wrap the probe boundaries, and every layer boundary when full."""
    from canoe import (cli, cnoa, data, dcg, decoder, encoder, evaluation,
                       mmc, model, topics, training)

    # Probes: needed for the end-to-end metrics in every run.
    tracer.wrap_function(training, "train", "training.train", before=_train_work)
    tracer.wrap_function(training, "evaluate_ranks", _evaluate_ranks_name)
    tracer.wrap_function(topics, "fit_lda", "topics.fit", before=_topic_work)
    tracer.wrap_method(model.CanoeModel, "loss_batch", "model.loss",
                       before=_param_entries)
    tracer.wrap_method(model.CanoeModel, "rank_targets", "model.rank",
                       before=_param_entries, after=_keep_ranks)
    tracer.wrap_method(dcg.AdamW, "step", "dcg.adamw")
    # One call per test sample: its rank is kept for the output checks, and
    # its time is the cli.mmc self time (no span, to keep the loop cheap).
    tracer.wrap_function(mmc, "rank_of_target", None, after=_keep_mmc_rank)
    if not full:
        return

    tracer.wrap_function(data, "read_checkins", "data.read")
    tracer.wrap_function(data, "prepare_dataset", "data.prepare")
    tracer.wrap_function(data, "train_location_region", "data.train_region")
    tracer.wrap_function(model, "batch_from_samples", "model.batch_build")
    tracer.wrap_method(model.CanoeModel, "forward_batch", "model.forward")
    tracer.wrap_method(encoder.LocationTimePair, "__call__", "encoder.loc_time_fwd")
    tracer.wrap_method(encoder.TransformerLayer, "__call__", "encoder.layer_fwd")
    tracer.wrap_method(encoder.TimeUserPair, "__call__", "encoder.time_user_fwd")
    tracer.wrap_method(cnoa.CnoaAttention, "__call__", _cnoa_name)
    tracer.wrap_function(cnoa, "osc_transform", "cnoa.osc_fwd")
    tracer.wrap_method(decoder.CrossContextDecoder, "__call__", "decoder.fwd")
    for head in ("location_logits", "time_logits", "aux_logits"):
        tracer.wrap_method(decoder.CrossContextDecoder, head, "decoder.heads_fwd")
    tracer.wrap_function(dcg, "backward", "dcg.backward", before=_count_graph)
    tracer.wrap_method(dcg.ParamRegistry, "clip_grad_norm", "dcg.clip")
    tracer.wrap_function(training, "save_checkpoint", "training.checkpoint_save")
    tracer.wrap_function(training, "load_checkpoint", "training.checkpoint_load")
    tracer.wrap_function(training, "model_from_checkpoint", "training.model_from_checkpoint")
    tracer.wrap_function(training, "sample_entropies", "evaluation.entropy")
    for fn in ("compute_metrics", "stratified_reports", "write_report"):
        tracer.wrap_function(evaluation, fn, "evaluation.report")
    tracer.wrap_function(mmc, "fit_mmc", "mmc.fit")
    del cli  # imported so that its by-name bindings are patched too


def self_times(spans: list[list]) -> np.ndarray:
    """Per-span duration minus the durations of its direct children."""
    dur = np.array([s[2] - s[1] for s in spans], dtype=np.float64)
    own = dur.copy()
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            own[s[3]] -= d
    return own
