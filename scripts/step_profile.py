"""Print the cost of each training step of perfbench's train-epochs shape.

Generates the train-epochs input for a seed (the sizes come from
perfbench/workloads.py), fits its topics and builds the model as
`canoe train` does, then runs `training.train` itself, with no log or
checkpoint file. Timing wrappers on `CanoeModel.loss_batch`, `dcg.backward`
and `AdamW.step` see each step; for every step it prints one line:

    epoch step fwd_ms bwd_ms minflt maxrss_mb nodes

fwd_ms and bwd_ms are the wall times of `CanoeModel.loss_batch` and
`dcg.backward`; minflt is the process's minor page faults from the start of
the forward to the end of `AdamW.step` (`ru_minflt`); maxrss_mb is the
process's peak resident set after the step (`ru_maxrss`); nodes counts the
graph nodes backward visits, parameters included, as perfbench's
`dcg.graph_nodes` counts them. A last line per epoch gives the medians of
the two times and the sum of the faults. The header line also gives the
usable CPU count, which row blocks split by (`canoe.dcg.blocks`), and the
BLAS thread pins, so two profiles show whether the split could run.

Two source trees compare as the digest script compares them:

    PYTHONPATH=<tree-a>/src python scripts/step_profile.py --seed 23 > a.txt
    PYTHONPATH=<tree-b>/src python scripts/step_profile.py --seed 23 > b.txt

It sets glibc's allocator thresholds as `canoe`'s entry point does
(`canoe.cli.steady_heap`) and pins BLAS to one thread, as the digest script
does.
"""

from __future__ import annotations

import os

BLAS_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_PINS:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import run_config  # noqa: E402

from canoe import cli, dcg  # noqa: E402
from canoe.config import RunConfig  # noqa: E402
from canoe.data import prepare_dataset  # noqa: E402
from canoe.model import CanoeModel  # noqa: E402
from canoe.synthetic import generate_synthetic  # noqa: E402
from canoe.training import train  # noqa: E402


def graph_nodes(root) -> int:
    """Nodes backward visits from root, parameters included."""
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if node.requires_grad and id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    cli.steady_heap()
    cfg = RunConfig.from_dict(run_config("train-epochs", args.seed))
    d = cfg.data
    dataset = prepare_dataset(generate_synthetic(cfg.synthetic_config()),
                              theta=d.theta_seconds, window_len=d.window_len,
                              stride=d.stride, min_records=d.min_records)
    topic_model = cli.fit_topics(dataset, cfg)
    model = CanoeModel(cfg.model, n_users=dataset.n_users,
                       n_locations=dataset.n_locations,
                       topic_theta=topic_model.theta, seed=cfg.seed)
    steps_per_epoch = math.ceil(len(dataset.split.train) / cfg.train.batch_size)

    epoch, flt0, nodes, fwd, bwd, faults = 0, 0, 0, [], [], 0
    loss_batch, backward, adamw_step = (CanoeModel.loss_batch, dcg.backward,
                                        dcg.AdamW.step)

    def timed_loss_batch(self, *a, **kw):
        nonlocal flt0
        flt0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        tic = time.perf_counter()
        out = loss_batch(self, *a, **kw)
        fwd.append((time.perf_counter() - tic) * 1e3)
        return out

    def timed_backward(root):
        nonlocal nodes
        nodes = graph_nodes(root)
        tic = time.perf_counter()
        backward(root)
        bwd.append((time.perf_counter() - tic) * 1e3)

    def timed_step(self):
        nonlocal epoch, fwd, bwd, faults
        adamw_step(self)
        usage = resource.getrusage(resource.RUSAGE_SELF)
        faults += usage.ru_minflt - flt0
        print(f"{epoch} {len(fwd) - 1} {fwd[-1]:.2f} {bwd[-1]:.2f} "
              f"{usage.ru_minflt - flt0} {usage.ru_maxrss / 1024:.1f} {nodes}")
        if len(fwd) == steps_per_epoch:
            print(f"epoch {epoch}: {len(fwd)} steps, median fwd_ms "
                  f"{np.median(fwd):.2f} bwd_ms {np.median(bwd):.2f}, "
                  f"minflt {faults}")
            epoch, fwd, bwd, faults = epoch + 1, [], [], 0

    CanoeModel.loss_batch = timed_loss_batch
    dcg.backward = timed_backward
    dcg.AdamW.step = timed_step
    pins = " ".join(f"{var}={os.environ.get(var, '')}" for var in BLAS_PINS)
    print(f"epoch step fwd_ms bwd_ms minflt maxrss_mb nodes "
          f"(usable_cpus {len(os.sched_getaffinity(0))}, {pins})")
    train(model, dataset, cfg)


if __name__ == "__main__":
    main()
