"""One repetition of a workload in a fresh process; started by run.py.

Runs the pipeline with the probes (and, with --trace 1, every layer)
wrapped, then writes <out>/rep.json with its measurements and
<out>/spans.jsonl with every span. The parent passes the monotonic time at
which it started this process, so set-up and pipeline time include
interpreter start and imports, as a user's command does.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--config", required=True, type=Path)
    p.add_argument("--data", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--t-spawn", type=float, required=True)
    args = p.parse_args(argv)

    import metrics
    import tracer as tr
    import workloads

    tracer = tr.Tracer()
    tr.install(tracer, full=bool(args.trace))
    error = None
    try:
        result = workloads.run_pipeline(tracer, args.workload, args.config,
                                        args.data, args.out)
    except Exception:  # a failed unit: recorded and reported, not fatal here
        error = traceback.format_exc()
        print(error, file=sys.stderr)
        result = {}
    finally:
        t_end = time.monotonic()
        tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    rep = metrics.rep_measurements(tracer.spans, tracer.ranks, args.t_spawn, t_end)
    rep.update(result)
    rep["digests"] = {**result.get("digests", {}),
                      "test_ranks": rep.pop("test_ranks_digest")}
    rep.update(error=error, traced=bool(args.trace), peak_rss_mb=peak_rss_mb,
               counts=tracer.counts, mmc_ranks_in_range=tracer.mmc_ranks_out_of_range == 0)
    if args.trace:
        rep["layers"] = metrics.layer_metrics(tracer.spans, tracer.counts,
                                              tracer.graph_nodes, rep["test_samples"])
        ops = set().union(*tracer.graph_nodes) if tracer.graph_nodes else set()
        rep["unseen_graph_ops"] = sorted(ops - set(metrics.GRAPH_OPS))
        rep["span_table"] = metrics.span_table(tracer.spans)

    with (args.out / "spans.jsonl").open("w", encoding="utf-8") as fh:
        for name, start, end, parent in tracer.spans:
            fh.write(json.dumps({"name": name, "start": start - args.t_spawn,
                                 "end": end - args.t_spawn, "parent": parent}) + "\n")
    (args.out / "rep.json").write_text(json.dumps(rep, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
