#!/usr/bin/env python3
"""Benchmark of the canoe pipeline, end to end and layer by layer.

    python3 perfbench/run.py --workload train-epochs --seed 1 --seconds 30 --trace 0

Generates the workload's check-in file from --seed, then runs the pipeline
in fresh processes, one repetition after another, until --seconds have
passed (at least two repetitions). With --trace 0 every repetition runs
with only the probes the end-to-end metrics need; with --trace 1 untraced
and traced repetitions alternate, and the per-layer metrics and the
tracing overhead are reported. The last line of standard output is one JSON
object: correct, attempted, failed and the metrics named in BENCHMARK.json.
Exit code 0 when every output check passed, 1 when one failed, 2 when the
canoe sources are missing. See perfbench/README.md.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, here and in the workers (they inherit the
# environment): the matrices are tiny, and the tests run pinned as well.
BLAS_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_PINS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
RUN_LIMIT_S = 170.0  # a run must end within 180 s


def environment() -> dict:
    import numpy as np
    from canoe import kernels

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy prints instead of returning
        blas = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        commit = lines[1] if top.returncode == 0 and Path(lines[0]).resolve() == ROOT else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    src = hashlib.sha256()
    for path in sorted((SRC / "canoe").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_1m_start": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_PINS},
        "backend": kernels.BACKEND,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "machine": platform.machine(),
    }


def backend_equality() -> str:
    """numba and numpy kernels must agree bit for bit, as bench_kernels.py asserts."""
    import numpy as np
    from canoe import kernels

    if importlib.util.find_spec("numba") is None or not kernels.NUMBA_ENABLED:
        return "skipped (numba not importable)"
    rng = np.random.default_rng(0)
    s = rng.random((16, 2, 19, 24)) * 2
    args = (1.0, -1.0, 1.0, 1.0, 0.0, 0.0, 4)
    same = all(np.array_equal(a, b) for a, b in zip(
        kernels.oscillator_forward_numpy(s, *args), kernels.oscillator_forward(s, *args)))
    n_users, n_locs, n_topics, n_tokens = 40, 30, 16, 4000
    tu = rng.integers(0, n_users, n_tokens)
    tl = rng.integers(0, n_locs, n_tokens)
    uniforms = rng.random(n_tokens)
    zs = []
    for sweep in (kernels.gibbs_sweep_numpy, kernels.gibbs_sweep):
        z = np.random.default_rng(2).integers(0, n_topics, n_tokens)
        n_ut = np.zeros((n_users, n_topics), dtype=np.int64)
        n_tl = np.zeros((n_topics, n_locs), dtype=np.int64)
        n_t = np.zeros(n_topics, dtype=np.int64)
        np.add.at(n_ut, (tu, z), 1)
        np.add.at(n_tl, (z, tl), 1)
        np.add.at(n_t, z, 1)
        sweep(tu, tl, z, n_ut, n_tl, n_t, 0.5, 0.01, uniforms)
        zs.append(z)
    return "ok" if same and np.array_equal(*zs) else "FAILED (backend mismatch)"


def run_rep(workload: str, config: Path, data: Path, out: Path, traced: bool,
            timeout: float) -> dict:
    """One repetition in a fresh process; a crash or timeout is a failed unit."""
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--config", str(config), "--data", str(data), "--out", str(out),
           "--trace", str(int(traced))]
    with (out / "stdout.txt").open("w") as so, (out / "stderr.txt").open("w") as se:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd + ["--t-spawn", repr(t_spawn)], stdout=so,
                                stderr=se, env=env, cwd=ROOT)
        try:
            code = proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = None
    wall = time.monotonic() - t_spawn
    rep_file = out / "rep.json"
    if code != 0 or not rep_file.exists():
        reason = "timed out" if code is None else f"exited with {code}"
        return {"error": f"worker {reason}; see {out / 'stderr.txt'}", "wall_s": wall,
                "traced": traced, "commands": 1, "steps": 0, "rank_batches": 0}
    rep = json.loads(rep_file.read_text(encoding="utf-8"))
    rep["wall_s"] = wall
    return rep


def _pct(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def end_to_end(reps: list[dict], failed: int, attempted: int) -> dict[str, tuple]:
    """name -> (value or None, sample-count note)."""
    med = statistics.median
    n = len(reps)
    steps = [ms for r in reps for ms in r["step_ms"]]
    batches = [ms for r in reps for ms in r["rank_batch_ms"]]
    trained = [r for r in reps if r["train_s"] > 0]
    tested = [r for r in reps if r["test_rank_s"] > 0]
    c = reps[0]["counts"]
    train_samples = c.get("training.samples_per_epoch", 0) * c.get("training.epochs", 0)
    runs = f"median of {n} runs"
    return {
        "setup_s": (med(r["setup_s"] for r in reps), runs),
        "pipeline_s": (med(r["pipeline_s"] for r in reps), runs),
        "train_samples_per_s": (
            med(train_samples / r["train_s"] for r in trained) if trained else None,
            f"median of {len(trained)} runs x {train_samples} samples"),
        "train_step_ms_p50": (_pct(steps, 50) if steps else None,
                              f"{len(steps)} steps"),
        "train_step_ms_p90": (_pct(steps, 90) if steps else None, f"{len(steps)} steps"),
        "eval_samples_per_s": (
            med(r["test_samples"] / r["test_rank_s"] for r in tested) if tested else None,
            f"median of {len(tested)} runs x {reps[0]['test_samples']} test samples"),
        "eval_batch_ms_p50": (_pct(batches, 50) if batches else None,
                              f"{len(batches)} batches of <= 512 rows"),
        "eval_batch_ms_p90": (_pct(batches, 90) if batches else None, f"{len(batches)} batches"),
        "peak_rss_mb": (med(r["peak_rss_mb"] for r in reps), runs),
        "test_acc1": (reps[0]["test_acc1"], f"{reps[0]['quality_samples']} test samples"),
        "test_mrr": (reps[0]["test_mrr"], f"{reps[0]['quality_samples']} test samples"),
        "error_rate": (failed / attempted, f"{failed} of {attempted} units"),
    }


def check_reps(workload: str, reps: list[dict]) -> tuple[list[str], int, int]:
    """Output checks; returns (report lines, failed units, attempted units)."""
    lines, failed = [], 0
    attempted = sum(r["steps"] + r["rank_batches"] + r["commands"] for r in reps)
    for i, r in enumerate(reps):
        if r.get("error"):
            failed += 1
            lines.append(f"check run {i}: FAILED {r['error'].strip().splitlines()[-1]}")
    ok = [r for r in reps if not r.get("error")]
    bad_losses = sum(1 for r in ok if not r["losses_finite"])
    # Ranks are checked as they are produced, so a run that failed later
    # still reports its out-of-range batches.
    bad_batches = sum(r.get("rank_batches_out_of_range", 0) for r in reps)
    bad_mmc = sum(1 for r in ok if not r.get("mmc_ranks_in_range", True))
    failed += bad_losses + bad_batches + bad_mmc
    lines.append(f"check losses-finite: {'ok' if not bad_losses else 'FAILED'} "
                 f"({len(ok)} runs)")
    lines.append(f"check ranks-in-range: {'ok' if not bad_batches + bad_mmc else 'FAILED'} "
                 f"({sum(r['rank_batches'] for r in reps)} batches"
                 f"{', mmc ranks' if workload == 'rank-eval' else ''})")
    if len(ok) < len(reps):
        lines.append("check determinism: not checked (a run failed)")
        return lines, failed, attempted
    keys = [(r["digests"], r["test_acc1"], r["test_mrr"]) for r in ok]
    same = all(k == keys[0] for k in keys)
    failed += not same
    digests = ", ".join(f"{k}={v[:12]}" for k, v in sorted(keys[0][0].items()))
    lines.append(f"check determinism: {'ok' if same else 'FAILED'} "
                 f"({len(reps)} runs of one seed; {digests})")
    return lines, failed, attempted


def shape_checks(workload: str, layers: dict, pipeline_s: float) -> list[str]:
    """The workload shapes the benchmark was designed around (informational)."""
    if workload == "topic-fit":
        share = layers["topics.fit_s"] / pipeline_s
        return [f"shape topics.fit_s / pipeline_s = {share:.3f} (designed >= 0.5)"]
    if workload == "train-epochs":
        fwd_bwd = (layers["encoder.loc_time_fwd_ms"] + layers["encoder.time_user_fwd_ms"]
                   + layers["cnoa.time_user_fwd_ms"] + layers["dcg.backward_ms"])
        steps = layers["training.steps_per_epoch"] * layers["training.epochs"]
        share = fwd_bwd * steps / 1000.0 / layers["training.train_s"]
        return [f"shape (encoder fwd + dcg.backward) / training.train_s = {share:.3f} "
                f"(designed >= 0.667)",
                f"shape topics.fit_s / pipeline_s = {layers['topics.fit_s'] / pipeline_s:.3f} "
                f"(designed < 0.1)",
                f"shape trace.train_coverage = {layers['trace.train_coverage']:.3f} "
                f"(designed >= 0.9)"]
    stages = {k: layers[k] for k in ("data.read_s", "data.prepare_s", "mmc.fit_s",
                                     "mmc.rank_s", "evaluation.entropy_s")}
    stages["evaluation.rank_s"] = layers["evaluation.rank_s"]
    largest = max(stages, key=stages.get)
    return [f"shape largest stage = {largest} ({stages[largest]:.3f} s; designed evaluation.rank_s)",
            f"shape dcg.backward calls = {layers['dcg.backward_calls']}, "
            f"AdamW.step calls = {layers['dcg.adamw_calls']} (designed 0, 0)"]


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="reduced input sizes, for the harness self-test")
    args = p.parse_args(argv)
    t_start = time.monotonic()

    if not (SRC / "canoe" / "__init__.py").is_file():
        print(f"error: canoe sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import canoe

    if SRC not in Path(canoe.__file__).resolve().parents:
        print(f"error: canoe imported from {canoe.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        p.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = environment()
    backend = backend_equality()
    config, data = workloads.write_input(args.workload, args.seed, out, args.smoke)

    reps: list[dict] = []
    t_measure = time.monotonic()
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        remaining = RUN_LIMIT_S - (time.monotonic() - t_start)
        reps.append(run_rep(args.workload, config, data, out / f"run{len(reps)}",
                            traced, remaining))
        now = time.monotonic()
        next_end = now + reps[-1]["wall_s"]
        if reps[-1].get("error") or (len(reps) >= 2 and (
                next_end > t_measure + args.seconds or next_end - t_start > RUN_LIMIT_S)):
            break
    env["loadavg_1m_end"] = os.getloadavg()[0]

    lines, failed, attempted = check_reps(args.workload, reps)
    if backend.startswith("FAILED"):
        failed += 1
    lines.insert(0, f"check backend-equality: {backend}")
    correct = failed == 0
    plain = [r for r in reps if not r["traced"]]
    traced_reps = [r for r in reps if r["traced"]]

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} runs={len(plain)} untraced + {len(traced_reps)} traced")
    print("env " + json.dumps(env, sort_keys=True))
    print("\n".join(lines))
    for i, r in enumerate(reps):
        if not r.get("error"):
            print(f"run {i}: traced={int(r['traced'])} wall_s={r['wall_s']:.3f} "
                  f"setup_s={r['setup_s']:.3f} pipeline_s={r['pipeline_s']:.3f} "
                  f"train_s={r['train_s']:.3f} test_rank_s={r['test_rank_s']:.3f}")
    result: dict = {"workload": args.workload, "seed": args.seed, "env": env,
                    "checks": lines, "correct": correct}
    metrics_out: dict = {}
    if correct:
        from metrics import END_TO_END, LAYER_UNITS

        e2e = end_to_end(plain, failed, attempted)
        for name, (value, note) in e2e.items():
            unit = END_TO_END[name]
            shown = "n/a" if value is None else f"{value:.6g} {unit}"
            print(f"metric {name} = {shown} ({note})")
        result["end_to_end"] = {k: v for k, (v, _) in e2e.items()}
        if args.trace:
            layers = {k: statistics.median(r["layers"][k] for r in traced_reps)
                      for k in traced_reps[0]["layers"]}
            traced_pipeline = statistics.median(r["pipeline_s"] for r in traced_reps)
            layers["trace.pipeline_s"] = traced_pipeline
            layers["trace.overhead_s"] = traced_pipeline - e2e["pipeline_s"][0]
            for k, v in layers.items():
                print(f"layer {k} = {v:.6g} {LAYER_UNITS[k]}")
            for name, row in sorted(traced_reps[0]["span_table"].items(),
                                    key=lambda kv: -kv[1]["total_s"]):
                print(f"span {name}: calls={row['calls']} total_s={row['total_s']:.4f} "
                      f"self_s={row['self_s']:.4f}")
            unseen = traced_reps[0]["unseen_graph_ops"]
            if unseen:
                print(f"note graph ops not in GRAPH_OPS: {', '.join(unseen)}")
            print("\n".join(shape_checks(args.workload, layers, traced_pipeline)))
            result["layers"] = layers
            metrics_out = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                           for m in spec["per_layer"]}
        else:
            metrics_out = {m["name"]: {"value": e2e[m["name"]][0], "unit": m["unit"]}
                           for m in spec["end_to_end"]}
    (out / "result.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics_out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
