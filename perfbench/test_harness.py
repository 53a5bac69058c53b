"""Self-test of the benchmark harness: every workload at a reduced size.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_harness.py

Not part of the tier-1 suite (pytest's testpaths is tests/). It runs the
benchmark itself: about a dozen short pipelines, under a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=root)


@pytest.fixture(scope="module")
def runs() -> dict:
    """(workload, trace) -> (text lines, parsed last line)."""
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = _bench(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
            lines = proc.stdout.splitlines()
            out[workload, trace] = lines, json.loads(lines[-1])
    return out


def test_benchmark_json_matches_the_harness():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]}.items() <= END_TO_END.items()
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == LAYER_UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(runs, workload):
    lines, result = runs[workload, 0]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in SPEC["end_to_end"]}
    for name, unit in END_TO_END.items():
        assert any(re.match(rf"metric {re.escape(name)} = (n/a|\S+ {re.escape(unit)}) \(.+\)$", ln)
                   for ln in lines), name

    lines, result = runs[workload, 1]
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == LAYER_UNITS
    for name, unit in LAYER_UNITS.items():
        assert f"layer {name} = " in "\n".join(lines) and any(
            ln.startswith(f"layer {name} = ") and ln.endswith(f" {unit}") for ln in lines), name
    assert any(ln.startswith("span ") and "self_s=" in ln for ln in lines)


def test_traced_spans_cover_training(runs):
    _, result = runs["train-epochs", 1]
    assert result["metrics"]["trace.train_coverage"]["value"] >= 0.9
    assert result["metrics"]["dcg.backward_calls"]["value"] > 0


def test_rank_eval_never_calls_backward_or_adamw(runs):
    _, result = runs["rank-eval", 1]
    assert result["metrics"]["dcg.backward_calls"]["value"] == 0
    assert result["metrics"]["dcg.adamw_calls"]["value"] == 0
    assert result["metrics"]["evaluation.rank_s"]["value"] > 0


def _copy_benchmark(dest: Path, with_src: bool) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))


def test_fails_without_the_program(tmp_path):
    _copy_benchmark(tmp_path, with_src=False)
    proc = _bench(tmp_path, "train-epochs", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_failed_output_check_reports_no_metric(tmp_path):
    _copy_benchmark(tmp_path, with_src=True)
    model = tmp_path / "src" / "canoe" / "model.py"
    source = model.read_text(encoding="utf-8")
    broken = source.replace("(better + tied_smaller + 1)", "(better + tied_smaller)")
    assert broken != source
    model.write_text(broken, encoding="utf-8")
    proc = _bench(tmp_path, "rank-eval", 0)
    assert proc.returncode == 1
    result = json.loads(proc.stdout.splitlines()[-1])
    assert not result["correct"] and result["failed"] > 0 and result["metrics"] == {}
    assert "check ranks-in-range: FAILED" in proc.stdout
