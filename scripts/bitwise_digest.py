"""Print a sha256 digest of every artifact of a small seeded canoe run.

Runs generate, then train (8 epochs, one warmup epoch, dim 16) and eval
for the cnoa and cross attention variants, for decoder_query=time_user,
and for cnoa in batches of 168 rows (the 336 training windows in two
batches, each large enough for a transformer-layer node to split its rows
across two CPUs; the other variants train in batches of 64), then the
Markov baseline (`canoe mmc`), the prefix-entropy CSV (`canoe entropy`)
and the preprocessing summary (`canoe preprocess --out`), all through
canoe.cli.main in a temporary directory. The last three run three times:
on the training data; on a noisier file (data.p_explore=0.2) windowed
with data.stride=3, so that strided windows and non-trivial entropies are
covered; and on the noisy file relaid (keys reordered, spaces after the
separators, CRLF endings, blank lines, no final newline), which only the
line-by-line reader reads. The relaid file's lines must equal the noisy
file's, or the script exits 1.
Prints one "name sha256" line per artifact: each check-in file
and the JSON line `canoe generate` printed for it, the loss CSV, the
report .json/.txt/.csv and every checkpoint array (meta included) of each
variant, the mmc report .json/.txt/.csv, the entropy CSV and the
preprocessing summary of each file, every `<output>.config.json` echo,
then the `canoe gradcheck` value.
The training is long enough that the three variants rank the test split
differently, so their report lines differ and a change to attention shows
in them.

Two source trees are byte-identical in training and evaluation when their
outputs match:

    PYTHONPATH=<tree-a>/src python scripts/bitwise_digest.py > a.txt
    PYTHONPATH=<tree-b>/src python scripts/bitwise_digest.py > b.txt
    diff a.txt b.txt
"""

from __future__ import annotations

import os

# One BLAS thread, as in the test suite: the digests assume a fixed
# execution environment.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
os.environ.setdefault("CANOE_LOG", "warn")

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from canoe.cli import main  # noqa: E402

DATA_ARGS = [
    "--set", "data.num_users=12", "--set", "data.num_locations=20",
    "--set", "data.days=10", "--set", "data.activities_per_day=5",
    "--set", "data.min_records=30", "--set", "data.window_len=10",
]
TRAIN_ARGS = DATA_ARGS + [
    "--set", "model.dim=16", "--set", "topics.n_topics=6",
    "--set", "topics.gibbs_iters=50", "--set", "train.epochs=8",
    "--set", "train.warmup_epochs=1", "--set", "train.batch_size=64",
]
# Exploring users and every third window: the data-layer-only runs.
NOISY_ARGS = DATA_ARGS + ["--set", "data.p_explore=0.2", "--set", "data.stride=3"]
VARIANTS = {
    "cnoa": ["--set", "model.attention=cnoa"],
    "cross": ["--set", "model.attention=cross"],
    "time_user": ["--set", "model.decoder_query=time_user"],
    "rows168": ["--set", "train.batch_size=168"],
}


def _run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    if rc != 0:
        raise SystemExit(f"canoe {' '.join(argv)} exited {rc}")
    return out.getvalue()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_lines(work: Path) -> list[str]:
    data = work / "data.jsonl"
    printed = _run(["generate", "--seed", "3", "--out", str(data)] + DATA_ARGS)
    lines = [f"data.jsonl {_sha(data.read_bytes())}",
             f"data.jsonl/stdout {_sha(printed.encode())}"]
    for name, extra in VARIANTS.items():
        ckpt, log, report = (work / f"{name}.ckpt", work / f"{name}.csv",
                             work / f"{name}.report")
        _run(["train", "--data", str(data), "--seed", "3", "--model-out",
              str(ckpt), "--log", str(log)] + TRAIN_ARGS + extra)
        _run(["eval", "--data", str(data), "--model", str(ckpt),
              "--report", str(report)])
        lines.append(f"{name}/log.csv {_sha(log.read_bytes())}")
        for ext in (".json", ".txt", ".csv"):
            body = Path(str(report) + ext).read_bytes()
            lines.append(f"{name}/report{ext} {_sha(body)}")
        with np.load(ckpt) as arrays:
            for key in sorted(arrays.files):
                arr = arrays[key]
                tag = f"{arr.dtype.str}{arr.shape}".encode()
                lines.append(f"{name}/ckpt/{key} {_sha(tag + arr.tobytes())}")
    lines += _data_layer_lines(work, data, "", DATA_ARGS)
    noisy = work / "noisy.jsonl"
    printed = _run(["generate", "--seed", "4", "--out", str(noisy)] + NOISY_ARGS)
    lines.append(f"noisy.jsonl {_sha(noisy.read_bytes())}")
    lines.append(f"noisy.jsonl/stdout {_sha(printed.encode())}")
    noisy_lines = _data_layer_lines(work, noisy, "noisy/", NOISY_ARGS)
    relaid = work / "relaid.jsonl"
    relaid.write_bytes(_relaid(noisy.read_text(encoding="utf-8")).encode())
    relaid_lines = _data_layer_lines(work, relaid, "relaid/", NOISY_ARGS)
    if [line.split()[1] for line in relaid_lines] != \
            [line.split()[1] for line in noisy_lines]:
        raise SystemExit("the relaid noisy file does not read as the noisy file")
    lines += noisy_lines + relaid_lines
    lines += [f"{echo.relative_to(work)} {_sha(echo.read_bytes())}"
              for echo in sorted(work.rglob("*.config.json"))]
    lines.append(f"gradcheck {_run(['gradcheck']).strip()}")
    return lines


def _relaid(text: str) -> str:
    """The records of a check-in file in another layout: keys reordered,
    spaces after the separators, CRLF endings, a blank line before every
    tenth record and no final newline."""
    rows = [json.loads(line) for line in text.splitlines()]
    return "\r\n".join(
        ("\r\n" if i % 10 == 0 else "")
        + json.dumps({"t": r["t"], "loc": r["loc"], "user": r["user"]})
        for i, r in enumerate(rows))


def _data_layer_lines(work: Path, data: Path, prefix: str,
                      args: list[str]) -> list[str]:
    """Digests of the mmc report, the entropy CSV and the preprocessing
    summary of one check-in file, read with the given --set args."""
    out = work / prefix
    mmc, entropy, summary = (out / "mmc.report", out / "entropy.csv",
                             out / "preprocess.json")
    _run(["mmc", "--data", str(data), "--report", str(mmc)] + args)
    lines = [f"{prefix}mmc/report{ext} {_sha(Path(str(mmc) + ext).read_bytes())}"
             for ext in (".json", ".txt", ".csv")]
    _run(["entropy", "--data", str(data), "--report", str(entropy)] + args)
    lines.append(f"{prefix}entropy.csv {_sha(entropy.read_bytes())}")
    _run(["preprocess", "--data", str(data), "--out", str(summary)] + args)
    lines.append(f"{prefix}preprocess.json {_sha(summary.read_bytes())}")
    return lines


def main_digest() -> int:
    with tempfile.TemporaryDirectory(prefix="canoe-digest-") as tmp:
        for line in digest_lines(Path(tmp)):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main_digest())
