"""Ranking metrics and the entropy-stratified evaluation protocol.

Ranks are 1-indexed positions of the ground truth in a model's descending
probability order; Acc@k is the fraction with rank <= k and MRR the mean
reciprocal rank. Test steps are stratified by the normalized entropy of
the empirical location distribution over the trajectory prefix.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Collection, Sequence

import numpy as np

from .data import write_text

__all__ = [
    "EvalReport", "StratumReport", "compute_metrics", "prefix_entropy",
    "entropy_of_counts",
    "stratified_reports", "report_to_dict", "format_report_table",
    "report_csv_rows", "write_report",
]

DEFAULT_KS = (1, 3, 5, 10)
DEFAULT_THRESHOLDS = (0.75, 0.80, 0.85, 0.90)


@dataclass
class EvalReport:
    n_samples: int
    acc: dict[int, float]
    mrr: float
    by_threshold: dict[float, "StratumReport"] = field(default_factory=dict)


@dataclass
class StratumReport:
    """Metrics over the high-entropy subset at one threshold (its key)."""

    n_subset: int
    n_complement: int
    metrics: EvalReport | None  # None when the subset is empty


def compute_metrics(ranks: Sequence[int], ks: Sequence[int] = DEFAULT_KS) -> EvalReport:
    if len(ranks) == 0:
        raise ValueError("compute_metrics requires at least one rank")
    arr = np.asarray(ranks, dtype=np.int64)
    if arr.min() < 1:
        raise ValueError("ranks are 1-indexed and must be >= 1")
    acc = {int(k): float(np.mean(arr <= k)) for k in ks}
    mrr = float(np.mean(1.0 / arr))
    return EvalReport(n_samples=int(arr.size), acc=acc, mrr=mrr)


def prefix_entropy(prefix: Sequence[int]) -> float:
    """Normalized Shannon entropy of the location distribution over a prefix.

    H = -sum p ln p over the distinct prefix locations, normalized by
    ln(m) for m distinct locations; defined as 0 when m == 1.
    """
    n = len(prefix)
    if n < 1:
        raise ValueError("prefix must contain at least one element")
    return entropy_of_counts(Counter(prefix).values(), n)


def entropy_of_counts(counts: Collection[int], n: int) -> float:
    """prefix_entropy of a prefix of n items with these per-location counts.

    The sum runs over counts in the given order, so counts in first-seen
    order, as Counter(prefix) holds them, give prefix_entropy's float.
    """
    m = len(counts)
    if m == 1:
        return 0.0
    h = 0.0
    for c in counts:
        p = c / n
        h -= p * math.log(p)
    # summed entropy can exceed ln(m) by one ulp when counts are equal
    return min(h / math.log(m), 1.0)


def stratified_reports(ranks: Sequence[int], entropies: Sequence[float],
                       thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
                       ks: Sequence[int] = DEFAULT_KS) -> dict[float, StratumReport]:
    """Metrics over subsets of test steps with prefix entropy >= threshold.

    Subsets are nested across increasing thresholds; empty subsets are
    reported with n=0 and no metrics rather than raising.
    """
    ranks = np.asarray(ranks, dtype=np.int64)
    ent = np.asarray(entropies, dtype=np.float64)
    if ranks.shape != ent.shape:
        raise ValueError("ranks and entropies must be parallel arrays")
    out: dict[float, StratumReport] = {}
    for th in thresholds:
        mask = ent >= th
        n_sub = int(mask.sum())
        metrics = compute_metrics(ranks[mask], ks) if n_sub else None
        out[float(th)] = StratumReport(
            n_subset=n_sub, n_complement=int(ranks.size - n_sub), metrics=metrics)
    return out


# ---------------------------------------------------------------------------
# report serialization: JSON, aligned text table, CSV rows

def report_to_dict(report: EvalReport) -> dict:
    d = {
        "n_samples": report.n_samples,
        "acc": {f"acc@{k}": v for k, v in sorted(report.acc.items())},
        "mrr": report.mrr,
    }
    if report.by_threshold:
        d["by_threshold"] = {}
        for th, stratum in sorted(report.by_threshold.items()):
            entry = {
                "n_subset": stratum.n_subset,
                "n_complement": stratum.n_complement,
            }
            if stratum.metrics is not None:
                entry["acc"] = {f"acc@{k}": v
                                for k, v in sorted(stratum.metrics.acc.items())}
                entry["mrr"] = stratum.metrics.mrr
            d["by_threshold"][f"{th:g}"] = entry
    return d


def format_report_table(report: EvalReport, title: str = "overall") -> str:
    ks = sorted(report.acc)
    header = ["subset", "n"] + [f"Acc@{k}" for k in ks] + ["MRR"]
    rows = [[title, str(report.n_samples)]
            + [f"{report.acc[k]:.4f}" for k in ks] + [f"{report.mrr:.4f}"]]
    for th, stratum in sorted(report.by_threshold.items()):
        label = f"H>={th:g}"
        if stratum.metrics is None:
            rows.append([label, "0"] + ["-"] * (len(ks) + 1))
        else:
            rows.append([label, str(stratum.n_subset)]
                        + [f"{stratum.metrics.acc[k]:.4f}" for k in ks]
                        + [f"{stratum.metrics.mrr:.4f}"])
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


def report_csv_rows(report: EvalReport) -> list[tuple[str, str, str]]:
    """(subset, metric, value) rows for plotting."""
    rows = []
    for k in sorted(report.acc):
        rows.append(("overall", f"acc@{k}", repr(report.acc[k])))
    rows.append(("overall", "mrr", repr(report.mrr)))
    for th, stratum in sorted(report.by_threshold.items()):
        label = f"threshold_{th:g}"
        rows.append((label, "n_subset", str(stratum.n_subset)))
        if stratum.metrics is not None:
            for k in sorted(stratum.metrics.acc):
                rows.append((label, f"acc@{k}", repr(stratum.metrics.acc[k])))
            rows.append((label, "mrr", repr(stratum.metrics.mrr)))
    return rows


def write_report(report: EvalReport, base_path, title: str = "overall") -> None:
    """Emit <base>.json, <base>.txt and <base>.csv next to each other,
    creating the parent directory; the base is taken verbatim, so a dot in
    it is kept."""
    base = str(base_path)
    write_text(base + ".json", json.dumps(report_to_dict(report), indent=2) + "\n")
    write_text(base + ".txt", format_report_table(report, title) + "\n")
    write_text(base + ".csv", "subset,metric,value\n" + "".join(
        ",".join(row) + "\n" for row in report_csv_rows(report)))
