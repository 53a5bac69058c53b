"""Trajectory data model: check-ins, dwell-filtered activity sequences,
sliding windows and chronological per-user splits, plus JSONL dataset I/O.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "CheckIn", "ActivitySequence", "WindowSample", "Split", "Dataset",
    "hour_slot", "extract_activity_sequence", "make_windows", "split_samples",
    "train_location_region", "prepare_dataset",
    "write_checkins", "read_checkins", "manifest_path", "build_manifest",
]

SECONDS_PER_HOUR = 3600
SECONDS_PER_DAY = 86400


@dataclass(frozen=True)
class CheckIn:
    user: int
    loc: int
    t: int  # seconds


@dataclass
class ActivitySequence:
    """Dwell-filtered location visits of one user, chronological."""

    user: int
    locations: list[int]
    slots: list[int]
    timestamps: list[int]

    def __len__(self) -> int:
        return len(self.locations)


@dataclass(frozen=True)
class WindowSample:
    """One supervised instance cut from an activity sequence.

    seq_pos is the target's index within the user's full activity sequence;
    it identifies the trajectory prefix for entropy stratification and the
    train-region boundary for the topic/Markov fits.
    """

    user: int
    context_locations: tuple[int, ...]
    context_slots: tuple[int, ...]
    target_location: int
    target_slot: int
    seq_pos: int


@dataclass
class Split:
    train: list[WindowSample] = field(default_factory=list)
    val: list[WindowSample] = field(default_factory=list)
    test: list[WindowSample] = field(default_factory=list)


@dataclass
class Dataset:
    sequences: dict[int, ActivitySequence]
    split: Split
    n_users: int        # id-space size (max user id + 1 over the raw file)
    n_locations: int    # id-space size (max location id + 1)


def hour_slot(t: int) -> int:
    """Hour-of-day slot in a fixed UTC-like convention."""
    return (t // SECONDS_PER_HOUR) % 24


def extract_activity_sequence(checkins: list[CheckIn],
                              theta: int = 3600) -> ActivitySequence:
    """Collapse consecutive same-location runs; keep runs dwelling >= theta.

    A kept run is represented by its first timestamp (and that timestamp's
    hour slot). Input must be one user's check-ins sorted by time.
    """
    if not checkins:
        raise ValueError("cannot extract an activity sequence from no check-ins")
    user = checkins[0].user
    locations: list[int] = []
    slots: list[int] = []
    timestamps: list[int] = []
    run_loc = checkins[0].loc
    run_start = checkins[0].t
    run_end = checkins[0].t
    prev_t = checkins[0].t

    def close_run():
        if run_end - run_start >= theta:
            locations.append(run_loc)
            slots.append(hour_slot(run_start))
            timestamps.append(run_start)

    for c in checkins[1:]:
        if c.user != user:
            raise ValueError("check-ins from multiple users passed to extraction")
        if c.t < prev_t:
            raise ValueError("check-ins must be sorted by timestamp")
        prev_t = c.t
        if c.loc == run_loc:
            run_end = c.t
        else:
            close_run()
            run_loc, run_start, run_end = c.loc, c.t, c.t
    close_run()
    return ActivitySequence(user=user, locations=locations, slots=slots,
                            timestamps=timestamps)


def make_windows(seq: ActivitySequence, window_len: int = 20,
                 stride: int = 1) -> list[WindowSample]:
    """Fixed-length windows: first window_len-1 records are context, the
    last is the target. Sequences shorter than window_len yield nothing."""
    if window_len < 2:
        raise ValueError(f"window_len must be >= 2, got {window_len}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    samples = []
    for start in range(0, len(seq) - window_len + 1, stride):
        end = start + window_len - 1
        samples.append(WindowSample(
            user=seq.user,
            context_locations=tuple(seq.locations[start:end]),
            context_slots=tuple(seq.slots[start:end]),
            target_location=seq.locations[end],
            target_slot=seq.slots[end],
            seq_pos=end,
        ))
    return samples


def split_samples(samples_by_user: dict[int, list[WindowSample]],
                  ratios: tuple[int, int, int] = (7, 1, 2)) -> Split:
    """Chronological per-user split; train/val sizes floor, remainder to test."""
    total = sum(ratios)
    split = Split()
    for user in sorted(samples_by_user):
        samples = samples_by_user[user]
        n = len(samples)
        n_train = n * ratios[0] // total
        n_val = n * ratios[1] // total
        split.train.extend(samples[:n_train])
        split.val.extend(samples[n_train:n_train + n_val])
        split.test.extend(samples[n_train + n_val:])
    return split


def train_location_region(sequences: dict[int, ActivitySequence],
                          split: Split) -> dict[int, list[int]]:
    """Per-user location lists covering exactly the training windows.

    The region runs through the last training-window target, i.e. everything
    known at the end of training; validation/test targets never leak in.
    Users without training samples map to empty lists.
    """
    last_pos: dict[int, int] = {}
    for s in split.train:
        last_pos[s.user] = max(last_pos.get(s.user, -1), s.seq_pos)
    region = {}
    for user, seq in sequences.items():
        bound = last_pos.get(user, -1)
        region[user] = list(seq.locations[:bound + 1])
    return region


def prepare_dataset(checkins: list[CheckIn], theta: int = 3600,
                    window_len: int = 20, stride: int = 1,
                    min_records: int = 100) -> Dataset:
    """Full preprocessing: extraction, record-count filter, windows, split."""
    if not checkins:
        raise ValueError("empty check-in list")
    by_user: dict[int, list[CheckIn]] = {}
    max_user = 0
    max_loc = 0
    for c in checkins:
        by_user.setdefault(c.user, []).append(c)
        max_user = max(max_user, c.user)
        max_loc = max(max_loc, c.loc)
    sequences: dict[int, ActivitySequence] = {}
    samples_by_user: dict[int, list[WindowSample]] = {}
    for user in sorted(by_user):
        recs = sorted(by_user[user], key=lambda c: c.t)
        seq = extract_activity_sequence(recs, theta=theta)
        if len(seq) < min_records:
            continue
        sequences[user] = seq
        samples_by_user[user] = make_windows(seq, window_len=window_len,
                                             stride=stride)
    split = split_samples(samples_by_user)
    return Dataset(sequences=sequences, split=split,
                   n_users=max_user + 1, n_locations=max_loc + 1)


# ---------------------------------------------------------------------------
# dataset file format: JSON Lines sorted by (user, t) plus a sidecar manifest

def manifest_path(dataset_path: str | Path) -> Path:
    return Path(str(dataset_path) + ".manifest.json")


def build_manifest(checkins: list[CheckIn]) -> dict:
    users = {c.user for c in checkins}
    locs = {c.loc for c in checkins}
    if checkins:
        t_min = min(c.t for c in checkins)
        t_max = max(c.t for c in checkins)
        days = max(1, math.ceil((t_max - t_min + 1) / SECONDS_PER_DAY))
    else:
        days = 0
    return {
        "users": len(users),
        "checkins": len(checkins),
        "locations": len(locs),
        "duration_days": days,
    }


def write_checkins(path: str | Path, checkins: list[CheckIn]) -> dict:
    """Write sorted JSONL plus the manifest sidecar; returns the manifest."""
    ordered = sorted(checkins, key=lambda c: (c.user, c.t))
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for c in ordered:
            fh.write(json.dumps({"user": c.user, "loc": c.loc, "t": c.t},
                                separators=(",", ":")))
            fh.write("\n")
    manifest = build_manifest(ordered)
    with manifest_path(path).open("w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return manifest


def read_checkins(path: str | Path) -> list[CheckIn]:
    out = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            if not isinstance(row, dict) or set(row) != {"user", "loc", "t"}:
                raise ValueError(
                    f"{path}:{line_no}: record keys must be exactly user/loc/t")
            for key, value in row.items():
                # bool is an int subclass; JSON true/false is not an id
                if type(value) is not int:
                    raise ValueError(
                        f"{path}:{line_no}: {key} must be an integer, got {value!r}")
            for key in ("user", "loc"):
                if row[key] < 0:
                    raise ValueError(
                        f"{path}:{line_no}: {key} must be non-negative, got {row[key]}")
            out.append(CheckIn(user=row["user"], loc=row["loc"], t=row["t"]))
    return out
