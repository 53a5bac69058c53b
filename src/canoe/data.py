"""Trajectory data model: check-ins, dwell-filtered activity sequences,
sliding windows and chronological per-user splits, plus JSONL dataset I/O
and write_text, through which every text output is written.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from json.decoder import JSONDecoder
from json.scanner import make_scanner
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

__all__ = [
    "N_SLOTS", "CheckIn", "ActivitySequence", "WindowSample", "Split", "Dataset",
    "hour_slot", "extract_activity_sequence", "make_windows", "split_samples",
    "train_location_region", "prepare_dataset",
    "write_checkins", "read_checkins", "build_manifest", "write_text",
]

SECONDS_PER_HOUR = 3600
SECONDS_PER_DAY = 86400
N_SLOTS = 24  # hour-of-day time slots
_LOC, _BY_TIME = itemgetter(1), itemgetter(2)  # CheckIn.loc and CheckIn.t


class CheckIn(NamedTuple):
    user: int
    loc: int
    t: int  # seconds


@dataclass
class ActivitySequence:
    """Dwell-filtered location visits of one user, chronological."""

    user: int
    locations: list[int]
    slots: list[int]

    def __len__(self) -> int:
        return len(self.locations)


class WindowSample(NamedTuple):
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
    return (t // SECONDS_PER_HOUR) % N_SLOTS


def extract_activity_sequence(checkins: list[CheckIn],
                              theta: int = 3600) -> ActivitySequence:
    """Collapse consecutive same-location runs; keep runs dwelling >= theta.

    A kept run is represented by its location and the hour slot of its first
    timestamp. Input must be one user's check-ins sorted by time.
    """
    if not checkins:
        raise ValueError("cannot extract an activity sequence from no check-ins")
    user, run_loc, run_start = checkins[0]
    run_end = prev_t = run_start
    locations: list[int] = []
    slots: list[int] = []

    def close_run():
        if run_end - run_start >= theta:
            locations.append(run_loc)
            slots.append(hour_slot(run_start))

    # the first check-in extends its own run by nothing
    for c_user, loc, t in checkins:
        if c_user != user:
            raise ValueError("check-ins from multiple users passed to extraction")
        if t < prev_t:
            raise ValueError("check-ins must be sorted by timestamp")
        prev_t = t
        if loc == run_loc:
            run_end = t
        else:
            close_run()
            run_loc, run_start, run_end = loc, t, t
    close_run()
    return ActivitySequence(user=user, locations=locations, slots=slots)


def make_windows(seq: ActivitySequence, window_len: int = 20,
                 stride: int = 1) -> list[WindowSample]:
    """Fixed-length windows: first window_len-1 records are context, the
    last is the target. Sequences shorter than window_len yield nothing."""
    if window_len < 2:
        raise ValueError(f"window_len must be >= 2, got {window_len}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    # slices of tuples are the context tuples themselves, with no list copy
    locations, slots, user = tuple(seq.locations), tuple(seq.slots), seq.user
    return [WindowSample(user, locations[end + 1 - window_len:end],
                         slots[end + 1 - window_len:end],
                         locations[end], slots[end], end)
            for end in range(window_len - 1, len(locations), stride)]


def split_samples(samples_by_user: dict[int, list[WindowSample]]) -> Split:
    """Chronological 7:1:2 per-user split; train/val sizes floor, remainder to test."""
    split = Split()
    for user in sorted(samples_by_user):
        samples = samples_by_user[user]
        n = len(samples)
        n_train, n_val = n * 7 // 10, n // 10
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
    for c in checkins:
        recs = by_user.get(c.user)
        if recs is None:
            by_user[c.user] = [c]
        else:
            recs.append(c)
    sequences: dict[int, ActivitySequence] = {}
    samples_by_user: dict[int, list[WindowSample]] = {}
    for user in sorted(by_user):
        recs = sorted(by_user[user], key=_BY_TIME)
        seq = extract_activity_sequence(recs, theta=theta)
        if len(seq) < min_records:
            continue
        sequences[user] = seq
        samples_by_user[user] = make_windows(seq, window_len=window_len,
                                             stride=stride)
    split = split_samples(samples_by_user)
    return Dataset(sequences=sequences, split=split,
                   n_users=max(0, max(by_user)) + 1,
                   n_locations=max(0, max(map(_LOC, checkins))) + 1)


# ---------------------------------------------------------------------------
# file I/O: every text file a command writes, and the JSON Lines dataset
# format, sorted by (user, t)

def write_text(path: str | Path, text: str) -> None:
    """Write text to path as UTF-8, creating the parent directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(text)


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
    """Write the check-ins as JSONL sorted by (user, t), creating the parent
    directory; returns their counts (build_manifest)."""
    ordered = sorted(checkins, key=lambda c: (c.user, c.t))
    write_text(path, "".join(
        json.dumps({"user": c.user, "loc": c.loc, "t": c.t},
                   separators=(",", ":")) + "\n"
        for c in ordered))
    return build_manifest(ordered)


def _parse_record(path: str | Path, line_no: int, line: str) -> CheckIn:
    """One stripped line as a CheckIn, checked in the order a reader meets
    the faults: JSON syntax, the key set, each value's type in file order,
    then the user and loc signs."""
    try:
        row = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{line_no}: record must be a JSON object "
                         f"({exc.msg} at column {exc.colno})") from None
    if not isinstance(row, dict) or set(row) != {"user", "loc", "t"}:
        raise ValueError(f"{path}:{line_no}: record keys must be exactly user/loc/t")
    for key, value in row.items():
        # bool is an int subclass; JSON true/false is not an id
        if type(value) is not int:
            raise ValueError(
                f"{path}:{line_no}: {key} must be an integer, got {value!r}")
    for key in ("user", "loc"):
        if row[key] < 0:
            raise ValueError(
                f"{path}:{line_no}: {key} must be non-negative, got {row[key]}")
    return CheckIn(row["user"], row["loc"], row["t"])


def read_checkins(path: str | Path) -> list[CheckIn]:
    """Read a JSONL check-in file in file order, skipping blank lines.

    Each line is parsed on its own. A well-formed record takes the fast
    path, json's C scanner and one combined check; any other line goes
    through _parse_record, whose ValueError names <path>:<line> and the
    first fault.
    """
    scan = make_scanner(JSONDecoder())
    out = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row, end = scan(line, 0)
            except (StopIteration, json.JSONDecodeError):
                row, end = None, -1
            if end == len(line) and type(row) is dict and len(row) == 3:
                user, loc, t = row.get("user"), row.get("loc"), row.get("t")
                if (type(user) is int and type(loc) is int and type(t) is int
                        and user >= 0 and loc >= 0):
                    out.append(CheckIn(user, loc, t))
                    continue
            out.append(_parse_record(path, line_no, line))
    return out
