"""Trajectory data model as int64 arrays: check-ins, dwell-filtered activity
sequences, sliding windows and chronological per-user splits, plus JSONL
dataset I/O and write_text, through which every text output is written.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

__all__ = [
    "N_SLOTS", "ActivitySequence", "WindowSample", "Windows",
    "Split", "Dataset", "hour_slot", "train_location_region", "prepare_dataset",
    "write_checkins", "read_checkins", "build_manifest", "write_text",
]

SECONDS_PER_HOUR = 3600
SECONDS_PER_DAY = 86400
N_SLOTS = 24  # hour-of-day time slots
# |value| bound of every check-in field, so that the int64 differences of
# two timestamps cannot wrap
VALUE_BOUND = 2 ** 62
# the largest window_len whose context rows numpy can build: an int64 array
# at most 2**60 - 1 wide, even with no rows (Windows.gather)
WINDOW_LEN_BOUND = 2 ** 60


@dataclass
class ActivitySequence:
    """Dwell-filtered location visits of one user, chronological."""

    user: int
    locations: np.ndarray  # int64
    slots: np.ndarray      # int64

    def __len__(self) -> int:
        return len(self.locations)


class WindowSample(NamedTuple):
    """One supervised instance cut from an activity sequence (a Windows row).

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


@dataclass(eq=False)
class Windows:
    """Windows as columns: window i's target is record end[i] of the
    concatenated activity arrays `locations`/`slots`, and its context the
    context_len records before it. Slicing or indexing with an index array
    gives the selected windows; iterating yields WindowSample rows."""

    users: np.ndarray      # [N] int64
    seq_pos: np.ndarray    # [N] int64
    end: np.ndarray        # [N] int64, offsets into locations/slots
    locations: np.ndarray  # every kept user's activity locations, concatenated
    slots: np.ndarray
    context_len: int

    def __len__(self) -> int:
        return len(self.users)

    def __getitem__(self, rows) -> Windows:
        return Windows(self.users[rows], self.seq_pos[rows], self.end[rows],
                       self.locations, self.slots, self.context_len)

    def __iter__(self):
        ctx_locs, ctx_slots, target_locs, target_slots = self.gather()
        return map(WindowSample._make, zip(
            self.users.tolist(), map(tuple, ctx_locs.tolist()),
            map(tuple, ctx_slots.tolist()), target_locs.tolist(),
            target_slots.tolist(), self.seq_pos.tolist()))

    def gather(self) -> tuple[np.ndarray, ...]:
        """The [N, context_len] context locations and slots, then the [N]
        target locations and slots. An empty Windows builds no row of
        context_len offsets, so it allocates nothing at a huge context_len
        (up to WINDOW_LEN_BOUND - 1)."""
        if len(self):
            rows = self.end[:, None] + np.arange(-self.context_len, 0)
        else:
            rows = np.empty((0, self.context_len), dtype=np.int64)
        return (self.locations[rows], self.slots[rows],
                self.locations[self.end], self.slots[self.end])


@dataclass
class Split:
    train: Windows
    val: Windows
    test: Windows


@dataclass
class Dataset:
    sequences: dict[int, ActivitySequence]  # views of the split's arrays
    split: Split
    n_users: int        # id-space size (max user id + 1 over the raw file)
    n_locations: int    # id-space size (max location id + 1)


def hour_slot(t):
    """Hour-of-day slot in a fixed UTC-like convention, also of arrays."""
    return (t // SECONDS_PER_HOUR) % N_SLOTS


def train_location_region(sequences: dict[int, ActivitySequence],
                          split: Split) -> dict[int, list[int]]:
    """Per-user location lists covering exactly the training windows.

    The region runs through the last training-window target, i.e. everything
    known at the end of training; validation/test targets never leak in.
    Users without training samples map to empty lists.
    """
    users, pos = split.train.users, split.train.seq_pos
    order = np.lexsort((pos, users))  # a user's last entry is its largest
    last_pos = dict(zip(users[order].tolist(), pos[order].tolist()))
    return {user: seq.locations[:last_pos.get(user, -1) + 1].tolist()
            for user, seq in sequences.items()}


def prepare_dataset(checkins, theta: int = 3600, window_len: int = 20,
                    stride: int = 1, min_records: int = 100) -> Dataset:
    """Preprocessing of an [N, 3] (user, loc, t) array: each user's
    check-ins sorted stably by time; consecutive same-location runs
    collapsed, and those dwelling >= theta kept as their location and the
    hour slot of their first time; users with fewer than min_records kept
    runs dropped; a window ending at every stride-th record from the
    window_len-th; a chronological 7:1:2 per-user split, train and val
    sizes floored. window_len and stride have the config's ranges."""
    if window_len < 2:
        raise ValueError(f"window_len must be >= 2, got {window_len}")
    if window_len > WINDOW_LEN_BOUND:
        raise ValueError(f"window_len must be <= {WINDOW_LEN_BOUND}, got {window_len}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if stride > VALUE_BOUND:
        raise ValueError(f"stride must be <= {VALUE_BOUND}, got {stride}")
    records = np.asarray(checkins, dtype=np.int64).reshape(-1, 3)
    if not len(records):
        raise ValueError("empty check-in list")
    user, loc, t = records[np.lexsort((records[:, 2], records[:, 0]))].T
    new_user = np.append(True, user[1:] != user[:-1])
    starts = np.flatnonzero(new_user | np.append(True, loc[1:] != loc[:-1]))
    ends = np.append(starts[1:], len(user)) - 1
    keep = starts[t[ends] - t[starts] >= theta]
    # per distinct user, in id order: its kept runs, then the users kept
    user_ids = user[new_user]
    lengths = np.bincount(np.cumsum(new_user)[keep] - 1, minlength=len(user_ids))
    kept = lengths >= min_records
    in_kept = np.repeat(kept, lengths)  # per kept run: is its user kept
    locations, slots = loc[keep][in_kept], hour_slot(t[keep][in_kept])
    user_ids, lengths = user_ids[kept], lengths[kept]
    offsets = np.cumsum(lengths) - lengths
    sequences = {u: ActivitySequence(u, locations[o:o + n], slots[o:o + n])
                 for u, o, n in zip(user_ids.tolist(), offsets.tolist(),
                                    lengths.tolist())}
    # window j of a user targets its record window_len - 1 + j * stride;
    # its first counts * 7 // 10 windows train, the next counts // 10 validate
    counts = np.maximum(lengths - window_len + stride, 0) // stride
    owner = np.repeat(np.arange(len(counts)), counts)
    j = np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]
    seq_pos = window_len - 1 + j * stride
    n_train, n_val = (counts * 7 // 10)[owner], (counts // 10)[owner]
    part = (j >= n_train).astype(np.int8) + (j >= n_train + n_val)
    w_users, w_end = user_ids[owner], offsets[owner] + seq_pos
    split = Split(*(Windows(w_users[part == p], seq_pos[part == p],
                            w_end[part == p], locations, slots, window_len - 1)
                    for p in range(3)))
    return Dataset(sequences=sequences, split=split,
                   n_users=max(0, int(user.max())) + 1,
                   n_locations=max(0, int(loc.max())) + 1)


# ---------------------------------------------------------------------------
# file I/O: every text file a command writes, and the JSON Lines dataset
# format, sorted by (user, t)

def write_text(path: str | Path, text: str) -> None:
    """Write text to path as UTF-8, creating the parent directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(text)


def build_manifest(checkins: np.ndarray) -> dict:
    """The counts of an [N, 3] (user, loc, t) array: its distinct users and
    locations, its rows, and the days its times span."""
    user, loc, t = checkins.T
    days = max(1, math.ceil((int(t.max()) - int(t.min()) + 1) / SECONDS_PER_DAY)) if len(t) else 0
    return {"users": len(np.unique(user)), "checkins": len(checkins),
            "locations": len(np.unique(loc)), "duration_days": days}


def write_checkins(path: str | Path, checkins: np.ndarray) -> dict:
    """Write an [N, 3] (user, loc, t) array as JSONL sorted stably by
    (user, t), creating the parent directory; returns its counts
    (build_manifest)."""
    ordered = checkins[np.lexsort((checkins[:, 2], checkins[:, 0]))]
    write_text(path, "".join('{"user":%d,"loc":%d,"t":%d}\n' % (u, l, t)
                             for u, l, t in ordered.tolist()))
    return build_manifest(ordered)


# Lines in write_checkins' form. A value of at most 18 digits, with no
# leading zero, is under VALUE_BOUND, so the form needs no bound check.
# _NUMBERS_ONLY is the bytes.translate table and deletions that leave such
# a file's numbers, separated by spaces.
_INT = rb"(?!0[0-9])[0-9]{1,18}"
_WRITTEN_FORM = re.compile(
    rb'(?:\{"user":%s,"loc":%s,"t":-?%s\}\n)*' % (_INT, _INT, _INT))
_NUMBERS_ONLY = bytes.maketrans(b",\n", b"  "), b'{}"userloct:'


def _in_written_form(raw: bytes, chunk: int = 1 << 16) -> bool:
    """Whether raw is lines in write_checkins' form, matched in pieces of
    about chunk bytes cut after a newline: the repeat keeps a backtracking
    entry per matched line, so it must not span a whole file. On a mismatch
    it gives back only digits, each refused at once, so it stays linear."""
    start = 0
    while start < len(raw):
        end = raw.find(b"\n", start + chunk) + 1 or len(raw)
        if not _WRITTEN_FORM.fullmatch(raw, start, end):
            return False
        start = end
    return True


def _json_object(pairs: list[tuple]) -> dict | list[tuple]:
    """A JSON object as a dict, or as its (key, value) pairs if a key repeats."""
    return dict(pairs) if len(dict(pairs)) == len(pairs) else pairs


def _parse_record(path: str | Path, line_no: int, line: str) -> tuple[int, int, int]:
    """One stripped line as (user, loc, t), checked in the order a reader
    meets the faults: JSON syntax and integers too long to convert, the key
    set (each key once), each value's type in file order, the user and loc
    signs, then each value's bound."""
    try:
        row = json.loads(line, object_pairs_hook=_json_object)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{line_no}: record must be a JSON object "
                         f"({exc.msg} at column {exc.colno})") from None
    except ValueError as exc:  # an integer longer than int() converts
        raise ValueError(f"{path}:{line_no}: values must be within ±2**62 "
                         f"({str(exc).split(';')[0]})") from None
    if not isinstance(row, dict) or set(row) != {"user", "loc", "t"}:
        raise ValueError(f"{path}:{line_no}: record keys must be exactly user/loc/t, each once")
    for key, value in row.items():
        # bool is an int subclass; JSON true/false is not an id
        if type(value) is not int:
            raise ValueError(
                f"{path}:{line_no}: {key} must be an integer, got {value!r}")
    for key in ("user", "loc"):
        if row[key] < 0:
            raise ValueError(
                f"{path}:{line_no}: {key} must be non-negative, got {row[key]}")
    for key in ("user", "loc", "t"):
        if abs(row[key]) >= VALUE_BOUND:
            raise ValueError(f"{path}:{line_no}: {key} must be within ±2**62")
    return row["user"], row["loc"], row["t"]


def read_checkins(path: str | Path) -> np.ndarray:
    """Read a JSONL check-in file as an [N, 3] int64 array of (user, loc, t)
    rows in file order, skipping blank lines.

    A file of write_checkins' lines only is checked by one regular
    expression (_in_written_form) and its numbers parsed in one numpy call.
    Any other file is split at LF, CRLF or a lone CR, as text mode splits
    it, and each line decoded as UTF-8 and parsed by _parse_record; the
    ValueError names <path>:<line> and the first fault.
    """
    raw = Path(path).read_bytes()
    if _in_written_form(raw):
        return np.fromstring(raw.translate(*_NUMBERS_ONLY), dtype=np.int64,
                             sep=" ").reshape(-1, 3)
    out: list[int] = []
    for line_no, line in enumerate(raw.splitlines(), 1):
        try:
            text = line.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}:{line_no}: record must be UTF-8 text "
                             f"({exc.reason} at byte {exc.start + 1})") from None
        if text:
            out += _parse_record(path, line_no, text)
    return np.array(out, dtype=np.int64).reshape(-1, 3)
