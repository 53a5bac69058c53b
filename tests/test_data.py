"""Activity extraction, windowing, splits, dataset I/O, synthetic generator."""

import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest

from canoe import data
from canoe.cli import main
from canoe.config import load_config
from canoe.data import (ActivitySequence, Split, WindowSample, build_manifest,
                        hour_slot, prepare_dataset, read_checkins,
                        train_location_region, write_checkins)
from canoe.evaluation import prefix_entropy
from canoe.synthetic import SyntheticConfig, generate_synthetic
from canoe.training import sample_entropies
from tests_common import (as_windows, extract_activity_sequence, make_windows,
                          oracle_dataset, split_samples, write_checkins_sorted)

H = 3600


def brute_force_activity_scan(checkins, theta):
    """Independent run-length scanner used as the extraction oracle."""
    out = []
    i = 0
    while i < len(checkins):
        j = i
        while j + 1 < len(checkins) and checkins[j + 1][1] == checkins[i][1]:
            j += 1
        if checkins[j][2] - checkins[i][2] >= theta:
            out.append((checkins[i][1], hour_slot(checkins[i][2])))
        i = j + 1
    return out


class TestExtraction:
    def test_threshold_filters_short_visit(self):
        cs = [(0, 5, 9 * H), (0, 5, 10 * H + 1800),
              (0, 7, 10 * H + 2000), (0, 7, 10 * H + 2600),
              (0, 5, 11 * H), (0, 5, 13 * H)]
        seq = extract_activity_sequence(cs, theta=3600)
        assert seq.locations == [5, 5]
        assert seq.slots == [9, 11]

    def test_single_checkin_has_zero_dwell(self):
        seq = extract_activity_sequence([(0, 3, 1000)], theta=3600)
        assert len(seq) == 0

    def test_theta_zero_keeps_everything(self):
        cs = [(0, 1, 0), (0, 2, 100)]
        seq = extract_activity_sequence(cs, theta=0)
        assert seq.locations == [1, 2]

    def test_unsorted_input_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            extract_activity_sequence([(0, 1, 100), (0, 1, 50)])

    def test_mixed_users_rejected(self):
        with pytest.raises(ValueError, match="multiple users"):
            extract_activity_sequence([(0, 1, 0), (1, 1, 10)])

    def test_random_streams_match_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = rng.integers(1, 25)
            t = np.cumsum(rng.integers(0, 5000, n))
            locs = rng.integers(0, 4, n)
            cs = [(0, int(l), int(tt)) for l, tt in zip(locs, t)]
            theta = int(rng.integers(0, 7000))
            seq = extract_activity_sequence(cs, theta=theta)
            oracle = brute_force_activity_scan(cs, theta)
            assert list(zip(seq.locations, seq.slots)) == oracle


class TestWindows:
    def _seq(self, n):
        return ActivitySequence(user=0, locations=list(range(n)),
                                slots=[i % 24 for i in range(n)])

    def test_exact_length_yields_one_sample(self):
        samples = make_windows(self._seq(20), window_len=20)
        assert len(samples) == 1
        assert len(samples[0].context_locations) == 19
        assert samples[0].target_location == 19
        assert samples[0].seq_pos == 19

    def test_length_25_yields_six(self):
        assert len(make_windows(self._seq(25), window_len=20)) == 6

    def test_below_window_yields_none(self):
        assert make_windows(self._seq(19), window_len=20) == []

    def test_stride_two(self):
        samples = make_windows(self._seq(25), window_len=20, stride=2)
        assert [s.seq_pos for s in samples] == [19, 21, 23]

    def test_window_len_floor(self):
        with pytest.raises(ValueError):
            make_windows(self._seq(5), window_len=1)


class TestSplit:
    def _samples(self, user, n):
        return [WindowSample(user, (0,), (0,), 1, 1, i) for i in range(n)]

    def test_ten_samples_split_7_1_2(self):
        split = split_samples({0: self._samples(0, 10)})
        assert (len(split.train), len(split.val), len(split.test)) == (7, 1, 2)

    def test_nine_samples_floor_rounding(self):
        split = split_samples({0: self._samples(0, 9)})
        assert (len(split.train), len(split.val), len(split.test)) == (6, 0, 3)

    def test_partition_and_chronology(self):
        rng = np.random.default_rng(0)
        by_user = {u: self._samples(u, int(rng.integers(1, 40)))
                   for u in range(6)}
        split = split_samples(by_user)
        total = sum(len(v) for v in by_user.values())
        assert len(split.train) + len(split.val) + len(split.test) == total
        seen = set()
        for part in (split.train, split.val, split.test):
            for s in part:
                key = (s.user, s.seq_pos)
                assert key not in seen
                seen.add(key)
        # chronology: max train pos < min test pos per user
        for u in by_user:
            train_pos = [s.seq_pos for s in split.train if s.user == u]
            test_pos = [s.seq_pos for s in split.test if s.user == u]
            if train_pos and test_pos:
                assert max(train_pos) < min(test_pos)


class TestTrainRegion:
    def test_region_covers_train_targets_only(self):
        seq = ActivitySequence(0, np.arange(30), np.zeros(30, dtype=np.int64))
        samples = make_windows(seq, window_len=10)
        split = split_samples({0: samples})
        region = train_location_region(
            {0: seq}, Split(*map(as_windows, (split.train, split.val, split.test))))
        last_train_target = max(s.seq_pos for s in split.train)
        assert region[0] == list(range(last_train_target + 1))
        for s in split.val + split.test:
            assert s.seq_pos > last_train_target

    def test_user_without_train_samples_empty(self):
        seq = ActivitySequence(1, np.array([1, 2, 3]), np.array([0, 1, 2]))
        region = train_location_region({1: seq}, Split(*[as_windows([])] * 3))
        assert region[1] == []


class TestDatasetIO:
    def test_roundtrip_exact(self, tmp_path, rng):
        cs = np.stack([rng.integers(0, 5, 50), rng.integers(0, 9, 50),
                       rng.integers(0, 10 ** 6, 50)], axis=1)
        path = tmp_path / "data.jsonl"
        manifest = write_checkins(path, cs)
        back = read_checkins(path).tolist()
        assert sorted(back, key=lambda c: (c[0], c[2])) == \
            sorted(cs.tolist(), key=lambda c: (c[0], c[2]))
        assert manifest == build_manifest(cs)
        # the counts are returned, not written beside the data
        assert [p.name for p in tmp_path.iterdir()] == ["data.jsonl"]

    def test_lines_sorted_by_user_then_time(self, tmp_path):
        cs = np.array([(1, 0, 50), (0, 0, 99), (0, 1, 10)])
        path = tmp_path / "d.jsonl"
        write_checkins(path, cs)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        keys = [(r["user"], r["t"]) for r in rows]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("rows", [
        # few distinct (user, t) keys, so most rows tie
        np.stack([np.random.default_rng(4).integers(0, 3, 300),
                  np.arange(300), np.random.default_rng(5).integers(-2, 3, 300)],
                 axis=1),
        np.array([[2 ** 62 - 1, 0, 2 ** 62 - 1], [0, 2 ** 62 - 1, -(2 ** 62 - 1)],
                  [0, 5, -(2 ** 62 - 1)], [2 ** 62 - 1, 1, 2 ** 62 - 1]]),
        np.empty((0, 3), dtype=np.int64),
    ], ids=["ties", "bounds", "empty"])
    def test_equal_keys_keep_their_order(self, tmp_path, rows):
        write_checkins(tmp_path / "a.jsonl", rows)
        write_checkins_sorted(tmp_path / "b.jsonl", rows)
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"user": 1, "loc": 2, "t": 3, "x": 4}\n')
        with pytest.raises(ValueError, match="keys"):
            read_checkins(path)

    @pytest.mark.parametrize("line, field", [
        ('{"user": 1, "loc": 2, "t": 17.9}', "t"),
        ('{"user": true, "loc": 2, "t": 3}', "user"),
        ('{"user": 1, "loc": "2", "t": 3}', "loc"),
        ('{"user": 1, "loc": 2.0, "t": 3}', "loc"),
        ('{"user": 1, "loc": -3, "t": 3}', "loc"),
        ('{"user": -1, "loc": 2, "t": 3}', "user"),
        ('{"user": 1, "loc": 2, "t": 3', "record"),
    ])
    def test_bad_values_rejected_with_line(self, tmp_path, line, field):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"user": 0, "loc": 0, "t": 0}\n' + line + "\n")
        with pytest.raises(ValueError, match=rf"bad.jsonl:2: {field} must be"):
            read_checkins(path)

    @pytest.mark.parametrize("line", [
        '{"user":0,"loc":1,"t":5,"user":3}', '{"t": 5, "loc": 1, "user": 0, "t": 5}',
    ])
    def test_repeated_key_rejected(self, tmp_path, capsys, line):
        path = tmp_path / "dup.jsonl"
        path.write_text('{"user":0,"loc":0,"t":0}\n' + line + "\n")
        with pytest.raises(ValueError) as info:
            read_checkins(path)
        assert str(info.value) == (f"{path}:2: record keys must be exactly "
                                   "user/loc/t, each once")
        assert main(["preprocess", "--data", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {info.value}\n"

    @pytest.mark.parametrize("ends", [(b"\n",), (b"\r\n",), (b"\r",),
                                      (b"\r", b"\r\n", b"\n", b"\n\r")],
                             ids=["lf", "crlf", "cr", "mixed"])
    def test_line_that_is_not_utf8_is_named(self, tmp_path, capsys, ends):
        lines = [b'{"user": 0, "loc": 0, "t": 0}', b"", b"  ",
                 b'{"user": 0, "loc": 1, "t": 5}', b'{"user": 0, "loc": 2, "t": 9}',
                 b'{"user": 1, "loc": 2, "t": 9, "x": "\xff"}', b'{"user": 2']
        path = tmp_path / "latin.jsonl"
        path.write_bytes(b"".join(line + ends[i % len(ends)]
                                  for i, line in enumerate(lines)))
        with path.open(encoding="latin-1") as fh:  # text mode's line numbers
            line_no = next(i for i, line in enumerate(fh, 1) if "\xff" in line)
        with pytest.raises(ValueError) as info:
            read_checkins(path)
        assert str(info.value) == (f"{path}:{line_no}: record must be UTF-8 text "
                                   "(invalid start byte at byte 37)")
        assert main(["preprocess", "--data", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {info.value}\n"

    def test_layout_does_not_change_records(self, tmp_path):
        rows = [(3, 1, 500), (0, 2, 70), (3, 0, 20), (0, 2, 70), (1, 4, 9)]
        lines = [json.dumps({"user": u, "loc": l, "t": t}) for u, l, t in rows]
        clean = tmp_path / "clean.jsonl"
        clean.write_text("".join(line + "\n" for line in lines))
        messy = tmp_path / "messy.jsonl"
        # CRLF endings, whitespace-only lines, padding, no final newline
        messy.write_bytes(("  \r\n" + "\r\n\t \r\n".join(lines[:3]) + "\r\n"
                           + " " + lines[3] + " \n\n" + lines[4]).encode())
        want = [list(row) for row in rows]
        assert read_checkins(clean).tolist() == want
        assert read_checkins(messy).tolist() == want

    @pytest.mark.parametrize("line, message", [
        ('{"user": 1, "t": 2.5, "loc": "x"}', "t must be an integer, got 2.5"),
        ('{"loc": null, "user": 1.0, "t": 3}', "loc must be an integer, got None"),
        ('{"user": -1, "loc": -2, "t": 3}', "user must be non-negative, got -1"),
        ('{"loc": -2, "user": -1, "t": 3}', "user must be non-negative, got -1"),
        ('{"user": 1, "loc": -2, "t": -3}', "loc must be non-negative, got -2"),
    ])
    def test_first_fault_is_named(self, tmp_path, line, message):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"user": 0, "loc": 0, "t": 0}\n\n' + line + "\n")
        with pytest.raises(ValueError) as info:
            read_checkins(path)
        assert str(info.value) == f"{path}:3: {message}"

    def test_layouts_read_to_one_array(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(21)
        rows = np.stack([rng.integers(0, 9, 300), rng.integers(0, 10 ** 17, 300),
                         rng.integers(-10 ** 17, 10 ** 17, 300)], axis=1).tolist()
        written = ['{"user":%d,"loc":%d,"t":%d}' % tuple(r) for r in rows]
        layouts = {
            "written": "".join(line + "\n" for line in written),
            "spaced": "".join('{"t": %d, "user": %d, "loc": %d}\n' % (t, u, l)
                              for u, l, t in rows),
            "crlf": "\r\n\r\n".join(written) + "\r\n \r\n",
            "unterminated": "\n".join(written),
        }
        for name, text in layouts.items():
            (tmp_path / name).write_bytes(text.encode())
        want = read_checkins(tmp_path / "written")
        assert want.dtype == np.int64 and want.tolist() == rows
        # only write_checkins' form skips the per-line reader
        monkeypatch.setattr("canoe.data._parse_record", None)
        assert read_checkins(tmp_path / "written").tolist() == rows
        monkeypatch.undo()
        for name in ("spaced", "crlf", "unterminated"):
            np.testing.assert_array_equal(read_checkins(tmp_path / name), want)

    def test_bad_record_deep_in_a_written_file_is_named(self, tmp_path):
        lines = ['{"user":%d,"loc":%d,"t":%d}\n' % (i // 100, i % 7, i * 60)
                 for i in range(1500)]
        lines[999] = '{"user":9,"loc":-2,"t":59940}\n'
        path = tmp_path / "d.jsonl"
        path.write_text("".join(lines))
        with pytest.raises(ValueError) as info:
            read_checkins(path)
        assert str(info.value) == f"{path}:1000: loc must be non-negative, got -2"

    @pytest.mark.parametrize("key, value", [
        ("t", 10 ** 30), ("t", 2 ** 62), ("t", -2 ** 62), ("user", 2 ** 62),
        ("loc", 2 ** 63 + 5),
    ])
    def test_values_beyond_the_bound_rejected(self, tmp_path, capsys, key, value):
        row = {"user": 1, "loc": 2, "t": 3, key: value}
        path = tmp_path / "big.jsonl"  # in write_checkins' form but for the size
        path.write_text('{"user":0,"loc":0,"t":0}\n'
                        + json.dumps(row, separators=(",", ":")) + "\n")
        with pytest.raises(ValueError) as info:
            read_checkins(path)
        assert str(info.value) == f"{path}:2: {key} must be within ±2**62"
        assert main(["preprocess", "--data", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {info.value}\n"

    def test_written_form_check_compiles_before_python_3_11(self):
        # no possessive repeat and no atomic group, which need Python 3.11
        assert not re.search(rb"[*+?}]\+|\(\?>", data._WRITTEN_FORM.pattern)

    @pytest.mark.parametrize("chunk", [1, 40, 100, 1 << 16])
    def test_written_form_checked_in_chunks_as_a_whole(self, chunk):
        lines = [b'{"user":%d,"loc":%d,"t":%d}\n' % (i, i * 7, 60 * i - 900)
                 for i in range(60)]
        raw = b"".join(lines)
        texts = [raw, b"", raw[:-1], raw + b"\n", raw.replace(b"\n", b"\r\n", 1)]
        texts += [raw[:i] + b" " + raw[i:] for i in range(0, len(raw), 37)]
        texts += [raw[:i] + raw[i + 1:] for i in range(3, len(raw), 41)]
        for text in texts:
            assert (data._in_written_form(text, chunk)
                    == bool(data._WRITTEN_FORM.fullmatch(text)))

    def test_written_form_read_holds_little_memory(self, tmp_path):
        # one match over the whole 1.2 MB would keep ~300 bytes per line
        raw = b"".join(b'{"user":%d,"loc":%d,"t":%d}\n' % (i // 400, i % 97, i)
                       for i in range(40_000))
        path = tmp_path / "big.jsonl"
        path.write_bytes(raw)
        tracemalloc.start()
        try:
            assert read_checkins(path).shape == (40_000, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * len(raw)

    @pytest.mark.parametrize("line, column", [
        ('{"user":01,"loc":0,"t":0}', 10), ('{"user":0,"loc":0,"t":-07}', 25),
    ])
    def test_leading_zero_is_a_json_error(self, tmp_path, line, column):
        path = tmp_path / "zero.jsonl"
        path.write_text('{"user":0,"loc":0,"t":0}\n' + line + "\n")
        with pytest.raises(ValueError) as info:
            read_checkins(path)
        assert str(info.value) == (f"{path}:2: record must be a JSON object "
                                   f"(Expecting ',' delimiter at column {column})")

    def test_values_inside_the_bound_read_exactly(self, tmp_path):
        rows = [[2 ** 62 - 1, 2 ** 62 - 1, -(2 ** 62 - 1)],
                [0, 10 ** 18, 2 ** 62 - 1]]  # 19 digits: the per-line reader
        path = tmp_path / "edge.jsonl"
        path.write_text("".join('{"user":%d,"loc":%d,"t":%d}\n' % tuple(r)
                                for r in rows))
        assert read_checkins(path).tolist() == rows

    def test_manifest_counts(self):
        cs = np.array([(0, 0, 0), (0, 1, 86400 * 3), (2, 0, 100)])
        m = build_manifest(cs)
        assert m == {"users": 2, "checkins": 3, "locations": 2,
                     "duration_days": 4}


class TestPrepareMatchesOracle:
    """prepare_dataset against the record-by-record oracle of tests_common."""

    @staticmethod
    def _stream(rng):
        """Check-ins of interleaved users in shuffled file order: runs of 1-3
        check-ins at one location, steps of 0 s (equal times), under and
        over an hour; user 9 has one check-in, so no run that dwells."""
        rows = [(9, 0, int(rng.integers(-H, H)))]
        for user in rng.permutation(8)[:rng.integers(1, 9)].tolist():
            t = int(rng.integers(-10 * H, 10 * H))
            for _ in range(int(rng.integers(0, 90))):
                loc = int(rng.integers(0, 5))
                for _ in range(int(rng.integers(1, 4))):
                    rows.append((user, loc, t))
                    t += int(rng.choice([0, 600, 1800, 3600, 7200]))
        return [rows[i] for i in rng.permutation(len(rows))]

    @pytest.mark.parametrize("window_len", [2, 20])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("min_records", [0, 1])
    @pytest.mark.parametrize("theta", [0, 3600])
    def test_random_streams(self, theta, min_records, stride, window_len):
        rng = np.random.default_rng([theta, min_records, stride, window_len])
        for _ in range(25):
            checkins = self._stream(rng)
            kw = dict(theta=theta, window_len=window_len, stride=stride,
                      min_records=min_records)
            got, want = prepare_dataset(checkins, **kw), oracle_dataset(checkins, **kw)
            assert (got.n_users, got.n_locations) == (want.n_users, want.n_locations)
            assert list(got.sequences) == list(want.sequences)
            for user, seq in got.sequences.items():
                assert seq.user == user
                assert seq.locations.tolist() == want.sequences[user].locations
                assert seq.slots.tolist() == want.sequences[user].slots
            for part in ("train", "val", "test"):
                windows = getattr(got.split, part)
                assert list(windows) == getattr(want.split, part)
                rows = rng.permutation(len(windows))
                assert list(windows[rows]) == [list(windows)[i] for i in rows]
                assert list(windows[::-2]) == list(windows)[::-2]
        assert 9 in want.sequences or min_records == 1

    def test_read_array_prepares_as_its_checkins(self, tmp_path):
        checkins = generate_synthetic(SyntheticConfig(
            seed=3, num_users=5, num_locations=12, days=6, p_explore=0.3))
        path = tmp_path / "d.jsonl"
        write_checkins(path, checkins)
        got = prepare_dataset(read_checkins(path), window_len=5, min_records=10)
        want = oracle_dataset(checkins, window_len=5, min_records=10)
        for part in ("train", "val", "test"):
            assert list(getattr(got.split, part)) == getattr(want.split, part)


class TestPrepareDataset:
    def test_min_records_filter(self):
        cfg = SyntheticConfig(seed=3, num_users=4, num_locations=10, days=4,
                              activities_per_day=5)
        checkins = generate_synthetic(cfg)
        ds_all = prepare_dataset(checkins, window_len=5, min_records=1)
        ds_none = prepare_dataset(checkins, window_len=5, min_records=1000)
        assert len(ds_all.sequences) == 4
        assert len(ds_none.sequences) == 0

    @pytest.mark.parametrize("kw, message", [
        (dict(window_len=1), "window_len must be >= 2, got 1"),
        (dict(window_len=0), "window_len must be >= 2, got 0"),
        (dict(stride=0), "stride must be >= 1, got 0"),
        (dict(window_len=data.WINDOW_LEN_BOUND + 1),
         f"window_len must be <= {2 ** 60}, got {2 ** 60 + 1}"),
        (dict(window_len=2 ** 63), f"window_len must be <= {2 ** 60}, got {2 ** 63}"),
        (dict(stride=data.VALUE_BOUND + 1),
         f"stride must be <= {2 ** 62}, got {2 ** 62 + 1}"),
        (dict(stride=2 ** 63), f"stride must be <= {2 ** 62}, got {2 ** 63}"),
    ])
    def test_window_len_and_stride_floors(self, kw, message):
        with pytest.raises(ValueError, match=message):
            prepare_dataset([(0, 0, 0), (0, 0, 7200)], **kw)

    # the config's ceiling on each: the window arithmetic stays within int64,
    # and every split gathers its context rows, empty ones included
    @pytest.mark.parametrize("key, ceiling", [("window_len", data.WINDOW_LEN_BOUND),
                                              ("stride", data.VALUE_BOUND)],
                             ids=["window_len", "stride"])
    def test_windows_at_the_config_ceiling(self, key, ceiling):
        d = load_config(None, {f"data.{key}": ceiling}).data
        checkins = generate_synthetic(SyntheticConfig(
            seed=3, num_users=5, num_locations=12, days=6, p_explore=0.3))
        kw = dict(window_len=d.window_len, stride=d.stride, min_records=10)
        got, want = prepare_dataset(checkins, **kw), oracle_dataset(checkins, **kw)
        for part in ("train", "val", "test"):
            windows, want_part = getattr(got.split, part), getattr(want.split, part)
            assert len(windows) == len(want_part)
            assert list(windows) == want_part
            ctx_locs, ctx_slots, target_locs, _ = windows.gather()
            assert ctx_locs.shape == ctx_slots.shape == (len(windows), d.window_len - 1)
            assert target_locs.tolist() == [w.target_location for w in want_part]
        assert len(want.split.test) == (5 if key == "stride" else 0)

    def test_id_space_covers_max_ids(self):
        cs = [(7, 33, 0), (7, 33, 7200)]
        ds = prepare_dataset(cs, window_len=2, min_records=0)
        assert ds.n_users == 8 and ds.n_locations == 34


class TestSampleEntropies:
    @pytest.mark.parametrize("stride", [1, 3])
    def test_equal_to_prefix_entropy_per_sample(self, stride):
        cfg = SyntheticConfig(seed=11, num_users=6, num_locations=25, days=12,
                              p_explore=0.3)
        ds = prepare_dataset(generate_synthetic(cfg), window_len=8,
                             stride=stride, min_records=20)
        for samples in (ds.split.train, ds.split.val, ds.split.test):
            assert samples
            want = [prefix_entropy(ds.sequences[s.user].locations[:s.seq_pos])
                    for s in samples]
            np.testing.assert_array_equal(sample_entropies(ds, samples), want)
            # in any sample order
            np.testing.assert_array_equal(
                sample_entropies(ds, samples[::-1]), want[::-1])
        assert 0.0 < min(want) < max(want) < 1.0

    def test_positions_outside_the_sequence_act_as_slices(self):
        seq = ActivitySequence(0, np.array([1, 2, 1, 3]), np.array([0, 1, 2, 3]))
        ds = prepare_dataset([(0, 0, 0)], min_records=1000)
        ds.sequences[0] = seq
        samples = [WindowSample(0, (), (), 0, 0, pos) for pos in (9, 2, -1)]
        want = [prefix_entropy(seq.locations[:pos]) for pos in (9, 2, -1)]
        np.testing.assert_array_equal(sample_entropies(ds, as_windows(samples)), want)
        with pytest.raises(ValueError, match="at least one element"):
            sample_entropies(ds, as_windows(
                samples + [WindowSample(0, (), (), 0, 0, 0)]))


class TestSyntheticGenerator:
    def test_determinism_byte_identical(self, tmp_path):
        cfg = SyntheticConfig(seed=5, num_users=6, num_locations=12, days=3)
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        write_checkins(a, generate_synthetic(cfg))
        write_checkins(b, generate_synthetic(cfg))
        assert hashlib.sha256(a.read_bytes()).hexdigest() == \
            hashlib.sha256(b.read_bytes()).hexdigest()

    def test_generated_bytes_and_counts_pinned(self, tmp_path):
        checkins = generate_synthetic(SyntheticConfig(
            seed=5, num_users=6, num_locations=12, days=3, p_explore=0.3))
        assert checkins.dtype == np.int64 and checkins.shape == (216, 3)
        path = tmp_path / "d.jsonl"
        assert write_checkins(path, checkins) == {
            "users": 6, "checkins": 216, "locations": 12, "duration_days": 3}
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "e5c6a761c321d9ff2e08c734ebb653f99b65564aa3d1ac75fb6a7a168f84723d")

    def test_pure_returner_is_slot_deterministic(self):
        cfg = SyntheticConfig(seed=9, num_users=5, num_locations=15, days=10,
                              p_explore=0.0)
        ds = prepare_dataset(generate_synthetic(cfg), min_records=1)
        for user, seq in ds.sequences.items():
            slot_to_loc = {}
            for loc, slot in zip(seq.locations, seq.slots):
                assert slot_to_loc.setdefault(slot, loc) == loc

    def test_pure_explorer_has_high_prefix_entropy(self):
        cfg = SyntheticConfig(seed=4, num_users=3, num_locations=40, days=20,
                              p_explore=1.0)
        ds = prepare_dataset(generate_synthetic(cfg), min_records=1)
        for user, seq in ds.sequences.items():
            assert prefix_entropy(seq.locations) > 0.9

    def test_explorer_never_visits_anchor_slots_mapping(self):
        # p_explore=1: far more distinct locations than the anchor count.
        cfg = SyntheticConfig(seed=4, num_users=2, num_locations=30, days=15,
                              p_explore=1.0, returner_anchor_count=3)
        ds = prepare_dataset(generate_synthetic(cfg), min_records=1)
        for seq in ds.sequences.values():
            assert len(set(seq.locations)) > 10

    def test_every_visit_survives_extraction(self):
        cfg = SyntheticConfig(seed=2, num_users=3, num_locations=10, days=5,
                              activities_per_day=6, p_explore=0.4)
        checkins = generate_synthetic(cfg)
        ds = prepare_dataset(checkins, min_records=1)
        # two check-ins per visit; runs may merge but never drop below
        # the per-day visit count minus possible merges
        for user, seq in ds.sequences.items():
            n_visits = np.count_nonzero(checkins[:, 0] == user) // 2
            assert len(seq) <= n_visits
            assert len(seq) >= n_visits - cfg.days - n_visits // 3

    def test_anchor_cycle_has_unique_successors(self):
        # activities_per_day divisible by anchors: successor map is a cycle.
        cfg = SyntheticConfig(seed=6, num_users=4, num_locations=20, days=8,
                              activities_per_day=6, returner_anchor_count=3)
        ds = prepare_dataset(generate_synthetic(cfg), min_records=1)
        for seq in ds.sequences.values():
            succ = {}
            for a, b in zip(seq.locations[:-1], seq.locations[1:]):
                assert succ.setdefault(a, b) == b

    def test_config_validation(self):
        with pytest.raises(ValueError, match="p_explore"):
            SyntheticConfig(seed=1, p_explore=1.5)
        with pytest.raises(ValueError, match="num_locations"):
            SyntheticConfig(seed=1, num_locations=3, returner_anchor_count=3)

    def test_times_stay_within_the_reader_bound(self):
        cfg = SyntheticConfig(seed=1, num_users=2, num_locations=4, days=2,
                              dwell_seconds=2 ** 62 - 2 * 86400)
        t = generate_synthetic(cfg)[:, 2]
        assert 0 <= t.min() and t.max() < 2 ** 62
        assert np.diff(t)[::2].tolist() == [cfg.dwell_seconds] * (len(t) // 2)
        with pytest.raises(ValueError, match=r"days \* 86400 \+ dwell_seconds "
                                             rf"must be <= {2 ** 62}, got {2 ** 62 + 1}"):
            SyntheticConfig(seed=1, days=2, dwell_seconds=2 ** 62 - 2 * 86400 + 1)

    def test_slot_entropy_zero_for_returners(self):
        # per-user, per-slot location entropy is zero when p_explore = 0
        cfg = SyntheticConfig(seed=8, num_users=4, num_locations=12, days=6)
        ds = prepare_dataset(generate_synthetic(cfg), min_records=1)
        for seq in ds.sequences.values():
            by_slot = {}
            for loc, slot in zip(seq.locations, seq.slots):
                by_slot.setdefault(slot, set()).add(loc)
            assert all(len(v) == 1 for v in by_slot.values())
