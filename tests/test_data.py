"""Activity extraction, windowing, splits, dataset I/O, synthetic generator."""

import hashlib
import json

import numpy as np
import pytest

from canoe.data import (ActivitySequence, CheckIn, WindowSample,
                        build_manifest, extract_activity_sequence, hour_slot,
                        make_windows, prepare_dataset,
                        read_checkins, split_samples, train_location_region,
                        write_checkins)
from canoe.evaluation import prefix_entropy
from canoe.synthetic import SyntheticConfig, generate_synthetic
from canoe.training import sample_entropies

H = 3600


def brute_force_activity_scan(checkins, theta):
    """Independent run-length scanner used as the extraction oracle."""
    out = []
    i = 0
    while i < len(checkins):
        j = i
        while j + 1 < len(checkins) and checkins[j + 1].loc == checkins[i].loc:
            j += 1
        if checkins[j].t - checkins[i].t >= theta:
            out.append((checkins[i].loc, hour_slot(checkins[i].t)))
        i = j + 1
    return out


class TestExtraction:
    def test_threshold_filters_short_visit(self):
        cs = [CheckIn(0, 5, 9 * H), CheckIn(0, 5, 10 * H + 1800),
              CheckIn(0, 7, 10 * H + 2000), CheckIn(0, 7, 10 * H + 2600),
              CheckIn(0, 5, 11 * H), CheckIn(0, 5, 13 * H)]
        seq = extract_activity_sequence(cs, theta=3600)
        assert seq.locations == [5, 5]
        assert seq.slots == [9, 11]

    def test_single_checkin_has_zero_dwell(self):
        seq = extract_activity_sequence([CheckIn(0, 3, 1000)], theta=3600)
        assert len(seq) == 0

    def test_theta_zero_keeps_everything(self):
        cs = [CheckIn(0, 1, 0), CheckIn(0, 2, 100)]
        seq = extract_activity_sequence(cs, theta=0)
        assert seq.locations == [1, 2]

    def test_unsorted_input_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            extract_activity_sequence([CheckIn(0, 1, 100), CheckIn(0, 1, 50)])

    def test_mixed_users_rejected(self):
        with pytest.raises(ValueError, match="multiple users"):
            extract_activity_sequence([CheckIn(0, 1, 0), CheckIn(1, 1, 10)])

    def test_random_streams_match_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = rng.integers(1, 25)
            t = np.cumsum(rng.integers(0, 5000, n))
            locs = rng.integers(0, 4, n)
            cs = [CheckIn(0, int(l), int(tt)) for l, tt in zip(locs, t)]
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
        seq = ActivitySequence(0, list(range(30)), [0] * 30)
        samples = make_windows(seq, window_len=10)
        split = split_samples({0: samples})
        region = train_location_region({0: seq}, split)
        last_train_target = max(s.seq_pos for s in split.train)
        assert region[0] == list(range(last_train_target + 1))
        for s in split.val + split.test:
            assert s.seq_pos > last_train_target

    def test_user_without_train_samples_empty(self):
        seq = ActivitySequence(1, [1, 2, 3], [0, 1, 2])
        region = train_location_region({1: seq}, split_samples({}))
        assert region[1] == []


class TestDatasetIO:
    def test_roundtrip_exact(self, tmp_path, rng):
        cs = [CheckIn(int(u), int(l), int(t)) for u, l, t in
              zip(rng.integers(0, 5, 50), rng.integers(0, 9, 50),
                  rng.integers(0, 10 ** 6, 50))]
        path = tmp_path / "data.jsonl"
        manifest = write_checkins(path, cs)
        back = read_checkins(path)
        assert sorted(back, key=lambda c: (c.user, c.t)) == \
            sorted(cs, key=lambda c: (c.user, c.t))
        assert manifest == build_manifest(cs)
        # the counts are returned, not written beside the data
        assert [p.name for p in tmp_path.iterdir()] == ["data.jsonl"]

    def test_lines_sorted_by_user_then_time(self, tmp_path):
        cs = [CheckIn(1, 0, 50), CheckIn(0, 0, 99), CheckIn(0, 1, 10)]
        path = tmp_path / "d.jsonl"
        write_checkins(path, cs)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        keys = [(r["user"], r["t"]) for r in rows]
        assert keys == sorted(keys)

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

    def test_layout_does_not_change_records(self, tmp_path):
        rows = [(3, 1, 500), (0, 2, 70), (3, 0, 20), (0, 2, 70), (1, 4, 9)]
        lines = [json.dumps({"user": u, "loc": l, "t": t}) for u, l, t in rows]
        clean = tmp_path / "clean.jsonl"
        clean.write_text("".join(line + "\n" for line in lines))
        messy = tmp_path / "messy.jsonl"
        # CRLF endings, whitespace-only lines, padding, no final newline
        messy.write_bytes(("  \r\n" + "\r\n\t \r\n".join(lines[:3]) + "\r\n"
                           + " " + lines[3] + " \n\n" + lines[4]).encode())
        want = [CheckIn(u, l, t) for u, l, t in rows]
        assert read_checkins(clean) == want
        assert read_checkins(messy) == want

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

    def test_manifest_counts(self):
        cs = [CheckIn(0, 0, 0), CheckIn(0, 1, 86400 * 3), CheckIn(2, 0, 100)]
        m = build_manifest(cs)
        assert m == {"users": 2, "checkins": 3, "locations": 2,
                     "duration_days": 4}


class TestPrepareDataset:
    def test_min_records_filter(self):
        cfg = SyntheticConfig(seed=3, num_users=4, num_locations=10, days=4,
                              activities_per_day=5)
        checkins = generate_synthetic(cfg)
        ds_all = prepare_dataset(checkins, window_len=5, min_records=1)
        ds_none = prepare_dataset(checkins, window_len=5, min_records=1000)
        assert len(ds_all.sequences) == 4
        assert len(ds_none.sequences) == 0

    def test_id_space_covers_max_ids(self):
        cs = [CheckIn(7, 33, 0), CheckIn(7, 33, 7200)]
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
        seq = ActivitySequence(0, [1, 2, 1, 3], [0, 1, 2, 3])
        ds = prepare_dataset([CheckIn(0, 0, 0)], min_records=1000)
        ds.sequences[0] = seq
        samples = [WindowSample(0, (), (), 0, 0, pos) for pos in (9, 2, -1)]
        want = [prefix_entropy(seq.locations[:pos]) for pos in (9, 2, -1)]
        np.testing.assert_array_equal(sample_entropies(ds, samples), want)
        with pytest.raises(ValueError, match="at least one element"):
            sample_entropies(ds, samples + [WindowSample(0, (), (), 0, 0, 0)])


class TestSyntheticGenerator:
    def test_determinism_byte_identical(self, tmp_path):
        cfg = SyntheticConfig(seed=5, num_users=6, num_locations=12, days=3)
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        write_checkins(a, generate_synthetic(cfg))
        write_checkins(b, generate_synthetic(cfg))
        assert hashlib.sha256(a.read_bytes()).hexdigest() == \
            hashlib.sha256(b.read_bytes()).hexdigest()

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
            n_visits = sum(1 for c in checkins if c.user == user) // 2
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

    def test_slot_entropy_zero_for_returners(self):
        # per-user, per-slot location entropy is zero when p_explore = 0
        cfg = SyntheticConfig(seed=8, num_users=4, num_locations=12, days=6)
        ds = prepare_dataset(generate_synthetic(cfg), min_records=1)
        for seq in ds.sequences.values():
            by_slot = {}
            for loc, slot in zip(seq.locations, seq.slots):
                by_slot.setdefault(slot, set()).add(loc)
            assert all(len(v) == 1 for v in by_slot.values())
