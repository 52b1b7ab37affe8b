import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsicl.cli import main
from tsicl.errors import DataError
from tsicl.series import SPLIT_NAMES, RawDataset, build_store, load_csv, load_store, save_store


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoadCsv:
    def test_basic_parse(self, tmp_path):
        p = write(tmp_path, "timestamp,a,b\n0,1.0,4.0\n1,2.0,5.0\n2,3.0,6.0\n")
        d = load_csv(p)
        assert d.values.shape == (3, 2)
        assert d.channels == ("a", "b")
        assert np.array_equal(d.values[:, 0], [1.0, 2.0, 3.0])

    def test_nan_cell_reports_row_and_column(self, tmp_path):
        p = write(tmp_path, "timestamp,a,b\n0,1.0,4.0\n1,nan,5.0\n")
        with pytest.raises(DataError, match=r"row 1.*'a'"):
            load_csv(p)

    def test_empty_file(self, tmp_path):
        p = write(tmp_path, "")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(p)

    def test_header_only(self, tmp_path):
        p = write(tmp_path, "timestamp,a\n")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            load_csv(tmp_path / "nope.csv")

    def test_ragged_row(self, tmp_path):
        p = write(tmp_path, "timestamp,a,b\n0,1.0,2.0\n1,3.0\n")
        with pytest.raises(DataError, match="row 1"):
            load_csv(p)

    def test_non_numeric_cell(self, tmp_path):
        p = write(tmp_path, "timestamp,a\n0,1.0\n1,oops\n")
        with pytest.raises(DataError, match=r"row 1.*'a'.*'oops'"):
            load_csv(p)

    def test_non_monotone_timestamps(self, tmp_path):
        p = write(tmp_path, "timestamp,a\n0,1.0\n2,2.0\n1,3.0\n")
        with pytest.raises(DataError, match="strictly increasing"):
            load_csv(p)

    def test_iso_timestamps_and_channel_subset(self, tmp_path):
        p = write(tmp_path, "timestamp,a,b\n2024-01-01,1.0,2.0\n2024-01-02,3.0,4.0\n")
        d = load_csv(p, channels=["b"])
        assert d.channels == ("b",)
        assert np.array_equal(d.values[:, 0], [2.0, 4.0])


def store_of_columns(*columns, names=None):
    """``build_store`` of a dataset with these equal-length value columns, named a, b, ... unless ``names``."""
    values = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    names = tuple(names or "abcdefghij"[: len(columns)])
    return build_store(RawDataset("d", tuple(range(len(values))), names, values))


def timeline(store, c):
    """Channel c's normalized values, train then valid then test."""
    return store.values[store.bounds[c, 0] : store.bounds[c, 3]]


class TestExpandChannels:
    def test_two_channels(self, tmp_path):
        p = write(tmp_path, "timestamp,a,b\n" + "".join(f"{t},{t + 1},{t + 4}\n" for t in range(5)))
        store = build_store(load_csv(p))
        assert store.channels == ["a", "b"]
        assert [len(timeline(store, c)) for c in range(2)] == [5, 5]
        assert np.allclose(timeline(store, 1) * store.stats[1].std + store.stats[1].mean, [4, 5, 6, 7, 8])

    def test_single_channel(self, tmp_path):
        p = write(tmp_path, "timestamp,a\n" + "".join(f"{t},{t}\n" for t in range(5)))
        assert len(build_store(load_csv(p)).channels) == 1

    def test_seven_channels_order_preserved(self, tmp_path):
        names = [f"c{i}" for i in range(7)]
        rows = "\n".join(f"{t}," + ",".join(str(t * 7 + i) for i in range(7)) for t in range(5))
        p = write(tmp_path, "timestamp," + ",".join(names) + "\n" + rows + "\n")
        store = build_store(load_csv(p))
        assert store.channels == names
        assert np.allclose(timeline(store, 3) * store.stats[3].std + store.stats[3].mean, [3, 10, 17, 24, 31])

    def test_a_header_naming_a_channel_twice_is_refused(self, tmp_path):
        """Both columns would be read as the first one's values, and the second silently lost."""
        p = write(tmp_path, "timestamp,a,a,b\n0,1,2,3\n1,4,5,6\n")
        with pytest.raises(DataError, match=r"malformed csv .*data.csv.*\['a'\] more than once"):
            load_csv(p)


class TestChronologicalSplit:
    @pytest.mark.parametrize("t,expected", [(100, (60, 20, 20)), (101, (60, 20, 21)), (10, (6, 2, 2))])
    def test_lengths(self, t, expected):
        store = store_of_columns(np.arange(t))
        assert tuple(len(store.rows(0, split)) for split in SPLIT_NAMES) == expected

    def test_too_short(self):
        with pytest.raises(DataError, match="too short"):
            store_of_columns(np.arange(4))

    @given(st.integers(min_value=5, max_value=2000))
    @settings(max_examples=200, deadline=None)
    def test_split_exactness_and_chronology(self, t):
        store = store_of_columns(np.arange(t), np.arange(t) * 2.0)
        for c in range(2):
            train, valid, test = (store.rows(c, split) for split in SPLIT_NAMES)
            assert len(train) + len(valid) + len(test) == t
            assert len(train) == int(np.floor(0.6 * t))
            assert len(train) + len(valid) == int(np.floor(0.8 * t))
            # chronology: each split starts where the previous one ends, on the channel's own rows
            assert (train.start, train.stop, valid.stop, test.stop) == (c * t, valid.start, test.start, (c + 1) * t)
        # the splits concatenated are the normalized channel, value for value
        stats = store.stats[0]
        assert np.array_equal(timeline(store, 0), (np.arange(t) - stats.mean) / stats.std)

    def test_split_labels(self, tmp_path):
        """A store file keys each channel's splits train, valid and test, at their first times."""
        save_store(store_of_columns(np.arange(20)), tmp_path / "store.json")
        splits = json.loads((tmp_path / "store.json").read_text())["channels"]["a"]["splits"]
        assert {name: split["origin_offset"] for name, split in splits.items()} == {"train": 0, "valid": 12, "test": 16}


def two_pass_stats(values):
    # independent oracle: textbook two-pass mean / population variance
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    return mean, var**0.5


class TestFitNorm:
    def test_constant_series_floors_std(self):
        stats = store_of_columns([1.0] * 5).stats[0]
        assert stats.mean == 1.0
        assert stats.std == 1e-8

    def test_hand_arithmetic(self):
        stats = store_of_columns([0.0, 2.0] * 3 + [7.0, 7.0, 9.0, 9.0]).stats[0]
        assert (stats.mean, stats.std) == (1.0, 1.0)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(7)
        values = rng.normal(3.0, 2.5, size=1667)  # a train split of 1000
        stats = store_of_columns(values).stats[0]
        mean, std = two_pass_stats(values[:1000].tolist())
        assert abs(stats.mean - mean) < 1e-12
        assert abs(stats.std - std) < 1e-12

    @pytest.mark.parametrize("split", ["valid", "test"])
    def test_valid_and_test_values_do_not_enter_the_stats(self, split):
        values = np.arange(20.0)
        store = store_of_columns(values)
        lo, hi = (store.rows(0, split).start, store.rows(0, split).stop)
        values[lo:hi] = 1e6
        assert store_of_columns(values).stats == store.stats


class TestNormalize:
    def test_hand_arithmetic(self):
        store = store_of_columns([0.0, 2.0] * 3 + [7.0, 7.0, 9.0, 9.0])
        assert np.array_equal(timeline(store, 0), [-1.0, 1.0] * 3 + [6.0, 6.0, 8.0, 8.0])

    def test_constant_to_zeros(self):
        assert np.array_equal(timeline(store_of_columns([5.0] * 5), 0), [0.0] * 5)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=5, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_property(self, values):
        store = store_of_columns(values)
        back = timeline(store, 0) * store.stats[0].std + store.stats[0].mean
        assert np.max(np.abs(back - values)) < 1e-9


class TestStore:
    def test_build_and_round_trip(self, tmp_path):
        p = write(tmp_path, "timestamp,a,b\n" + "\n".join(f"{t},{t * 0.5},{t * 2.0}" for t in range(50)) + "\n")
        store = build_store(load_csv(p), meta={"seed": 1})
        assert store.channels == ["a", "b"]
        assert store.bounds.tolist() == [[0, 30, 40, 50], [50, 80, 90, 100]]
        assert store.locate([0, 49, 50, 99]).tolist() == [0, 0, 1, 1]
        # statistics from train split only
        train = store.rows(0, "train")
        assert abs(float(np.mean(store.values[train.start : train.stop]))) < 1e-12
        path = tmp_path / "store.json"
        save_store(store, path)
        loaded = load_store(path)
        assert loaded.channels == store.channels and loaded.stats == store.stats
        assert np.array_equal(loaded.values, store.values) and np.array_equal(loaded.bounds, store.bounds)
        assert loaded.meta == {"seed": 1}


def test_a_loaded_store_saves_to_the_same_bytes(pipeline_dir, tmp_path):
    """``save_store(load_store(p))`` rewrites ``p`` byte for byte: the pipeline's store, and a 3-channel CSV's
    whose channels differ in scale and one is constant (its std floored)."""
    rows = np.random.default_rng(0).normal(size=(37, 2)) * [1.0, 1e3] + [0.0, 5.0]
    csv = tmp_path / "three.csv"
    csv.write_text("timestamp,a,b,c\n" + "".join(f"{t},{a!r},{b!r},2.5\n" for t, (a, b) in enumerate(rows.tolist())))
    settings = {"csv": csv, "store": tmp_path / "three.json", "out_dir": tmp_path}
    assert main(["ingest", *(arg for key, value in settings.items() for arg in ("--set", f"{key}={value}"))]) == 0
    for path in (pipeline_dir / "store.json", tmp_path / "three.json"):
        save_store(load_store(path), tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
