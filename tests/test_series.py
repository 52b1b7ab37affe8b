import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsicl.errors import DataError
from tsicl.series import (
    ChannelSeries,
    NormStats,
    build_store,
    chronological_split,
    expand_channels,
    fit_norm,
    load_csv,
    load_store,
    normalize,
    save_store,
)


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


class TestExpandChannels:
    def test_two_channels(self, tmp_path):
        p = write(tmp_path, "timestamp,a,b\n0,1,4\n1,2,5\n2,3,6\n")
        out = expand_channels(load_csv(p))
        assert len(out) == 2
        assert [len(s) for s in out] == [3, 3]
        assert np.array_equal(out[1].values, [4, 5, 6])

    def test_single_channel(self, tmp_path):
        p = write(tmp_path, "timestamp,a\n0,1\n1,2\n")
        assert len(expand_channels(load_csv(p))) == 1

    def test_seven_channels_order_preserved(self, tmp_path):
        names = [f"c{i}" for i in range(7)]
        rows = "\n".join(f"{t}," + ",".join(str(t * 7 + i) for i in range(7)) for t in range(4))
        p = write(tmp_path, "timestamp," + ",".join(names) + "\n" + rows + "\n")
        out = expand_channels(load_csv(p))
        assert [s.channel for s in out] == names
        assert np.array_equal(out[3].values, [3, 10, 17, 24])


def series_of(n, dataset="d", channel="c"):
    return ChannelSeries(dataset=dataset, channel=channel, values=np.arange(n, dtype=float))


class TestChronologicalSplit:
    @pytest.mark.parametrize("t,expected", [(100, (60, 20, 20)), (101, (60, 20, 21)), (10, (6, 2, 2))])
    def test_lengths(self, t, expected):
        parts = chronological_split(series_of(t))
        assert tuple(len(p) for p in parts) == expected

    def test_too_short(self):
        with pytest.raises(DataError, match="too short"):
            chronological_split(series_of(4))

    @given(st.integers(min_value=5, max_value=2000))
    @settings(max_examples=200, deadline=None)
    def test_split_exactness_and_chronology(self, t):
        train, valid, test = chronological_split(series_of(t))
        assert len(train) + len(valid) + len(test) == t
        assert len(train) == int(np.floor(0.6 * t))
        assert len(train) + len(valid) == int(np.floor(0.8 * t))
        # chronology by origin_offset + local index
        assert train.origin_offset + len(train) - 1 < valid.origin_offset
        assert valid.origin_offset + len(valid) - 1 < test.origin_offset
        # concatenation reproduces the original
        rebuilt = np.concatenate([train.values, valid.values, test.values])
        assert np.array_equal(rebuilt, np.arange(t, dtype=float))

    def test_split_labels(self):
        train, valid, test = chronological_split(series_of(20))
        assert (train.split, valid.split, test.split) == ("train", "valid", "test")


def two_pass_stats(values):
    # independent oracle: textbook two-pass mean / population variance
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    return mean, var**0.5


class TestFitNorm:
    def test_constant_series_floors_std(self):
        stats = fit_norm(ChannelSeries("d", "c", [1.0, 1.0, 1.0], split="train"))
        assert stats.mean == 1.0
        assert stats.std == 1e-8

    def test_hand_arithmetic(self):
        stats = fit_norm(ChannelSeries("d", "c", [0.0, 2.0], split="train"))
        assert (stats.mean, stats.std) == (1.0, 1.0)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(7)
        values = rng.normal(3.0, 2.5, size=1000)
        stats = fit_norm(ChannelSeries("d", "c", values, split="train"))
        mean, std = two_pass_stats(values.tolist())
        assert abs(stats.mean - mean) < 1e-12
        assert abs(stats.std - std) < 1e-12

    def test_empty_input(self):
        with pytest.raises(DataError, match="empty"):
            fit_norm(ChannelSeries("d", "c", [], split="train"))

    @pytest.mark.parametrize("split", ["valid", "test"])
    def test_rejects_non_train_split(self, split):
        with pytest.raises(DataError, match="train split"):
            fit_norm(ChannelSeries("d", "c", [1.0, 2.0], split=split))


class TestNormalize:
    def test_hand_arithmetic(self):
        s = ChannelSeries("d", "c", [0.0, 2.0])
        out = normalize(s, NormStats(1.0, 1.0))
        assert np.array_equal(out.values, [-1.0, 1.0])

    def test_constant_to_zeros(self):
        s = ChannelSeries("d", "c", [5.0, 5.0, 5.0], split="train")
        out = normalize(s, fit_norm(s))
        assert np.array_equal(out.values, [0.0, 0.0, 0.0])

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_property(self, values):
        s = ChannelSeries("d", "c", values, split="train")
        stats = fit_norm(s)
        back = normalize(s, stats).values * stats.std + stats.mean
        assert np.max(np.abs(back - s.values)) < 1e-9


class TestStore:
    def test_build_and_round_trip(self, tmp_path):
        p = write(tmp_path, "timestamp,a,b\n" + "\n".join(f"{t},{t * 0.5},{t * 2.0}" for t in range(50)) + "\n")
        store = build_store(load_csv(p), meta={"seed": 1})
        assert sorted(store.channels) == ["a", "b"]
        assert store.series("a", "train").split == "train"
        # statistics from train split only
        train = store.series("a", "train")
        assert abs(float(np.mean(train.values))) < 1e-12
        path = tmp_path / "store.json"
        save_store(store, path)
        loaded = load_store(path)
        for ch in store.channels:
            for split in ("train", "valid", "test"):
                assert np.array_equal(loaded.series(ch, split).values, store.series(ch, split).values)
                assert loaded.series(ch, split).origin_offset == store.series(ch, split).origin_offset
        assert loaded.meta == {"seed": 1}
