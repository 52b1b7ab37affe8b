"""Raw series ingestion, channel-independent expansion, splitting and normalization.

Every channel of a multivariate CSV becomes its own univariate series, split
chronologically 60:20:20, and z-scored with statistics fitted on the train
segment only.
"""

from __future__ import annotations

import csv
import json
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from datetime import datetime
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DataError

STD_FLOOR = 1e-8
SPLIT_NAMES = ("train", "valid", "test")


@dataclass(frozen=True)
class RawDataset:
    """A multivariate series as loaded from disk: equal-length named channels."""

    name: str
    timestamps: tuple
    channels: tuple[str, ...]
    values: np.ndarray  # shape (T, n_channels), float64

    def __post_init__(self) -> None:
        if self.values.ndim != 2 or self.values.shape[1] != len(self.channels):
            raise DataError(
                f"values shape {self.values.shape} inconsistent with {len(self.channels)} channels"
            )
        if self.values.shape[0] != len(self.timestamps):
            raise DataError("timestamp count does not match row count")
        if self.values.shape[0] < 1:
            raise DataError("no data rows")


@dataclass(frozen=True)
class ChannelSeries:
    """One univariate channel; the unit of all windowing.

    ``origin_offset`` is the index of ``values[0]`` in the parent dataset's
    timeline, so split segments keep their absolute position.
    """

    dataset: str
    channel: str
    values: np.ndarray
    origin_offset: int = 0
    split: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if self.values.ndim != 1:
            raise DataError(f"channel values must be 1-d, got shape {self.values.shape}")
        if self.origin_offset < 0:
            raise DataError("origin_offset must be >= 0")
        if self.split is not None and self.split not in SPLIT_NAMES:
            raise DataError(f"unknown split name {self.split!r}")

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class NormStats:
    """Train-split z-score statistics; std floored to stay invertible."""

    mean: float
    std: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.mean) or not np.isfinite(self.std):
            raise DataError("normalization statistics must be finite")
        if self.std < STD_FLOOR:
            object.__setattr__(self, "std", STD_FLOOR)


def _parse_timestamp(text: str, row: int):
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return datetime.fromisoformat(text)
    except ValueError:
        raise DataError(f"row {row}: cannot parse timestamp {text!r}") from None


def load_csv(path: str | Path, channels: list[str] | None = None, name: str | None = None) -> RawDataset:
    """Load a CSV with a timestamp column 0 and real-valued channel columns.

    ``channels`` optionally selects a subset of columns by header name;
    default is every column after the timestamp, in file order. Every error
    names the file; undecodable bytes are a ``DataError`` too.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    try:
        with path.open(newline="") as fh:
            selected, timestamps, rows = _read_csv(csv.reader(fh), channels)
    except UnicodeDecodeError as exc:
        raise DataError(f"malformed csv {path}: undecodable bytes at byte {exc.start}: {exc.reason}") from None
    except (DataError, csv.Error) as exc:
        raise DataError(f"malformed csv {path}: {exc}") from None
    return RawDataset(
        name=name or path.stem,
        timestamps=tuple(timestamps),
        channels=tuple(selected),
        values=np.array(rows, dtype=np.float64),
    )


def _read_csv(reader, channels: list[str] | None) -> tuple[list[str], list, list[list[float]]]:
    """Selected channel names, timestamps and value rows of a CSV reader."""
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("no data rows") from None
    if len(header) < 2:
        raise DataError("need a timestamp column and at least one channel column")
    available = [h.strip() for h in header[1:]]
    if channels is None:
        selected = available
    else:
        missing = [c for c in channels if c not in available]
        if missing:
            raise DataError(f"channels not in file: {missing}")
        selected = list(channels)
    col_idx = [available.index(c) + 1 for c in selected]

    timestamps = []
    rows: list[list[float]] = []
    for i, raw in enumerate(reader):
        if len(raw) != len(header):
            raise DataError(f"row {i}: expected {len(header)} cells, got {len(raw)}")
        timestamps.append(_parse_timestamp(raw[0], i))
        parsed = []
        for j in col_idx:
            cell = raw[j].strip()
            try:
                v = float(cell)
            except ValueError:
                raise DataError(f"row {i}, column {header[j]!r}: non-numeric cell {cell!r}") from None
            if not np.isfinite(v):
                raise DataError(f"row {i}, column {header[j]!r}: non-finite cell {cell!r}")
            parsed.append(v)
        rows.append(parsed)

    if not rows:
        raise DataError("no data rows")
    for i in range(1, len(timestamps)):
        if not timestamps[i] > timestamps[i - 1]:
            raise DataError(f"row {i}: timestamps not strictly increasing")
    return selected, timestamps, rows


def expand_channels(d: RawDataset) -> list[ChannelSeries]:
    """Split a multivariate dataset into independent univariate channels."""
    return [
        ChannelSeries(dataset=d.name, channel=ch, values=d.values[:, i].copy())
        for i, ch in enumerate(d.channels)
    ]


def chronological_split(
    s: ChannelSeries, fractions: tuple[float, float] = (0.6, 0.8)
) -> tuple[ChannelSeries, ChannelSeries, ChannelSeries]:
    """Split into (train, valid, test) at floor(0.6*T) and floor(0.8*T).

    The remainder after flooring lands in the test segment; concatenating the
    three pieces reproduces the input exactly.
    """
    t = len(s)
    b1 = int(np.floor(fractions[0] * t))
    b2 = int(np.floor(fractions[1] * t))
    if t < 5 or b1 < 1 or b2 - b1 < 1 or t - b2 < 1:
        raise DataError(f"series of length {t} too short for a non-empty 60:20:20 split")
    pieces = []
    for split, (lo, hi) in zip(SPLIT_NAMES, ((0, b1), (b1, b2), (b2, t))):
        pieces.append(
            replace(s, values=s.values[lo:hi].copy(), origin_offset=s.origin_offset + lo, split=split)
        )
    return pieces[0], pieces[1], pieces[2]


def fit_norm(train: ChannelSeries) -> NormStats:
    """Mean and population std of the train segment (std floored at 1e-8)."""
    if train.split is not None and train.split != "train":
        raise DataError(f"normalization statistics must come from the train split, got {train.split!r}")
    if len(train) == 0:
        raise DataError("cannot fit normalization on an empty series")
    return NormStats(mean=float(np.mean(train.values)), std=float(np.std(train.values)))


def normalize(s: ChannelSeries, n: NormStats) -> ChannelSeries:
    return replace(s, values=(s.values - n.mean) / n.std)


class SeriesTable:
    """Series laid end to end in one flat array, so that a position in any of them is one integer.

    Row ``firsts[i] + t`` of ``values`` holds ``series[i].values[t]``; ``firsts``
    ends with the row count. A series given twice is laid out once, and
    ``row`` finds it by identity, not by its names or values.
    """

    def __init__(self, series: Sequence[ChannelSeries]):
        self.series = tuple({id(s): s for s in series}.values())
        self.firsts = np.cumsum([0, *(len(s) for s in self.series)])
        self.values = np.concatenate([s.values for s in self.series]) if self.series else np.zeros(0)
        self._first = {id(s): int(first) for s, first in zip(self.series, self.firsts)}

    def row(self, s: ChannelSeries, t: int) -> int:
        """The row of ``s.values[t]``."""
        return self._first[id(s)] + t

    def locate(self, rows: np.ndarray) -> np.ndarray:
        """The index in ``series`` of the series that holds each row."""
        return np.searchsorted(self.firsts, rows, side="right") - 1


@dataclass
class SplitStore:
    """Normalized per-channel splits plus the stats that produced them; ``table`` lays them out flat."""

    dataset: str
    splits: dict[str, dict[str, ChannelSeries]] = field(default_factory=dict)  # channel -> split -> series
    stats: dict[str, NormStats] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    @property
    def channels(self) -> list[str]:
        return list(self.splits.keys())

    def series(self, channel: str, split: str) -> ChannelSeries:
        return self.splits[channel][split]

    @cached_property
    def table(self) -> SeriesTable:
        """Every split of every channel in one ``SeriesTable``, made on first use: context samples index it."""
        return SeriesTable([s for splits in self.splits.values() for s in splits.values()])


def build_store(d: RawDataset, meta: dict | None = None) -> SplitStore:
    """Expand, split and normalize every channel of a dataset."""
    store = SplitStore(dataset=d.name, meta=dict(meta or {}))
    for ch in expand_channels(d):
        train, valid, test = chronological_split(ch)
        stats = fit_norm(train)
        store.stats[ch.channel] = stats
        store.splits[ch.channel] = {
            part.split: normalize(part, stats) for part in (train, valid, test)
        }
    return store


def save_store(store: SplitStore, path: str | Path) -> None:
    payload = {
        "dataset": store.dataset,
        "meta": store.meta,
        "channels": {
            ch: {
                "mean": store.stats[ch].mean,
                "std": store.stats[ch].std,
                "splits": {
                    split: {
                        "origin_offset": s.origin_offset,
                        "values": s.values.tolist(),
                    }
                    for split, s in store.splits[ch].items()
                },
            }
            for ch in store.channels
        },
    }
    Path(path).write_text(json.dumps(payload, separators=(",", ":")) + "\n")


def load_store(path: str | Path) -> SplitStore:
    """The store a ``save_store`` file holds: one or more channels, each split exactly into ``SPLIT_NAMES``,
    which tile its timeline in that order. Replay finds an example's split by its span, so splits that
    overlap would hand it the wrong one."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such store: {path}")
    # JSONDecodeError is a ValueError; a bad key, type or shape is a malformed file too
    try:
        payload = json.loads(path.read_text())
        store = SplitStore(dataset=payload["dataset"], meta=payload.get("meta", {}))
        if not payload["channels"]:
            raise ValueError("no channels")
        for ch, entry in payload["channels"].items():
            if sorted(entry["splits"]) != sorted(SPLIT_NAMES):
                raise ValueError(f"channel {ch!r} has splits {sorted(entry['splits'])}, not {list(SPLIT_NAMES)}")
            store.stats[ch] = NormStats(mean=entry["mean"], std=entry["std"])
            store.splits[ch] = {
                split: ChannelSeries(
                    dataset=store.dataset,
                    channel=ch,
                    values=np.array(sp["values"], dtype=np.float64),
                    origin_offset=sp["origin_offset"],
                    split=split,
                )
                for split, sp in entry["splits"].items()
            }
            bad = [split for split, s in store.splits[ch].items() if not np.isfinite(s.values).all()]
            if bad:
                raise ValueError(f"non-finite value in channel {ch!r}, split {bad[0]!r}")
            parts = [store.splits[ch][split] for split in SPLIT_NAMES]
            origins = [s.origin_offset for s in parts]
            ends = [s.origin_offset + len(s) for s in parts]
            if any(type(o) is not int for o in origins) or origins[1:] != ends[:-1]:
                raise ValueError(f"the splits of channel {ch!r}, at origin offsets {origins} and of lengths "
                                 f"{[len(s) for s in parts]}, do not tile its timeline")
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise DataError(f"malformed store {path}: {exc!r}") from None
    return store
