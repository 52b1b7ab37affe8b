"""Raw series ingestion, chronological splitting and normalization, into one flat table.

Every channel of a multivariate CSV becomes its own univariate timeline,
split chronologically 60:20:20 and z-scored with statistics fitted on its
train split only. ``SplitStore`` lays the normalized timelines end to end in
one flat table and records where each channel and split begins: it is the one
place that knows where a split's values live, and everything downstream is
rows of it.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from datetime import datetime
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
    repeated = sorted({c for c in available if available.count(c) > 1})
    if repeated:
        raise DataError(f"the header names channels {repeated} more than once")
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




@dataclass
class SplitStore:
    """Every channel's normalized timeline, laid end to end once in one flat table, and the stats that normalized it.

    Channel c fills rows ``bounds[c, 0]`` to ``bounds[c, 3]`` of ``values``,
    channel after channel; its train, valid and test splits start at
    ``bounds[c, 0]``, ``bounds[c, 1]`` and ``bounds[c, 2]``. Row r of channel
    c is time ``r - bounds[c, 0]`` on its timeline, so a position in any split
    of any channel is one integer.
    """

    dataset: str
    channels: list[str]
    values: np.ndarray  # (rows,) float64
    bounds: np.ndarray  # (channels, 4) int64
    stats: list[NormStats] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def rows(self, c: int, split: str) -> range:
        """The rows of channel c's ``split``."""
        k = SPLIT_NAMES.index(split)
        return range(int(self.bounds[c, k]), int(self.bounds[c, k + 1]))

    def locate(self, rows) -> np.ndarray:
        """The index of the channel that holds each row."""
        return np.searchsorted(self.bounds[:, 0], rows, side="right") - 1


def build_store(d: RawDataset, meta: dict | None = None) -> SplitStore:
    """Split every channel of a dataset chronologically 60:20:20 and z-score it with its train split's stats.

    The splits end at floor(0.6*T) and floor(0.8*T): the remainder after
    flooring lands in the test split, and each split must hold a value.
    """
    t = len(d.values)
    b1, b2 = int(np.floor(0.6 * t)), int(np.floor(0.8 * t))
    if t < 5 or b1 < 1 or b2 - b1 < 1 or t - b2 < 1:
        raise DataError(f"series of length {t} too short for a non-empty 60:20:20 split")
    stats, timelines = [], []
    for x in d.values.T.copy():  # each channel's values, contiguous
        stats.append(NormStats(mean=float(np.mean(x[:b1])), std=float(np.std(x[:b1]))))
        timelines.append((x - stats[-1].mean) / stats[-1].std)
    bounds = np.arange(len(d.channels))[:, None] * t + np.array([0, b1, b2, t])
    return SplitStore(d.name, list(d.channels), np.concatenate(timelines), bounds, stats, dict(meta or {}))


def save_store(store: SplitStore, path: str | Path) -> None:
    """The store as JSON: per channel its stats and per split its values and ``origin_offset``, its first time."""
    channels = {}
    for ch, stats, (first, *ends) in zip(store.channels, store.stats, store.bounds.tolist()):
        splits = {split: {"origin_offset": lo - first, "values": store.values[lo:hi].tolist()}
                  for split, lo, hi in zip(SPLIT_NAMES, [first, *ends], ends)}
        channels[ch] = {"mean": stats.mean, "std": stats.std, "splits": splits}
    payload = {"dataset": store.dataset, "meta": store.meta, "channels": channels}
    Path(path).write_text(json.dumps(payload, separators=(",", ":")) + "\n")


def load_store(path: str | Path) -> SplitStore:
    """The store a ``save_store`` file holds: one or more channels, each split exactly into ``SPLIT_NAMES``,
    which tile its timeline from time 0 in that order. Replay finds an example's split by its span, so splits
    that overlap would hand it the wrong one."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such store: {path}")
    # JSONDecodeError is a ValueError; a bad key, type or shape is a malformed file too
    try:
        payload = json.loads(path.read_text())
        dataset, meta = payload["dataset"], payload.get("meta", {})
        if not payload["channels"]:
            raise ValueError("no channels")
        stats, parts = [], []
        for ch, entry in payload["channels"].items():
            if sorted(entry["splits"]) != sorted(SPLIT_NAMES):
                raise ValueError(f"channel {ch!r} has splits {sorted(entry['splits'])}, not {list(SPLIT_NAMES)}")
            stats.append(NormStats(mean=entry["mean"], std=entry["std"]))
            splits = [entry["splits"][split] for split in SPLIT_NAMES]
            for split, sp in zip(SPLIT_NAMES, splits):
                parts.append(np.array(sp["values"], dtype=np.float64))
                if parts[-1].ndim != 1:
                    raise ValueError(f"channel {ch!r}, split {split!r}: values of shape {parts[-1].shape}, not 1-d")
                if not np.isfinite(parts[-1]).all():
                    raise ValueError(f"non-finite value in channel {ch!r}, split {split!r}")
            origins, lengths = [sp["origin_offset"] for sp in splits], [len(v) for v in parts[-3:]]
            if any(type(o) is not int for o in origins) or origins != [0, lengths[0], lengths[0] + lengths[1]]:
                raise ValueError(f"the splits of channel {ch!r}, at origin offsets {origins} and of lengths "
                                 f"{lengths}, do not tile its timeline from 0")
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise DataError(f"malformed store {path}: {exc!r}") from None
    ends = np.cumsum([0, *map(len, parts)])
    bounds = ends[np.arange(len(stats))[:, None] * len(SPLIT_NAMES) + np.arange(len(SPLIT_NAMES) + 1)]
    return SplitStore(dataset, list(payload["channels"]), np.concatenate(parts), bounds, stats, meta)
