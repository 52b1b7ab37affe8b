"""Raw series ingestion, chronological splitting and normalization, into one flat table.

Every channel of a multivariate CSV becomes its own univariate timeline,
split chronologically 60:20:20 and z-scored with statistics fitted on its
train split only. ``SplitStore`` lays the normalized timelines end to end in
one flat table and records where each channel and split begins: it is the one
place that knows where a split's values live, and everything downstream is
rows of it.

``save_store`` writes it as one JSON file: ``dataset``, ``meta``, per channel
its ``mean``, ``std`` and ``rows`` (its four ``bounds``: its first row, the
rows where its valid and test splits start, and its end row), and ``values``,
the whole table as the standard base64 of its little-endian float64 bytes
(``autodiff.encode_array``, the checkpoint's byte format), so it reads back bit
for bit.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path

import numpy as np

from .autodiff import decode_array, encode_array
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


def is_dataset_name(name) -> bool:
    """Whether ``name`` can be a dataset's name: a string with no comma or line break, since it is a field
    of every ``eval_report.csv`` row."""
    return isinstance(name, str) and "," not in name and name.splitlines() in ([], [name])


def save_store(store: SplitStore, path: str | Path) -> None:
    """The store as the JSON file the module docstring describes: per channel its stats and its four
    ``bounds`` as ``rows``, and the whole flat table as ``values``, base64 of its float64 bytes."""
    channels = {ch: {"mean": stats.mean, "std": stats.std, "rows": rows}
                for ch, stats, rows in zip(store.channels, store.stats, store.bounds.tolist())}
    payload = {"dataset": store.dataset, "meta": store.meta, "channels": channels, "values": encode_array(store.values)}
    Path(path).write_text(json.dumps(payload, separators=(",", ":")) + "\n")


def load_store(path: str | Path) -> SplitStore:
    """The store a ``save_store`` file holds: a dataset name ``is_dataset_name`` accepts and one or more
    channels, whose rows tile the table in order from row 0, each channel's from the previous one's end.
    Replay finds an example's split by its rows, so rows that overlap would hand it the wrong one."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such store: {path}")
    # JSONDecodeError and binascii.Error are ValueErrors; a bad key, type or shape is a malformed file too
    try:
        payload = json.loads(path.read_text())
        dataset, meta, channels = payload["dataset"], payload.get("meta", {}), payload["channels"]
        if not is_dataset_name(dataset):
            raise ValueError(f"dataset {dataset!r} is not a string free of commas and line breaks")
        if not channels:
            raise ValueError("no channels")
        stats, bounds = [], [[0] * 4]
        for ch, entry in channels.items():
            rows = entry["rows"]
            if [type(r) for r in rows] != [int] * 4 or rows[0] != bounds[-1][3] or sorted(rows) != rows:
                raise ValueError(f"the rows {rows} of channel {ch!r} are not 4 rows in order from row {bounds[-1][3]}")
            stats.append(NormStats(mean=entry["mean"], std=entry["std"]))
            bounds.append(rows)
        values = decode_array(payload["values"], "float64")
        if len(values) != bounds[-1][3]:
            raise ValueError(f"values holds {len(values)} rows, but its last channel ends at row {bounds[-1][3]}")
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise DataError(f"malformed store {path}: {exc!r}") from None
    return SplitStore(dataset, list(channels), values, np.array(bounds[1:], dtype=np.int64), stats, meta)
